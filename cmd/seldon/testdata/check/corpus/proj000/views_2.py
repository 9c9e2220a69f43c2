from flask import Flask
from flask import Response
from flask import redirect
from flask import request
import MySQLdb
import shellrun
import textutil
import webdb

app = Flask(__name__)

def profile_view_0(request):
    field = request.META.get('d0')
    field = MySQLdb.escape_string(field)
    return webdb.runquery(field)

@app.route('/h1')
def handler_67676049_1():
    val = request.cookies.get('p1')
    out = redirect(val)
    return out

@app.route('/h2')
def handler_722129042_2():
    val = request.cookies.get('p2')
    content_type = 'text/plain'
    out = shellrun.invoke(val)
    return out

def profile_view_3(request):
    field = request.body.decode('d3')
    return Response(field)

def annotate(value, options=None):
    shaped = textutil.wordcount(value)
    return shaped
