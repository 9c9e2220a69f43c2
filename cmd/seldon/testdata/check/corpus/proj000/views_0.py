from flask import Flask
from flask import escape
from flask import redirect
from flask import render_template_string
from flask import request
from flask.views import MethodView
import MySQLdb
import bleach
import cherryforms
import geoutil
import listops
import textutil
import urlguard
import webapi
import webdb

app = Flask(__name__)

@app.route('/h0')
def handler_1005960747_0():
    val = request.form.get('p0')
    val = MySQLdb.escape_string(val)
    aux0 = listops.flatten('x')
    aux1 = textutil.wordcount('x')
    out = webdb.runquery(val)
    return out

@app.route('/h1')
def handler_453641609_1():
    val = request.form.get('p1')
    val = bleach.clean(val)
    aux0 = listops.chunked('x')
    out = render_template_string(val)
    return out

class View2(MethodView):
    def post(self):
        item = webapi.get_param('c2')
        item = escape(item)
        return render_template_string(item)

def read_input_3():
    return cherryforms.field('w3')

@app.route('/w3')
def wrapped_3():
    data = read_input_3()
    data = urlguard.same_origin(data)
    return redirect(data)

def paginate(value, options=None):
    shaped = geoutil.distance(value)
    return shaped
