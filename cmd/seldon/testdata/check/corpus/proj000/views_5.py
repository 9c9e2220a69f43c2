from flask import Flask
from flask import redirect
from flask import request
import MySQLdb
import bleach
import htmlout
import shellguard
import shellrun
import validators
import webdb

app = Flask(__name__)

def upload_view_0(request):
    field = request.body.decode('d0')
    field = bleach.clean(field)
    return htmlout.emit(field)

def read_input_1():
    return request.form.get('w1')

@app.route('/w1')
def wrapped_1():
    data = read_input_1()
    data = MySQLdb.escape_string(data)
    return webdb.runquery(data)

@app.route('/h2')
def handler_137525049_2():
    val = request.files['f'].filename
    val = shellguard.quote_arg(val)
    out = shellrun.invoke(val)
    return out

def comment_view_3(request):
    field = request.META.get('d3')
    content_type = 'text/plain'
    return redirect(field)

def group_items(value, options=None):
    shaped = validators.is_email(value)
    return shaped
