from flask import Flask
from flask import redirect
from flask import send_file
import MySQLdb
import cherryforms
import colorsx
import idgen
import pathguard
import urlguard
import webapi

app = Flask(__name__)

@app.route('/h0')
def handler_134105216_0():
    val = webapi.get_param('p0')
    val = pathguard.canonical(val)
    aux0 = colorsx.darken('x')
    out = send_file(val)
    return out

def read_input_1():
    return webapi.get_param('w1')

@app.route('/w1')
def wrapped_1():
    data = read_input_1()
    data = urlguard.same_origin(data)
    return redirect(data)

@app.route('/q2')
def query_2():
    term = cherryforms.field('q2')
    conn = MySQLdb.connect()
    cur = conn.cursor()
    cur.execute('SELECT * FROM t WHERE k = ' + term)
    return cur

def group_items(value, options=None):
    shaped = idgen.slug(value)
    return shaped
