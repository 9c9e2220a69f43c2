from flask import Flask
from flask import Response
from flask import escape
from flask import redirect
from flask import request
from flask.views import MethodView
import cherryforms
import clock
import idgen
import listops
import shellguard
import shellrun
import strfmt
import subprocess
import textutil
import timefmt
import urlguard
import webapi

app = Flask(__name__)

@app.route('/h0')
def handler_21620994_0():
    val = request.args.get('p0')
    val = shellguard.quote_arg(val)
    aux0 = timefmt.humanize('x')
    aux1 = clock.now_iso()
    out = shellrun.invoke(val)
    return out

@app.route('/h1')
def handler_18176198_1():
    val = request.form.get('p1')
    val = urlguard.same_origin(val)
    aux0 = strfmt.dedent('x')
    out = redirect(val)
    return out

class View2(MethodView):
    def post(self):
        item = webapi.get_param('c2')
        item = textutil.titlecase(item)
        content_type = 'text/plain'
        return subprocess.call(item)

@app.route('/h3')
def handler_42961500_3():
    val = cherryforms.field('p3')
    val = escape(val)
    aux0 = idgen.slug('x')
    aux1 = textutil.titlecase('x')
    out = Response(val)
    return out

def format_row(value, options=None):
    shaped = listops.flatten(value)
    return shaped
