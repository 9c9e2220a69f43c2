from flask import redirect
from flask import request

def bounce():
    target = request.cookies.get('next')
    return redirect(target)

def broken(:
    pass
