from flask import request
import os


def handler():
    os.system(f"echo {request.args.get('q')}")
