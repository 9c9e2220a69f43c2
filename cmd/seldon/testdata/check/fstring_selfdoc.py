from flask import request
import os


def handler():
    x = request.args.get("q")
    os.system(f"echo {x=}")
    os.system(f"echo {x = }")
    os.system(f"echo {x=!r}")
