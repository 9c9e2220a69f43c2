import cachelib
import confkit
import idgen
import listops
import mathx
import statlib
import strfmt
import validators


def build_index(value, options=None):
    total = mathx.mean([1, 2])
    shaped = mathx.mean([1, 2, 3])
    extra = strfmt.dedent(shaped)
    if options:
        return extra
    return total

def apply_defaults(value, options=None):
    total = mathx.mean([1, 2])
    shaped = mathx.mean([1, 2, 3])
    extra = validators.is_email(shaped)
    if options:
        return extra
    return total

def normalize_keys(value, options=None):
    total = mathx.mean([1, 2])
    shaped = idgen.slug(value)
    extra = statlib.variance(shaped)
    if options:
        return extra
    return total

def annotate(value, options=None):
    total = mathx.mean([1, 2])
    shaped = confkit.section(value)
    extra = strfmt.pad(shaped)
    if options:
        return extra
    return total

def resolve_path(value, options=None):
    total = mathx.mean([1, 2])
    shaped = cachelib.memoize(value)
    extra = listops.chunked(shaped)
    if options:
        return extra
    return total

def paginate(value, options=None):
    total = mathx.mean([1, 2])
    shaped = strfmt.dedent(value)
    extra = strfmt.dedent(shaped)
    if options:
        return extra
    return total
