#!/usr/bin/env python3
"""Records CPython's parse of operator expressions as precedence.golden.

Each line is an expression, a tab, and the tree CPython's ast module
builds for it, printed as an s-expression with each node's 0-based byte
column after '@':

    a + b * c	(+@0 a@0 (*@4 b@4 c@8))

TestPrecedenceMatchesCPython (precedence_test.go) prints pyparse's tree
for every expression the same way and needs no Python. Expressions
CPython rejects are left out, so the file holds only what both parsers
must agree on. Regenerate with CPython 3.11 from this directory:

    python3 precedence.py > precedence.golden
"""
import ast
import itertools

BINARY = ['|', '^', '&', '<<', '>>', '+', '-', '*', '/', '//', '%', '@', '**']
COMPARE = ['<', '>', '<=', '>=', '==', '!=', 'in', 'not in', 'is', 'is not']
BOOLEAN = ['and', 'or']
OPS = BINARY + COMPARE + BOOLEAN
PREFIX = ['not', '+', '-', '~', 'await']

SPELLING = {
    ast.BitOr: '|', ast.BitXor: '^', ast.BitAnd: '&', ast.LShift: '<<',
    ast.RShift: '>>', ast.Add: '+', ast.Sub: '-', ast.Mult: '*',
    ast.Div: '/', ast.FloorDiv: '//', ast.Mod: '%', ast.MatMult: '@',
    ast.Pow: '**', ast.Lt: '<', ast.Gt: '>', ast.LtE: '<=', ast.GtE: '>=',
    ast.Eq: '==', ast.NotEq: '!=', ast.In: 'in', ast.NotIn: 'not in',
    ast.Is: 'is', ast.IsNot: 'is not', ast.And: 'and', ast.Or: 'or',
    ast.Not: 'not', ast.UAdd: '+', ast.USub: '-', ast.Invert: '~',
}


def expressions():
    for op1, op2 in itertools.product(OPS, OPS):
        yield f'a {op1} b {op2} c'
    for pre in PREFIX:
        for op in OPS:
            yield f'{pre} a {op} b'
            yield f'a {op} {pre} b'
            yield f'{pre} a {op} {pre} b'
    for pre1, pre2 in itertools.product(PREFIX, PREFIX):
        yield f'{pre1} {pre2} a'
        yield f'{pre1} {pre2} a ** b'
    for op in OPS:
        yield f'a {op} b if c else d'
        yield f'a if b {op} c else d'
        yield f'a if b else c {op} d'
        yield f'a if b else c if d {op} e else f'
        yield f'lambda: a {op} b if c else d'
        yield f'(y := a {op} b)'
        yield f'(y := a if b {op} c else d)'
        yield f'x = (y := a {op} b)'
    yield 'a if b else c if d else e'
    yield 'not a if b else c'
    yield '-a if not b else ~c'


def dump(n):
    at = f'@{n.col_offset}'
    match n:
        case ast.Name():
            return n.id + at
        case ast.BinOp() | ast.UnaryOp():
            args = [n.left, n.right] if isinstance(n, ast.BinOp) else [n.operand]
            return f'({SPELLING[type(n.op)]}{at} {" ".join(map(dump, args))})'
        case ast.BoolOp():
            return f'({SPELLING[type(n.op)]}{at} {" ".join(map(dump, n.values))})'
        case ast.Compare():
            rest = ' '.join(f'{SPELLING[type(op)]} {dump(c)}' for op, c in zip(n.ops, n.comparators))
            return f'(cmp{at} {dump(n.left)} {rest})'
        case ast.IfExp():
            return f'(if{at} {dump(n.test)} {dump(n.body)} {dump(n.orelse)})'
        case ast.NamedExpr():
            return f'(:={at} {dump(n.target)} {dump(n.value)})'
        case ast.Await():
            return f'(await{at} {dump(n.value)})'
        case ast.Lambda():
            return f'(lambda{at} {dump(n.body)})'
    raise ValueError(f'no spelling for {ast.dump(n)}')


def statement(src):
    """The one expression src holds, or the value it assigns."""
    stmt = ast.parse(src).body[0]
    return stmt.value


def main():
    for src in dict.fromkeys(expressions()):
        try:
            tree = statement(src)
        except SyntaxError:
            continue
        print(f'{src}\t{dump(tree)}')


if __name__ == '__main__':
    main()
