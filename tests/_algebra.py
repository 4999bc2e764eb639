"""Small exact helpers that only the tests need: products of polynomials
and matrices, in the ascending-list and list-of-rows forms of `qes.linalg`."""

from fractions import Fraction

from qes.linalg import mat_mul


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0]) for row in a]


def mat_commutator(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(mat_mul(a, b), mat_mul(b, a))]
