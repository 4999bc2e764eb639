"""Small exact helpers that only the tests need: products of polynomials
and matrices, in the ascending-list and list-of-rows forms of `qes.linalg`,
and the plain reference computations that faster solver paths must match."""

from fractions import Fraction

from qes.diffop import DiffOp, conjugate_by_gauge
from qes.families import BasisElement, apply_op, substitute_pair, substituted_context
from qes.laurent import LaurentPoly
from qes.linalg import FieldExtension, mat_mul
from qes.scalars import QuadScalar


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


def dense_rref(matrix, pivot_columns=None):
    """Gauss-Jordan elimination over whole rows: the reference for `linalg.rref`."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0]) if pivot_columns is None else pivot_columns
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def recovery_in_z(root, config, operator):
    """psi_1's pair recovered wholly in the z coordinate, the solver's reference.

    Every basis pair is substituted to z first, the null vector is lifted to
    Q(sqrt2, sqrt3)[lambda]/(p), and the gauged recovery operator is applied
    there.
    """
    spec = config.family()
    ext_q = FieldExtension(root.minimal_poly, embed=QuadScalar, name="lam")
    lifted = [
        ext_q.element([QuadScalar(c) for c in entry.coeffs])
        for entry in root.null_vector_exact
    ]
    new_ctx = substituted_context(spec, config.stretch)
    combined = None
    for n, coefficient in enumerate(lifted):
        pair_z = substitute_pair(
            BasisElement(spec, n).to_pair(), config.stretch, new_ctx)
        term = pair_z.scaled(coefficient)
        combined = term if combined is None else combined + term
    recovery = conjugate_by_gauge(
        operator.a_hat - operator.c_hat
        + DiffOp({0: LaurentPoly.const(config.energy_ratio)}),
        config.gauge)
    return apply_op(recovery, combined)
