"""Small exact helpers that only the tests need: products of polynomials
and matrices, in the ascending-list and list-of-rows forms of `qes.linalg`,
the plain reference computations that faster solver paths must match (among
them the dense form of a matrix given by its three diagonals, the dense
Faddeev-LeVerrier characteristic polynomial, an operator applied to a
Laurent polynomial term by term, and the basis rank, solves and closure fit
on `dense_rref`, which share no elimination with `qes`), and the dense numpy
Fock blocks that the chain oracle must agree with."""

import math
from fractions import Fraction

import numpy as np

from qes import families, structure
from qes.diffop import DiffOp, conjugate_by_gauge
from qes.families import apply_op, family_operators, substitute_pair, substituted_context
from qes.laurent import LaurentPoly
from qes.linalg import LambdaPoly
from qes.rabi import COS_2T, TWO_G, assemble_operator, fock_truncation_check
from qes.scalars import QuadScalar, reciprocal


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


def laurent_at(poly, point):
    """The Laurent polynomial's value at a nonzero point."""
    total = 0
    for exp, coeff in poly.coeffs.items():
        total = total + coeff * (point ** exp if exp >= 0 else reciprocal(point) ** -exp)
    return total


def apply_to(op, f):
    """op applied to the Laurent polynomial f, one derivative order at a time:
    the reference for operator composition."""
    result = LaurentPoly.zero()
    for order, poly in op.coeffs.items():
        df = f
        for _ in range(order):
            df = df.derivative()
        result = result + poly * df
    return result


def mat_identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(1, len(b))), a[i][0] * b[0][j])
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_tridiagonal(lower, main, upper):
    """The square matrix with the given three diagonals, zeros elsewhere:
    lower[k] sits at (k+1, k) and upper[k] at (k, k+1)."""
    zero = next((x - x for x in main), Fraction(0))
    rows = [[zero] * len(main) for _ in main]
    for k, entry in enumerate(main):
        rows[k][k] = entry
    for k, (below, above) in enumerate(zip(lower, upper)):
        rows[k + 1][k], rows[k][k + 1] = below, above
    return rows


def faddeev_leverrier(matrix):
    """det(xI - A) for any square A, ascending: the dense reference for `charpoly`."""
    n = len(matrix)
    one = next((x / x for row in matrix for x in row if x != 0), Fraction(1))
    zero = one - one
    coeffs = [zero] * n + [one]
    m = mat_identity(n, one, zero)
    for k in range(1, n + 1):
        m = mat_mul(matrix, m)
        trace = sum((m[i][i] for i in range(1, n)), m[0][0])
        ck = -trace / k
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] = m[i][i] + ck
    return coeffs


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0]) for row in a]


def mat_commutator(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(mat_mul(a, b), mat_mul(b, a))]


def dense_rref(matrix):
    """Gauss-Jordan elimination over whole rows: the reference for `linalg.rref`."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
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


def dense_rank(matrix):
    return len(dense_rref(matrix)[1])


def dense_solve(matrix, rhs):
    """One solution of A x = b, free coordinates zero, or None if inconsistent."""
    ncols = len(matrix[0])
    red, pivots = dense_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(red, pivots):
        solution[col] = row[ncols]
    return solution


def coefficient_matrix(pairs):
    """One row per (component, exponent) that occurs in `pairs`, one column per pair."""
    rows = [("r", e) for e in sorted({e for p in pairs for e in p.r.coeffs})]
    rows += [("s", e) for e in sorted({e for p in pairs for e in p.s.coeffs})]
    return [[getattr(p, comp).coeff(e) for p in pairs] for comp, e in rows]


def independence_rank(spec):
    """Column rank of the basis coefficient matrix (should equal the dimension)."""
    return dense_rank(coefficient_matrix(families._basis_pairs(spec)))


def structure_operator(spec):
    """The bracket S = [J^-, J^+] at one point, checked to have order at most 3."""
    return structure._bracket(*family_operators(spec))


def solve_constants_at(spec):
    """Fit the closure coefficients at one parameter point by `dense_rref`.

    Raises StructureError if the candidate terms are dependent there or the
    relation does not close in their span.  The concrete-point cross-check
    on `structure.derive_constants`, which solves the relations symbolically.
    """
    solved = {}
    for side in structure._relation_sides(*family_operators(spec)):
        ops = [op for _, op in side["terms"]]
        cells = sorted(set().union(*map(structure._cells, ops + [side["lhs"]])))
        matrix = [[op.coeff(order).coeff(exp) for op in ops] for order, exp in cells]
        solution = dense_solve(matrix, [side["lhs"].coeff(k).coeff(j) for k, j in cells])
        if dense_rank(matrix) != len(ops) or solution is None:
            raise structure.StructureError(
                "candidate terms are dependent here, or the relation does not close")
        solved.update(zip((name for name, _ in side["terms"]), solution))
    return solved


def recovery_in_z(result):
    """psi_1's pair recovered wholly in the z coordinate, the solver's reference.

    Every basis pair is substituted to z first, the null vector is lifted to
    Q(sqrt2, sqrt3)[lambda], and the gauged recovery operator is applied
    there.
    """
    config = result.config
    spec = config.family()
    lifted = [LambdaPoly([QuadScalar(c) for c in entry.coeffs])
              for entry in result.null_vector]
    new_ctx = substituted_context(spec, config.stretch)
    combined = None
    for pair, coefficient in zip(families._basis_pairs(spec), lifted):
        term = substitute_pair(pair, config.stretch, new_ctx).scaled(coefficient)
        combined = term if combined is None else combined + term
    a_hat, c_hat, _ = assemble_operator(TWO_G, COS_2T, config.sin_2t, config.energy_ratio)
    recovery = conjugate_by_gauge(
        a_hat - c_hat + DiffOp({0: LaurentPoly.const(config.energy_ratio)}), config.gauge)
    return apply_op(recovery, combined)


def fock_matrix(omega0, two_g, cutoff, parity):
    """Dense float Hamiltonian block for one photon-parity sector.

    Photon numbers run over parity, parity+2, ... below the cutoff, each with
    both spin states, ordered (n, up), (n, down).  The squared ladder coupling
    moves two photons and flips the spin, so the parity sectors decouple.
    """
    numbers = list(range(parity, cutoff, 2))
    size = 2 * len(numbers)
    matrix = np.zeros((size, size))
    for i, n in enumerate(numbers):
        matrix[2 * i, 2 * i] = n + omega0 / 2.0
        matrix[2 * i + 1, 2 * i + 1] = n - omega0 / 2.0
        if i + 1 < len(numbers):
            element = two_g * math.sqrt((n + 1) * (n + 2))
            matrix[2 * i, 2 * (i + 1) + 1] = element
            matrix[2 * (i + 1) + 1, 2 * i] = element
            matrix[2 * i + 1, 2 * (i + 1)] = element
            matrix[2 * (i + 1), 2 * i + 1] = element
    return matrix


def fock_chains(omega0, two_g, cutoff, parity):
    """The `fock_matrix` block permuted into its two tridiagonal chains, (2, L, L).

    The coupling links only (n, up)-(n+2, down) and (n, down)-(n+2, up), so one
    chain starts at (parity, up), one at (parity, down); entries match exactly.
    """
    numbers = np.arange(parity, cutoff, 2)
    length = len(numbers)
    half = np.where(np.arange(length) % 2 == 0, omega0 / 2.0, -omega0 / 2.0)
    coupling = two_g * np.sqrt((numbers[:-1] + 1) * (numbers[:-1] + 2))
    chains = np.zeros((2, length, length))
    flat = chains.reshape(2, -1)  # a view; the diagonals step by length + 1
    flat[:, ::length + 1] = numbers + np.stack((half, -half))
    flat[:, 1::length + 1] = flat[:, length::length + 1] = coupling
    return chains


def truncation_convergence(config, root, cutoffs=(100, 200, 400)):
    """Fock-check gaps at increasing cutoffs (to zero at a lock, to a positive limit elsewhere)."""
    return [fock_truncation_check(config, root, cutoff) for cutoff in cutoffs]
