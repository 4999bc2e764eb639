"""Isolated exact eigenstates of the two-photon Rabi Hamiltonian.

The model couples a two-level system to one bosonic mode through the
squared ladder operators,

    H = (w0/2) sigma_z + w b'b + g (b^2 + b'^2)(sigma_+ + sigma_-),

with sigma_+- = sigma_x +- i sigma_y.  In the holomorphic representation
(b -> d/dz, b' -> z) a rotation by the fixed angle t0 decouples one spinor
component; the survivor psi_2 obeys a fourth-order equation L psi_2 = 0.
At the parameter lock g/w = 1/(2*sqrt6), E/w = (N+1)/sqrt3 - 1/2, the
operator L conjugated by a Gaussian gauge factor and pulled through
x = -+ xi z^2 lands inside the family-3 ladder span, so the spectral
condition collapses to det(M0 + lambda*I) = 0 on an (N+1)-dimensional
space, with lambda = 3 w0^2 / (4 w^2).  Everything up to the final root
isolation is exact over Q(sqrt2, sqrt3).

Frequencies are reported as 2w/w0 = sqrt(3/lambda).  All operator algebra
uses w = 1 units, so E stands for E/w and w0 for w0/w throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .diffop import (DiffOp, GaugeFactor, commutator, conjugate_by_gauge,
                     pull_back_square, substitute_square)
from .families import (FamilySpec, PairElement, _add_product, _basis_pairs, action_formula,
                       apply_op, family_operators)
from .laurent import LaurentPoly
from .linalg import charpoly, minimal_factors, poly_divmod, poly_float, poly_mul, poly_trim
from .scalars import SQRT2, SQRT3, SQRT6, QuadScalar, format_scalar


class RabiError(ValueError):
    """Invalid configuration or an inconsistency in the assembled solver."""


# Exact model constants (w = 1 units).
ETA = SQRT2 / 8
XI = 3 * SQRT2 / 8
TWO_G = SQRT6 / 6
COS_2T = 5 * SQRT3 / 9
SIN_2T = SQRT6 / 9

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabiConfig:
    """One solvable lock: subspace size N and solution type I or II.

    Everything else is determined: the rotation angle, the coupling, the
    energy, the gauge factor, the coordinate stretch, and the coefficients
    of the ladder combination.
    """

    n_max: int
    sol_type: str

    def __post_init__(self) -> None:
        if self.sol_type not in ("I", "II"):
            raise RabiError(f"solution type must be 'I' or 'II', got {self.sol_type!r}")
        if self.n_max < 0:
            raise RabiError("subspace size N must be non-negative")
        if COS_2T * COS_2T + SIN_2T * SIN_2T != QuadScalar(1):
            raise RabiError("stored angle pair is not on the unit circle")
        sin_4t = 2 * SIN_2T * COS_2T
        cos_4t = COS_2T * COS_2T - SIN_2T * SIN_2T
        if 23 * sin_4t != 10 * SQRT2 * cos_4t:
            raise RabiError("stored angle pair has the wrong quadruple angle")

    @property
    def s(self) -> Fraction:
        return Fraction(1, 2) if self.sol_type == "I" else Fraction(3, 2)

    @property
    def alpha(self) -> Fraction:
        if self.sol_type == "I":
            return Fraction(-1, 4) - Fraction(self.n_max, 2)
        return Fraction(5, 4) - Fraction(self.n_max, 2)

    @property
    def dimension(self) -> int:
        return self.n_max + 1

    @property
    def energy_ratio(self) -> QuadScalar:
        """E/w = (N+1)/sqrt3 - 1/2, exact."""
        return (self.n_max + 1) * SQRT3 / 3 - _HALF

    @property
    def sin_2t(self) -> QuadScalar:
        """sin(2t) at the working angle: +sin(2 t0) for type I, - for II."""
        return SIN_2T if self.sol_type == "I" else -SIN_2T

    @property
    def gauge(self) -> GaugeFactor:
        """exp(eta z^2) for type I, z*exp(-eta z^2) for type II."""
        if self.sol_type == "I":
            return GaugeFactor(0, ETA)
        return GaugeFactor(1, -ETA)

    @property
    def stretch(self) -> QuadScalar:
        """The coordinate map is x = stretch * z^2."""
        return -XI if self.sol_type == "I" else XI

    @property
    def combination(self) -> Tuple[int, int, int, int, Fraction]:
        """(k0, k1, k2, k3, k4) of k0 (J^-)^2 + k1 [J^+, J^-] + k2 J^+ + k3 J^- + k4.

        k3 = a4 is +4 for type I and -8 for type II, and k4 = C - lambda is
        the constant part of the affine map lambda -> C.
        """
        n = Fraction(self.n_max)
        if self.sol_type == "I":
            return 2, 1, -7, 4, -n * n - n / 4 + Fraction(1, 8)
        return 2, 1, -7, -8, -n * n + 13 * n / 4 + Fraction(49, 8)

    def family(self) -> FamilySpec:
        return FamilySpec(3, self.n_max, s=self.s, alpha=self.alpha)


# ---------------------------------------------------------------------------
# the fourth-order operator for the surviving component
# ---------------------------------------------------------------------------

def assemble_operator(two_g, cos_2t, sin_2t, energy) -> Tuple[DiffOp, DiffOp, DiffOp]:
    """Build a_hat, c_hat and the lambda-free part of L from raw constants.

    Exposed separately from the locked configuration so degenerate limits
    (zero coupling, zero angle) can be assembled for control checks.
    """
    a_hat = DiffOp({2: LaurentPoly.const(two_g), 0: LaurentPoly.x(2, two_g)})
    c_hat = DiffOp({
        2: LaurentPoly.const(-_HALF * sin_2t),
        1: LaurentPoly.x(1, cos_2t),
        0: LaurentPoly({2: _HALF * sin_2t, 0: _HALF * (cos_2t - 1)}),
    })
    base = ((a_hat + c_hat) * (a_hat - c_hat)
            + (2 * energy) * c_hat
            + (-(energy * energy)) * DiffOp.identity())
    return a_hat, c_hat, base


def build_L(config: RabiConfig) -> DiffOp:
    """The lambda-free part of the surviving-component operator at the lock.

    The full operator is L = build_L(config) + (lambda/3) * Id: the only
    w0-dependence of L is the additive constant w0^2/4 = lambda/3.
    """
    _, _, base = assemble_operator(TWO_G, COS_2T, config.sin_2t, config.energy_ratio)
    if base.order() != 4:
        raise RabiError(f"expected a fourth-order operator, got order {base.order()}")
    return base


def ladder_combination(config: RabiConfig) -> DiffOp:
    """The family-3 combination whose kernel carries the exact states.

    In the ladder coordinate x this is k0 (J^-)^2 + k1 [J^+, J^-] + k2 J^+
    + k3 J^- + k4 with the coefficients of `RabiConfig.combination`:
    2 (J^-)^2 + [J^+, J^-] - 7 J^+ + a4 J^- + (C - lambda).
    """
    k0, k1, k2, k3, k4 = config.combination
    jp, jm = family_operators(config.family())
    return (k0 * (jm * jm) + k1 * commutator(jp, jm) + k2 * jp + k3 * jm
            + DiffOp({0: LaurentPoly.const(k4)}))


def gauge_identity_residual(config: RabiConfig,
                            gauge: Optional[GaugeFactor] = None) -> DiffOp:
    """Difference of the two sides of the subspace-collapse identity.

    The identity states: conjugating L by the gauge factor equals one third
    of the ladder combination pulled through x = stretch * z^2.  Both sides
    carry the same trivial lambda-dependence, (lambda/3) * Id, which cancels
    in the difference; a zero residual therefore proves the identity for
    every lambda at once.  Passing an explicit gauge overrides the
    configuration's own (used as a negative control: any other gauge must
    leave a nonzero residual).
    """
    chosen = gauge if gauge is not None else config.gauge
    lhs = conjugate_by_gauge(build_L(config), chosen)
    rhs = Fraction(1, 3) * substitute_square(ladder_combination(config), config.stretch)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the spectral condition
# ---------------------------------------------------------------------------

Diagonals = Tuple[List[Fraction], List[Fraction], List[Fraction]]


def subspace_matrix(config: RabiConfig) -> Diagonals:
    """M0, the ladder combination on the invariant subspace, as its three
    diagonals (lower, main, upper): lower[k] = M0[k+1][k], upper[k] = M0[k][k+1].

    Representing operators on the basis is a homomorphism, so with
    D = rep(J^-) = diag(n + alpha) and the tridiagonal A = rep(J^+), both
    read from the closed-form `action_formula` (division-free for family 3),
    M0 = k0 D^2 + k1 (A D - D A) + k2 A + k3 D + k4 I (`RabiConfig.combination`):
    main diagonal (k0 d + k3) d + k4, and a (k1 (d_j - d_i) + k2) for A's
    entry a at (i, j).  The generic
    `matrix_rep(ladder_combination(config), config.family())` is the tests'
    reference for it.  The continuant and the null-vector recurrence need M0
    unreduced tridiagonal, so a J^+ coefficient outside rows j-1..j+1 of
    column j, or a zero off-diagonal entry, is a RabiError.
    """
    k0, k1, k2, k3, k4 = config.combination
    spec = config.family()
    size = config.dimension
    down = [action_formula(spec, False, n)[n] for n in range(size)]
    main = [(k0 * d + k3) * d + k4 for d in down]
    # M0[i][j] is bands[i - j][min(i, j)].
    bands = {1: [Fraction(0)] * (size - 1), 0: main, -1: [Fraction(0)] * (size - 1)}
    for j in range(size):
        for i, a in action_formula(spec, True, j).items():
            if i - j not in bands:
                raise RabiError(f"M0 is not tridiagonal: J^+ maps f_{j} onto f_{i}")
            bands[i - j][min(i, j)] += a * (k1 * (down[j] - down[i]) + k2)
    lower, upper = bands[1], bands[-1]
    if 0 in lower or 0 in upper:
        raise RabiError("M0 is not unreduced tridiagonal: an off-diagonal entry is 0")
    return lower, main, upper


@dataclass
class FrequencyRoot:
    """What one positive-lambda root of det(M0 + lambda*I) = 0 adds to its
    solve: the root's isolating interval and the floats at it.  Its defining
    polynomial and exact null vector are the solve's."""

    ratio: float                      # 2w/w0 = sqrt(3/lambda); w0 = 2 / ratio
    lambda_float: float
    lambda_interval: Tuple[Fraction, Fraction]
    null_vector_floats: List[float]   # the shared null vector at this lambda


@dataclass
class SpectralResult:
    """Exact spectral data for one configuration.

    Every root is a simple root of `lambda_charpoly` (the solver refuses a
    repeated one), which is therefore each root's defining polynomial; a
    sympy test proves it irreducible, hence minimal, for N <= 20.  The null
    vector's entries are polynomials in lambda, each an ascending list of
    rationals, that annihilate M0 + lambda*I at every root of it.
    """

    config: RabiConfig
    lambda_charpoly: List[Fraction]      # det(lambda*I + M0), ascending, monic, squarefree
    roots: List[FrequencyRoot]
    null_vector: List[List[Fraction]]    # entry k of degree N - k, last entry [1]

    def ratios(self) -> List[float]:
        return [root.ratio for root in self.roots]


def bargmann_growth(config: RabiConfig) -> Dict[str, object]:
    """Gaussian growth class of the assembled eigenfunctions.

    The gauge factor contributes exp(+-eta z^2) and the confluent kernels,
    evaluated at x = stretch * z^2, grow at most like exp(|stretch| z^2)
    along the directions where the argument has positive real part (they
    are power-bounded along the opposite directions).  The worst direction
    therefore carries a Gaussian of coefficient xi - eta = sqrt2/4 for both
    types; entire functions of Gaussian type strictly below 1/2 lie inside
    the Bargmann space, so these states are normalizable.
    """
    coefficient = XI - ETA
    value = float(coefficient)
    return {
        "gaussian_type": format_scalar(coefficient),
        "gaussian_type_float": value,
        "normalizable": value < 0.5,
    }


def solve_frequencies(config: RabiConfig) -> SpectralResult:
    """All positive-lambda roots of det(M0 + lambda*I) = 0, exactly isolated.

    `charpoly` runs the continuant recurrence on M0's diagonals, negated,
    and `minimal_factors` proves the result squarefree, isolates its
    positive roots once and refines each to a relative width of 2^-50.  A
    repeated root is refused, not given one shared multiplicity, so every
    root has the characteristic polynomial itself as its defining
    polynomial.  The null vector comes
    from the three-term recurrence over Q[lambda], which divides only by
    rationals; it is built and certified once and every root evaluates the
    same polynomials at its own lambda.
    """
    diagonals = subspace_matrix(config)
    lower, main, upper = diagonals
    lam_poly = charpoly([-d for d in main], [b * a for b, a in zip(lower, upper)])
    try:
        intervals = minimal_factors(lam_poly)
    except ValueError as exc:
        raise RabiError(f"det(lambda*I + M0): {exc}") from exc
    vector = _extension_nullspace(diagonals, lam_poly)

    roots: List[FrequencyRoot] = []
    for lo, hi in intervals:
        lam_float = float((lo + hi) / 2)
        roots.append(FrequencyRoot(
            ratio=math.sqrt(3.0 / lam_float),
            lambda_float=lam_float,
            lambda_interval=(lo, hi),
            null_vector_floats=[poly_float(entry, lam_float) for entry in vector],
        ))

    roots.sort(key=lambda root: root.ratio)
    return SpectralResult(config=config, lambda_charpoly=lam_poly, roots=roots,
                          null_vector=vector)


def _extension_nullspace(diagonals: Diagonals,
                         modulus: List[Fraction]) -> List[List[Fraction]]:
    """Null vector of M0 + lambda*I at every root of `modulus`, over Q[lambda].

    Each entry is an ascending, trimmed list of rationals.  M0 comes as the
    diagonals of an unreduced tridiagonal matrix, which `subspace_matrix`
    checks, so the null space has dimension 1 at every eigenvalue.  With
    v_N = [1], rows N..1 give v_{N-1}..v_0 by the three-term recurrence,
    dividing only by rational subdiagonal entries, so v_k has degree N - k
    and needs no reduction.  Re-multiplying every row certifies the vector:
    rows 1..N must trim to empty, and row 0, a rational multiple of
    det(lambda*I + M0), must leave no remainder by `modulus`; the continuant
    computes that determinant apart, so the check has teeth.
    """
    lower, main, upper = diagonals
    size = len(main)
    vector: List[List[Fraction]] = [[] for _ in range(size - 1)] + [[Fraction(1)]]

    def image(k: int) -> List[Fraction]:
        # Row k of (M0 + lambda*I) v: lambda v_k plus at most three multiples.
        total = [Fraction(0)] + vector[k]
        terms = [(main[k], vector[k])]
        if k > 0:
            terms.append((lower[k - 1], vector[k - 1]))
        if k + 1 < size:
            terms.append((upper[k], vector[k + 1]))
        for c, entry in terms:
            for i, x in enumerate(entry):
                total[i] += c * x
        return poly_trim(total)

    for k in range(size - 1, 0, -1):
        factor = Fraction(-1) / lower[k - 1]
        vector[k - 1] = [c * factor for c in image(k)]
    if any(image(k) for k in range(1, size)) or poly_divmod(image(0), modulus)[1]:
        raise RabiError("the recurrence null vector fails re-multiplication")
    return vector


# ---------------------------------------------------------------------------
# eigenfunction assembly
# ---------------------------------------------------------------------------

def _quadratic_minimal(rational: Fraction, coeff: Fraction, radicand: int) -> List[Fraction]:
    """Monic minimal polynomial of rational + coeff*sqrt(radicand)."""
    return [rational * rational - coeff * coeff * radicand, -2 * rational, Fraction(1)]


# Closed-form targets quoted alongside the reference tabulation, kept as
# (rational part, surd coefficient, radicand) triples so membership can be
# decided exactly through minimal polynomials.
CLOSED_FORM_RATIOS = {
    "I": ((Fraction(57, 20), Fraction(7, 15), 42),
          (Fraction(5, 3), Fraction(1, 30), 42),
          (Fraction(1), Fraction(0), 42)),
    "II": ((Fraction(5, 4), Fraction(1, 7), 10),
           (Fraction(31, 21), Fraction(1, 42), 10),
           (Fraction(1), Fraction(0), 10)),
}
CLOSED_FORM_LAMBDA = {
    "I": (Fraction(11, 4), Fraction(1), 42),
    "II": (Fraction(-5, 4), Fraction(1), 10),
}


def closed_form_report(result: SpectralResult) -> Dict[str, object]:
    """Membership of the quoted N=2 closed-form lambda in the computed set.

    The report records the verdict and both floats; it does not try to
    reconcile a mismatch.
    """
    config = result.config
    rational, coeff, radicand = CLOSED_FORM_LAMBDA[config.sol_type]
    target_poly = _quadratic_minimal(rational, coeff, radicand)
    target_lambda = float(rational) + float(coeff) * math.sqrt(radicand)
    # Each target is a surd with a nonzero coefficient on the root of a
    # non-square, so its minimal polynomial is an irreducible quadratic:
    # it shares a root with the characteristic polynomial exactly when it
    # divides it.
    member = not poly_divmod(result.lambda_charpoly, target_poly)[1]
    report: Dict[str, object] = {
        "applies_to": "N=2",
        "target_lambda_float": target_lambda,
        "target_lambda_minimal_poly": [str(c) for c in target_poly],
        "member_of_root_set": member,
        "computed_lambdas": [root.lambda_float for root in result.roots],
    }
    if target_lambda > 0:
        report["target_ratio_float"] = math.sqrt(3.0 / target_lambda)
    return report


def assemble_eigenfunctions(result: SpectralResult) -> Tuple[Dict[str, object],
                                                             List[Dict[str, object]]]:
    """Explicit two-component states for every root in the result.

    psi_2 is the gauge factor times the null-vector combination of the
    confluent kernels evaluated at x = stretch * z^2; psi_1 is recovered
    from it by psi_1 = (2/w0) (E + a_hat - c_hat) psi_2, computed exactly
    in the fundamental-pair representation by the gauged recovery operator
    pulled back to x, then written in z (the global prefactor 2/w0
    equals the reported frequency ratio and is attached as a float).  For
    N=2 the coefficient ratios are additionally tested, exactly, against
    the quoted closed-form surds; the verdict is reported, not enforced.

    Every root shares the defining polynomial and hence the symbolic null
    vector, so the exact data is computed once, beside one entry of floats
    per root.  This only formats it: each polynomial in lambda is its
    ascending coefficient list of strings, and psi_1's F and F'
    coefficients map each z exponent to one.  Without roots both parts are
    empty.
    """
    config = result.config
    if not result.roots:
        return {}, []
    psi1 = _apply_recovery_operator(result)
    shared: Dict[str, object] = {
        "gauge": _describe_gauge(config.gauge),
        "kernel_argument": f"({format_scalar(config.stretch)})*z^2",
        "kernel_parameters": [
            (str(config.alpha + n), str(config.s)) for n in range(config.dimension)
        ],
        "null_vector": [_coefficient_list(entry) for entry in result.null_vector],
        "psi1": {name: {str(exp): _coefficient_list(coeffs) for exp, coeffs in part.items()}
                 for name, part in psi1.items()},
    }
    if config.n_max == 2:
        shared["closed_form_ratio_check"] = _closed_form_ratio_checks(result)
    states: List[Dict[str, object]] = []
    for root in result.roots:
        entry: Dict[str, object] = {
            "ratio": root.ratio,
            "lambda": root.lambda_float,
            "exact": True,
            "coefficient_floats": root.null_vector_floats,
            "psi1_prefactor_float": root.ratio,
        }
        if config.n_max == 2:
            entry["closed_form_computed_floats"] = root.null_vector_floats
        states.append(entry)
    return shared, states


def _coefficient_list(coeffs: List) -> List[str]:
    return [format_scalar(c) for c in coeffs]


def _describe_gauge(gauge: GaugeFactor) -> str:
    power = "" if gauge.z_power == 0 else ("z*" if gauge.z_power == 1 else f"z^{gauge.z_power}*")
    return f"{power}exp(({format_scalar(gauge.gauss_coeff)})*z^2)"


def _closed_form_ratio_checks(result: SpectralResult) -> List[Dict[str, object]]:
    """The quoted N=2 coefficient ratios, each with its exact verdict.

    The null vector has last entry 1, so its entries are the ratios.  A
    target matches when its minimal polynomial, evaluated at the ratio entry,
    leaves no remainder by the shared polynomial, so the verdict holds at
    every root.
    """
    checks = []
    for index, (target, ratio_elem) in enumerate(
            zip(CLOSED_FORM_RATIOS[result.config.sol_type], result.null_vector)):
        rational, coeff, radicand = target
        poly = ([-rational, Fraction(1)] if coeff == 0
                else _quadratic_minimal(rational, coeff, radicand))
        value: List[Fraction] = []
        for c in reversed(poly):
            value = poly_mul(value, ratio_elem) or [Fraction(0)]
            value[0] += c
        checks.append({
            "index": index,
            "target_float": float(rational) + float(coeff) * math.sqrt(radicand),
            "matches_exactly": not poly_divmod(value, result.lambda_charpoly)[1],
        })
    return checks


def _gauged_recovery_operator(config: RabiConfig) -> DiffOp:
    """R_z = gauge^-1 (E + a_hat - c_hat) gauge, free of lambda.

    psi_1 = (2/w0) (E + a_hat - c_hat) psi_2, so R_z maps psi_2 / gauge to
    (w0/2) psi_1 / gauge.
    """
    energy = config.energy_ratio
    a_hat, c_hat, _ = assemble_operator(TWO_G, COS_2T, config.sin_2t, energy)
    return conjugate_by_gauge(a_hat - c_hat + DiffOp({0: LaurentPoly.const(energy)}),
                              config.gauge)


def _apply_recovery_operator(result: SpectralResult) -> Dict[str, Dict[int, List]]:
    """chi = (E + a_hat - c_hat) psi_2 divided by the gauge factor, in z.

    Conjugated by the gauge, the recovery operator R_z is even in z, so it
    pulls back to an operator R_x in the kernel coordinate x = stretch * z^2;
    substituting R_x back must give R_z exactly, which is checked.  R_x does
    not depend on lambda, so it acts on each lambda-power of
    psi_2 / gauge = sum_n v_n f_n apart: the slice sum_n v_n[i] f_n is a
    pair over Q, and R_x is applied to it once.  Substituting
    x = stretch * z^2 then maps x^e to stretch^e z^(2e).  The result maps
    "f" and "fprime", chi's coefficients of F and F', to {z exponent:
    ascending lambda coefficients}; psi_1 equals the gauge factor times chi
    times 2/w0.
    """
    config = result.config
    recovery_z = _gauged_recovery_operator(config)
    recovery_x = pull_back_square(recovery_z, config.stretch)
    if substitute_square(recovery_x, config.stretch) != recovery_z:
        raise RabiError("the recovery operator fails its pull-back to the kernel coordinate")
    pairs = _basis_pairs(config.family())
    by_power: Dict[str, Dict[int, Dict[int, object]]] = {"f": {}, "fprime": {}}
    for i in range(max(map(len, result.null_vector))):
        r: Dict[int, object] = {}
        s: Dict[int, object] = {}
        for entry, pair in zip(result.null_vector, pairs):
            if i < len(entry) and entry[i]:
                _add_product(r, entry[i], 0, pair.r)
                _add_product(s, entry[i], 0, pair.s)
        chi = apply_op(recovery_x, PairElement(LaurentPoly(r), LaurentPoly(s), pairs[0].ctx))
        for name, part in (("f", chi.r), ("fprime", chi.s)):
            for exp, c in part.coeffs.items():
                by_power[name].setdefault(exp, {})[i] = c
    exps = [exp for part in by_power.values() for exp in part] or [0]
    low = min(exps)
    powers = [config.stretch ** low]  # powers[k] = stretch^(low + k)
    for _ in range(low, max(exps)):
        powers.append(powers[-1] * config.stretch)
    return {name: {2 * exp: [column.get(i, 0) * powers[exp - low] for i in range(max(column) + 1)]
                   for exp, column in part.items()}
            for name, part in by_power.items()}


# ---------------------------------------------------------------------------
# independent truncated-Fock oracle
# ---------------------------------------------------------------------------

_EPS = 2.0 ** -52  # the spacing of floats just above 1


def fock_truncation_check(config: RabiConfig, root: float, cutoff: int = 300) -> float:
    """Smallest gap between the truncated spectrum and the locked energy.

    Takes the Hamiltonian at w = 1, g = 1/(2*sqrt6), w0 = 2/root in a Fock
    basis truncated at the cutoff, as the four tridiagonal chains of the two
    parity sectors, and returns min |E_i - ((N+1)/sqrt3 - 1/2)|.  This uses
    no operator identities at all, so it is an independent check that a
    claimed frequency really carries an eigenvalue at the locked energy.
    """
    if cutoff < 100:
        raise RabiError("cutoff must be at least 100")
    return _fock_gap(2.0 / float(root), float(TWO_G), cutoff, float(config.energy_ratio))


@functools.lru_cache(maxsize=64)
def _fock_gap(omega0: float, two_g: float, cutoff: int, energy: float) -> float:
    """Distance from the energy to the nearest eigenvalue of either parity block.

    Photon numbers run over parity, parity+2, ... below the cutoff, each with
    both spin states.  The squared ladder coupling moves two photons and flips
    the spin, so it links only (n, up)-(n+2, down) and (n, down)-(n+2, up):
    each parity block is two tridiagonal chains, one starting at (parity, up)
    and one at (parity, down).  Types I and II share their locks, so a table
    run asks for each gap twice.
    """
    gap = math.inf
    for parity in (0, 1):
        numbers = range(parity, cutoff, 2)
        couplings = [two_g * two_g * ((n + 1) * (n + 2)) for n in numbers[:-1]]
        for spin in (0.5, -0.5):
            diagonal = [n + omega0 * (spin if i % 2 == 0 else -spin)
                        for i, n in enumerate(numbers)]
            gap = _FockChain(diagonal, couplings).gap(energy, gap)
    return gap


class _FockChain:
    """A symmetric tridiagonal matrix T, probed through the LDL^T pivots of T - x.

    One O(L) pass of the pivot recurrence at x gives the Sturm count (the
    number of negative pivots is the number of eigenvalues below x; Barth,
    Martin & Wilkinson, Numer. Math. 9 (1967) 386), and with the pivots'
    first two derivatives also S1 = sum 1/(x - l_i) and S2 = sum 1/(x - l_i)^2.
    """

    def __init__(self, diagonal: List[float], couplings: List[float]):
        self.diagonal = diagonal
        self.couplings = couplings  # the squared off-diagonal entries
        # A pivot smaller than this becomes -pivmin, as in LAPACK's dstebz:
        # every quotient stays finite and a zero pivot counts as negative.
        self.pivmin = max(couplings) * 2.0 ** -1000

    def count(self, x: float) -> int:
        """Number of eigenvalues below x (one at x may count either way)."""
        pivmin = self.pivmin
        count = 0
        pivot = self.diagonal[0] - x
        for a, b2 in zip(self.diagonal[1:], self.couplings):
            if pivot < pivmin:
                count += 1
                if pivot > -pivmin:
                    pivot = -pivmin
            pivot = a - x - b2 / pivot
        return count + (pivot < pivmin)

    def probe(self, x: float) -> Tuple[int, float, float]:
        """The Sturm count at x with S1 and S2.

        With d_i the pivots, u_i = d_i'/d_i and v_i = d_i''/d_i, the
        determinant prod d_i gives S1 = sum u_i and S2 = sum u_i^2 - v_i.
        """
        pivmin = self.pivmin
        pivot = self.diagonal[0] - x
        if -pivmin < pivot < pivmin:
            pivot = -pivmin
        count = int(pivot < 0.0)
        u = -1.0 / pivot
        v = 0.0
        s1, s2 = u, u * u
        for a, b2 in zip(self.diagonal[1:], self.couplings):
            t = b2 / pivot
            pivot = a - x - t
            if -pivmin < pivot < pivmin:
                pivot = -pivmin
            if pivot < 0.0:
                count += 1
            v = t * (v - 2.0 * u * u) / pivot
            u = (t * u - 1.0) / pivot
            s1 += u
            s2 += u * u - v
        return count, s1, s2

    def eigenvalue(self, index: int, lo: float, count_lo: int, hi: float, count_hi: int,
                   x: float, s1: float, s2: float) -> float:
        """Eigenvalue `index` (from 0, ascending), given count_lo <= index < count_hi.

        Newton on p/p' (x <- x - S1/S2) converges quadratically to a simple
        root next to x, so a step is taken only while the Sturm count at x is
        index or index + 1; otherwise, or when the step leaves the bracket,
        the bracket is bisected.  Since S2 >= 1/(x - l)^2 for every
        eigenvalue l, none lies within 1/sqrt(S2) of x, and a shorter step
        is lengthened to that radius.  Every probe's count narrows the
        bracket, and a converged step is accepted once the bracket holds
        that eigenvalue alone.
        """
        adjacent = True
        while True:
            step = math.nan  # bisect where S2 has lost its meaning
            if s2 > 0.0:
                step, radius = s1 / s2, 1.0 / math.sqrt(s2)
                if abs(step) < radius:
                    step = math.copysign(radius, step)
            new = x - step
            tol = 2.0 * _EPS * max(1.0, abs(new))
            # Near a root the next error is about |S1 * step - 1| * step / 2.
            if lo <= new <= hi and (abs(step) <= tol or (
                    abs(step) <= 1e-6 * max(1.0, abs(new))
                    and abs(s1 * step - 1.0) * abs(step) <= 2.0 * tol)):
                if count_lo != index or count_hi != index + 1:
                    # Count just past the root on the side not yet pinned.
                    margin = max(abs(new - x), tol)
                    check = new - margin if count_lo != index else new + margin
                    if lo < check < hi:
                        count = self.count(check)
                        if count <= index:
                            lo, count_lo = check, count
                        else:
                            hi, count_hi = check, count
                if count_lo == index and count_hi == index + 1:
                    return new
            if not (adjacent and lo < new < hi):
                new = 0.5 * (lo + hi)
                if hi - lo <= 8.0 * _EPS * max(1.0, abs(new)):
                    return new
            count, s1, s2 = self.probe(new)
            x, adjacent = new, count in (index, index + 1)
            if count <= index:
                lo, count_lo = new, count
            else:
                hi, count_hi = new, count

    def gap(self, energy: float, gap: float = math.inf) -> float:
        """min(gap, distance from the energy to this chain's nearest eigenvalue).

        If the Sturm counts at energy - gap and energy + gap agree, no
        eigenvalue lies that close and the chain costs those two counts.
        Otherwise the nearest eigenvalue on each side of the energy is found
        (the side Newton points to first), and the second side is searched
        only if the count shows an eigenvalue closer than the first.
        """
        if gap < math.inf:
            edges = {side: (energy + side * gap, self.count(energy + side * gap))
                     for side in (-1, 1)}
            if edges[-1][1] == edges[1][1]:
                return gap
        else:
            edges = self._bounds()
        count, s1, s2 = self.probe(energy)
        for side in ((-1, 1) if s1 >= 0.0 else (1, -1)):
            far, count_far = edges[side]
            if count_far is None:
                count_far = self.count(far)
            if count_far == count:
                continue
            if side < 0:
                root = self.eigenvalue(count - 1, far, count_far, energy, count,
                                       energy, s1, s2)
            else:
                root = self.eigenvalue(count, energy, count, far, count_far,
                                       energy, s1, s2)
            gap = min(gap, abs(root - energy))
            edges[-side] = (energy - side * gap, None)
        return gap

    def _bounds(self) -> Dict[int, Tuple[float, Optional[int]]]:
        """Gershgorin bounds moved out by 1, with the Sturm counts there."""
        radii = [0.0] + [math.sqrt(b2) for b2 in self.couplings] + [0.0]
        lower = min(a - radii[i] - radii[i + 1] for i, a in enumerate(self.diagonal))
        upper = max(a + radii[i] + radii[i + 1] for i, a in enumerate(self.diagonal))
        return {-1: (lower - 1.0, 0), 1: (upper + 1.0, len(self.diagonal))}


# ---------------------------------------------------------------------------
# reference tabulation comparison
# ---------------------------------------------------------------------------

# Frequency ratios 2w/w0 quoted in the reference tabulation, keyed by
# (N, solution type), together with its quoted E/w row.  These are inputs
# to a comparison, not ground truth: the solver reports containment
# verdicts for them against its own root sets.
REFERENCE_FREQUENCY_RATIOS: Dict[Tuple[int, str], Tuple[float, ...]] = {
    (2, "I"): (0.44315,),
    (2, "II"): (0.79838,),
    (4, "I"): (1.68889,),
    (4, "II"): (0.79838,),
    (5, "I"): (3.03496,),
    (5, "II"): (2.23006, 2.75234),
    (6, "I"): (2.72766, 3.60267),
    (6, "II"): (3.43545,),
    (7, "I"): (2.10305, 3.74421, 3.90266),
    (7, "II"): (2.66128, 4.08801),
}

REFERENCE_ENERGY_RATIOS: Dict[int, float] = {
    2: 1.23205,
    4: 2.38675,
    5: 2.96410,
    6: 3.54145,
    7: 4.11880,
}

FREQUENCY_TOLERANCE = 5e-5
ENERGY_TOLERANCE = 1e-5


def frequency_table_report(result: SpectralResult) -> Dict[str, object]:
    """Compare the computed root set against the reference tabulation.

    For every quoted ratio the report records the nearest computed root
    and whether it lies within the acceptance tolerance; the quoted E/w is
    compared against the exact (N+1)/sqrt3 - 1/2.  Status "ok" requires
    every containment to hold; otherwise "reference-discrepancy" (the
    solver's own internal checks all being exact, a miss means the quoted
    number does not belong to the computed spectrum).
    """
    config = result.config
    computed = result.ratios()
    quoted = REFERENCE_FREQUENCY_RATIOS.get((config.n_max, config.sol_type), ())
    entries = []
    all_contained = True
    for value in quoted:
        gap = min((abs(value - ratio) for ratio in computed), default=math.inf)
        contained = gap <= FREQUENCY_TOLERANCE
        all_contained = all_contained and contained
        entries.append({
            "listed": value,
            "nearest_computed_gap": gap,
            "contained": contained,
        })
    energy_float = float(config.energy_ratio)
    energy_quoted = REFERENCE_ENERGY_RATIOS.get(config.n_max)
    energy_ok = (energy_quoted is None
                 or abs(energy_float - energy_quoted) <= ENERGY_TOLERANCE)
    report: Dict[str, object] = {
        "n": config.n_max,
        "dimension": config.dimension,
        "type": config.sol_type,
        "computed_ratios": computed,
        "listed_ratios": list(quoted),
        "containment": entries,
        "energy_ratio": energy_float,
        "energy_ratio_exact": format_scalar(config.energy_ratio),
        "energy_listed": energy_quoted,
        "energy_ok": energy_ok,
        "growth": bargmann_growth(config),
    }
    if config.n_max == 2:
        report["closed_form"] = closed_form_report(result)
    report["status"] = "ok" if (all_contained and energy_ok) else "reference-discrepancy"
    return report
