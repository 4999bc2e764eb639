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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diffop import (DiffOp, GaugeFactor, commutator, conjugate_by_gauge,
                     substitute_square)
from .families import (BasisElement, FamilySpec, apply_op, family_operators,
                       matrix_rep, substitute_pair, substituted_context)
from .laurent import LaurentPoly
from .linalg import (ExtElem, FieldExtension, charpoly, mat_scale, minimal_factors,
                     poly_gcd, poly_trim)
from .scalars import SQRT2, SQRT3, SQRT6, QuadScalar, embed_to_float, format_scalar


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
    energy, the gauge factor, the coordinate stretch, and the affine map
    lambda -> C appearing in the subspace combination.
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
    def jm_coefficient(self) -> Fraction:
        return Fraction(4) if self.sol_type == "I" else Fraction(-8)

    @property
    def lambda_offset(self) -> Fraction:
        """C minus lambda: the constant part of the affine map lambda -> C."""
        n = Fraction(self.n_max)
        if self.sol_type == "I":
            return -n * n - n / 4 + Fraction(1, 8)
        return -n * n + 13 * n / 4 + Fraction(49, 8)

    def c_at(self, lambda_value) -> Fraction:
        """C evaluated at a concrete lambda = 3 w0^2 / (4 w^2)."""
        return lambda_value + self.lambda_offset

    def family(self) -> FamilySpec:
        return FamilySpec(3, self.n_max, s=self.s, alpha=self.alpha)


# ---------------------------------------------------------------------------
# the fourth-order operator for the surviving component
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabiOperator:
    """L split into its lambda-free part and the trivial lambda direction.

    The full operator is base + (lambda/3) * Id: the only w0-dependence of
    L is the additive constant w0^2/4 = lambda/3.
    """

    a_hat: DiffOp
    c_hat: DiffOp
    base: DiffOp

    def at_lambda(self, lambda_value) -> DiffOp:
        return self.base + DiffOp({0: LaurentPoly.const(
            Fraction(1, 3) * lambda_value)})


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


def build_L(config: RabiConfig) -> RabiOperator:
    """The surviving-component operator at the configuration's lock."""
    a_hat, c_hat, base = assemble_operator(
        TWO_G, COS_2T, config.sin_2t, config.energy_ratio)
    if base.order() != 4:
        raise RabiError(f"expected a fourth-order operator, got order {base.order()}")
    return RabiOperator(a_hat=a_hat, c_hat=c_hat, base=base)


def ladder_combination(config: RabiConfig) -> DiffOp:
    """The family-3 combination whose kernel carries the exact states.

    In the ladder coordinate x this is
    2 (J^-)^2 + [J^+, J^-] - 7 J^+ + a4 J^- + offset, with a4 = +4 (type I)
    or -8 (type II) and the offset equal to C - lambda.
    """
    jp, jm = family_operators(config.family())
    return (2 * (jm * jm) + commutator(jp, jm) + (-7) * jp
            + config.jm_coefficient * jm
            + DiffOp({0: LaurentPoly.const(config.lambda_offset)}))


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
    operator = build_L(config)
    chosen = gauge if gauge is not None else config.gauge
    lhs = conjugate_by_gauge(operator.base, chosen)
    rhs = Fraction(1, 3) * substitute_square(ladder_combination(config), config.stretch)
    return lhs - rhs


def verify_gauge_identity(config: RabiConfig) -> bool:
    """True iff the subspace-collapse identity holds exactly."""
    return gauge_identity_residual(config).is_zero()


# ---------------------------------------------------------------------------
# the spectral condition
# ---------------------------------------------------------------------------

def subspace_matrix(config: RabiConfig) -> List[List[Fraction]]:
    """M0: the ladder combination represented on the invariant subspace."""
    return matrix_rep(ladder_combination(config), config.family())


@dataclass
class FrequencyRoot:
    """One positive-lambda root of det(M0 + lambda*I) = 0."""

    ratio: float                      # 2w/w0 = sqrt(3/lambda)
    lambda_float: float
    lambda_interval: Tuple[Fraction, Fraction]
    # The squarefree part of det(lambda*I + M0), monic, vanishing at lambda;
    # minimal for N <= 20, where a sympy test proves it irreducible.
    minimal_poly: List[Fraction]
    multiplicity: int                 # 1: the solver refuses repeated roots
    certificate: Dict[str, object]
    null_vector_floats: List[float]
    null_vector_exact: List[object]   # ExtElem entries, last entry 1
    extension: FieldExtension

    def omega0(self) -> float:
        """w0 in w = 1 units."""
        return 2.0 / self.ratio


@dataclass
class SpectralResult:
    """Exact spectral data for one configuration."""

    config: RabiConfig
    matrix: List[List[Fraction]]
    lambda_charpoly: List[Fraction]   # det(lambda*I + M0), ascending, monic, squarefree
    roots: List[FrequencyRoot]
    growth: Dict[str, object]

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
    value = embed_to_float(coefficient)
    return {
        "gaussian_type": format_scalar(coefficient),
        "gaussian_type_float": value,
        "normalizable": value < 0.5,
    }


def solve_frequencies(config: RabiConfig) -> SpectralResult:
    """All positive-lambda roots of det(M0 + lambda*I) = 0, exactly isolated.

    `charpoly` runs the continuant recurrence on the tridiagonal M0, and
    `minimal_factors` isolates the real roots of its squarefree part once
    and refines each to 14 digits.  A repeated root is refused, not given
    one shared multiplicity, so that part is the characteristic polynomial
    itself and every positive root carries it as its defining polynomial.
    The null vector over the ring Q[lambda]/(that polynomial) comes from the
    three-term recurrence, which divides only by rationals; it is built and
    certified once (checking that M0 is unreduced tridiagonal) and rebound
    to each root.
    """
    m0 = subspace_matrix(config)
    size = config.dimension
    lam_poly = charpoly(mat_scale(m0, Fraction(-1)))
    squarefree, intervals = minimal_factors(lam_poly)
    if len(squarefree) != len(lam_poly):
        raise RabiError("det(lambda*I + M0) has a repeated root")
    shared = _extension_nullspace(m0, squarefree)

    roots: List[FrequencyRoot] = []
    for lo, hi in intervals:
        if hi <= 0:
            continue
        lam_mid = (lo + hi) / 2
        lam_float = float(lam_mid)
        ext = FieldExtension(squarefree, embed=Fraction, approx=lam_mid, name="lam")
        vector = [ExtElem(ext, entry.coeffs) for entry in shared]
        roots.append(FrequencyRoot(
            ratio=math.sqrt(3.0 / lam_float),
            lambda_float=lam_float,
            lambda_interval=(lo, hi),
            minimal_poly=squarefree,
            multiplicity=1,
            certificate={
                "kind": "extension-nullspace",
                "rank": size - 1,
                "dimension": size,
                "nullity": 1,
            },
            null_vector_floats=[entry.to_float() for entry in vector],
            null_vector_exact=vector,
            extension=ext,
        ))

    roots.sort(key=lambda root: root.ratio)
    return SpectralResult(
        config=config,
        matrix=m0,
        lambda_charpoly=lam_poly,
        roots=roots,
        growth=bargmann_growth(config),
    )


def _extension_nullspace(m0, modulus: List[Fraction]) -> List[ExtElem]:
    """Null vector of M0 + lambda*I over the ring Q[lambda]/(modulus).

    M0 must be unreduced tridiagonal (no entry off the three diagonals, no
    zero off-diagonal entry), so the null space has dimension 1 at every
    eigenvalue.  With v_N = 1, rows N..1 give v_{N-1}..v_0 by the
    three-term recurrence, dividing only by rational subdiagonal entries;
    re-multiplying every row certifies that lambda is an eigenvalue.
    """
    size = len(m0)
    for i, row in enumerate(m0):
        for j, entry in enumerate(row):
            offset = abs(i - j)
            if (offset > 1 and entry != 0) or (offset == 1 and entry == 0):
                raise RabiError(
                    f"M0 is not unreduced tridiagonal: entry ({i}, {j}) is {entry}")
    ext = FieldExtension(modulus, embed=Fraction, name="lam")
    lam = ext.generator()
    vector = [ext.zero()] * (size - 1) + [ext.one()]

    def image(k: int):
        # Row k of (M0 + lambda*I) v: at most three products.
        total = (lam + m0[k][k]) * vector[k]
        for j in (k - 1, k + 1):
            if 0 <= j < size:
                total = total + m0[k][j] * vector[j]
        return total

    for k in range(size - 1, 0, -1):
        vector[k - 1] = image(k) * (Fraction(-1) / m0[k][k - 1])
    if any(not image(k).is_zero() for k in range(size)):
        raise RabiError("extension null vector fails re-multiplication")
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

    The quoted values are quadratic surds, so membership reduces to a
    polynomial gcd over the rationals: the surd is a root of the
    characteristic polynomial iff its quadratic minimal polynomial shares a
    factor with it.  The report records the verdict and both floats; it
    does not try to reconcile a mismatch.
    """
    config = result.config
    rational, coeff, radicand = CLOSED_FORM_LAMBDA[config.sol_type]
    target_poly = _quadratic_minimal(rational, coeff, radicand)
    target_lambda = float(rational) + float(coeff) * math.sqrt(radicand)
    shared = poly_gcd(result.lambda_charpoly, target_poly)
    member = len(poly_trim(shared)) > 1
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


def _ratio_membership(ext: FieldExtension, ratio_elem, target) -> bool:
    rational, coeff, radicand = target
    if coeff == 0:
        return ratio_elem == ext.scalar(rational)
    poly = _quadratic_minimal(rational, coeff, radicand)
    value = ext.zero()
    power = ext.one()
    for c in poly:
        value = value + power * ext.scalar(c)
        power = power * ratio_elem
    return value.is_zero()


def assemble_eigenfunctions(result: SpectralResult) -> List[Dict[str, object]]:
    """Explicit two-component states for every root in the result.

    psi_2 is the gauge factor times the null-vector combination of the
    confluent kernels evaluated at x = stretch * z^2; psi_1 is recovered
    from it by psi_1 = (2/w0) (E + a_hat - c_hat) psi_2, computed exactly
    in the fundamental-pair representation (the global prefactor 2/w0
    equals the reported frequency ratio and is attached as a float).  For
    N=2 the coefficient ratios are additionally tested, exactly, against
    the quoted closed-form surds; the verdict is reported, not enforced.
    Every root shares the defining polynomial and hence the symbolic null
    vector, so psi_1 is computed once per polynomial.
    """
    config = result.config
    operator = build_L(config)
    gauge = config.gauge
    descriptions: List[Dict[str, object]] = []
    psi1_by_factor: Dict[Tuple[Fraction, ...], Tuple[str, str]] = {}
    for root in result.roots:
        entry: Dict[str, object] = {
            "ratio": root.ratio,
            "lambda": root.lambda_float,
            "gauge": _describe_gauge(gauge),
            "kernel_argument": f"({format_scalar(config.stretch)})*z^2",
            "kernel_parameters": [
                (str(config.alpha + n), str(config.s)) for n in range(config.dimension)
            ],
        }
        entry["exact"] = True
        entry["coefficients"] = [
            {"value": repr(element), "float": element.to_float()}
            for element in root.null_vector_exact
        ]
        if config.n_max == 2:
            entry["closed_form_ratio_check"] = _closed_form_ratio_check(
                root, config)
        factor = tuple(root.minimal_poly)
        if factor not in psi1_by_factor:
            chi = _apply_recovery_operator(root, config, operator)
            # The pair lives in the z coordinate after the pullback.
            psi1_by_factor[factor] = tuple(
                repr(part).replace("x^", "z^").replace("*x", "*z")
                for part in (chi.r, chi.s))
        f_coefficient, fprime_coefficient = psi1_by_factor[factor]
        entry["psi1"] = {
            "prefactor_float": root.ratio,
            "f_coefficient": f_coefficient,
            "fprime_coefficient": fprime_coefficient,
        }
        descriptions.append(entry)
    return descriptions


def _describe_gauge(gauge: GaugeFactor) -> str:
    power = "" if gauge.z_power == 0 else ("z*" if gauge.z_power == 1 else f"z^{gauge.z_power}*")
    return f"{power}exp(({format_scalar(gauge.gauss_coeff)})*z^2)"


def _closed_form_ratio_check(root: FrequencyRoot, config: RabiConfig) -> Dict[str, object]:
    ext = root.extension
    targets = CLOSED_FORM_RATIOS[config.sol_type]
    checks = []
    # The null vector has last entry 1, so its entries are the ratios.
    for index, (target, ratio_elem) in enumerate(zip(targets, root.null_vector_exact)):
        rational, coeff, radicand = target
        target_float = float(rational) + float(coeff) * math.sqrt(radicand)
        checks.append({
            "index": index,
            "target_float": target_float,
            "computed_float": ratio_elem.to_float(),
            "matches_exactly": _ratio_membership(ext, ratio_elem, target),
        })
    return {"ratios": checks}


def _apply_recovery_operator(root: FrequencyRoot, config: RabiConfig,
                             operator: RabiOperator):
    """chi = (E + a_hat - c_hat) psi_2 divided by the gauge factor.

    Conjugating the recovery operator by the gauge turns the application
    into pure pair arithmetic on the kernel side: psi_1 equals the gauge
    factor times chi times 2/w0.
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


# ---------------------------------------------------------------------------
# independent truncated-Fock oracle
# ---------------------------------------------------------------------------

def fock_matrix(omega0: float, two_g: float, cutoff: int, parity: int) -> np.ndarray:
    """Dense float Hamiltonian block for one photon-parity sector.

    Photon numbers run over parity, parity+2, ... below the cutoff, each with
    both spin states, ordered (n, up), (n, down).  The squared ladder coupling
    moves two photons and flips the spin, so the parity sectors decouple.  This
    dense block is criterion 6's reference; the oracle uses `_fock_chains`.
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


def _fock_chains(omega0: float, two_g: float, cutoff: int, parity: int) -> np.ndarray:
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


def fock_truncation_check(config: RabiConfig, root: float, cutoff: int = 300) -> float:
    """Smallest gap between the truncated spectrum and the locked energy.

    Diagonalises the Hamiltonian at w = 1, g = 1/(2*sqrt6), w0 = 2/root in a
    Fock basis truncated at the cutoff, as the four tridiagonal chains of the
    two parity sectors, and returns min |E_i - ((N+1)/sqrt3 - 1/2)|.  This uses
    no operator identities at all, so it is an independent check that a
    claimed frequency really carries an eigenvalue at the locked energy.
    """
    if cutoff < 100:
        raise RabiError("cutoff must be at least 100")
    target = embed_to_float(config.energy_ratio)
    spectra = _fock_spectra(2.0 / float(root), embed_to_float(TWO_G), cutoff)
    return min(float(np.min(np.abs(eigenvalues - target))) for eigenvalues in spectra)


@functools.lru_cache(maxsize=64)
def _fock_spectra(omega0: float, two_g: float, cutoff: int) -> Tuple[np.ndarray, ...]:
    """Both parity spectra at one frequency, shared by every gap taken there.

    Each is two chains' eigenvalues, unsorted, from one stacked `eigvalsh`.
    Types I and II share their locks, so a table run reuses spectra; the
    arrays are read-only because every caller receives the same objects.
    """
    spectra = tuple(np.linalg.eigvalsh(_fock_chains(omega0, two_g, cutoff, parity)).ravel()
                    for parity in (0, 1))
    for eigenvalues in spectra:
        eigenvalues.flags.writeable = False
    return spectra


def truncation_convergence(config: RabiConfig, root: float,
                           cutoffs: Sequence[int] = (100, 200, 400)) -> List[float]:
    """Fock-check gaps at increasing cutoffs (to zero at a lock, to a positive limit elsewhere)."""
    return [fock_truncation_check(config, root, cutoff) for cutoff in cutoffs]


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


def frequency_table_report(config: RabiConfig,
                           result: Optional[SpectralResult] = None) -> Dict[str, object]:
    """Compare the computed root set against the reference tabulation.

    For every quoted ratio the report records the nearest computed root
    and whether it lies within the acceptance tolerance; the quoted E/w is
    compared against the exact (N+1)/sqrt3 - 1/2.  Status "ok" requires
    every containment to hold; otherwise "reference-discrepancy" (the
    solver's own internal checks all being exact, a miss means the quoted
    number does not belong to the computed spectrum).
    """
    if result is None:
        result = solve_frequencies(config)
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
    energy_float = embed_to_float(config.energy_ratio)
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
        "growth": result.growth,
    }
    if config.n_max == 2:
        report["closed_form"] = closed_form_report(result)
    report["status"] = "ok" if (all_contained and energy_ok) else "reference-discrepancy"
    return report
