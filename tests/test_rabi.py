import functools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from _algebra import mat_vec, poly_mul
from qes import families, linalg, rabi
from qes.diffop import DiffOp, GaugeFactor
from qes.laurent import LaurentPoly
from qes.linalg import FieldExtension, isolate_real_roots, mat_scale
from qes.rabi import (COS_2T, ETA, REFERENCE_FREQUENCY_RATIOS, SIN_2T, TWO_G,
                      XI, RabiConfig, RabiError, _apply_recovery_operator,
                      _extension_nullspace, _fock_chains, _fock_spectra,
                      assemble_eigenfunctions, assemble_operator,
                      bargmann_growth, build_L,
                      closed_form_report, fock_matrix, fock_truncation_check,
                      frequency_table_report, gauge_identity_residual,
                      ladder_combination, solve_frequencies, subspace_matrix,
                      truncation_convergence, verify_gauge_identity)
from qes.scalars import QuadScalar, SQRT2, SQRT3, embed_to_float, format_scalar

F = Fraction


# -- locked constants ---------------------------------------------------------

def test_rotation_lock_sits_on_the_unit_circle():
    assert COS_2T * COS_2T + SIN_2T * SIN_2T == QuadScalar(1)


def test_rotation_lock_satisfies_the_quadruple_angle_condition():
    # tan(4t) = 10*sqrt2/23 written without division.
    cos_4t = COS_2T * COS_2T - SIN_2T * SIN_2T
    sin_4t = 2 * SIN_2T * COS_2T
    assert QuadScalar(23) * sin_4t == QuadScalar(10) * SQRT2 * cos_4t


def test_coupling_and_gauge_constants():
    assert TWO_G * TWO_G == QuadScalar(F(1, 6))
    assert XI - ETA == SQRT2 * F(1, 4)


# -- configuration ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(RabiError):
        RabiConfig(2, "III")
    with pytest.raises(RabiError):
        RabiConfig(-1, "I")


def test_config_parameters_by_type():
    one = RabiConfig(3, "I")
    two = RabiConfig(3, "II")
    assert one.s == F(1, 2) and two.s == F(3, 2)
    assert one.alpha == F(-1, 4) - F(3, 2)
    assert two.alpha == F(5, 4) - F(3, 2)
    assert one.dimension == 4 == two.dimension
    assert one.jm_coefficient == 4 and two.jm_coefficient == -8


def test_energy_ratio_closed_form():
    for n_max in range(8):
        config = RabiConfig(n_max, "I")
        expected = (n_max + 1) / math.sqrt(3) - 0.5
        assert embed_to_float(config.energy_ratio) == pytest.approx(expected, rel=1e-15)
    assert format_scalar(RabiConfig(2, "I").energy_ratio) == "-1/2+1*sqrt3"


# -- the fourth-order operator ---------------------------------------------------

def test_zero_coupling_zero_angle_control():
    # With g = 0 and t = 0 the operator collapses to -(z d/dz - E)^2.
    energy = F(3)
    a_hat, c_hat, base = assemble_operator(F(0), F(1), F(0), energy)
    assert a_hat.is_zero()
    euler = DiffOp({1: LaurentPoly.x()})
    assert c_hat == euler
    shifted = euler - DiffOp.mul_by(LaurentPoly.const(energy))
    assert base == -(shifted * shifted)


def test_operator_is_fourth_order_with_the_expected_leading_coefficient():
    operator = build_L(RabiConfig(2, "I"))
    lead = operator.base.coeff(4)
    # (2g)^2 - sin^2(2t)/4 = 1/6 - 1/54 = 4/27.
    assert lead == LaurentPoly.const(QuadScalar(F(4, 27)))


def test_lambda_term_is_a_scalar_shift():
    operator = build_L(RabiConfig(2, "I"))
    lam = F(7, 2)
    assert operator.at_lambda(lam) - operator.base == DiffOp.mul_by(
        LaurentPoly.const(QuadScalar(lam) * F(1, 3)))


# -- gauge identities -------------------------------------------------------------

@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_gauge_identity_holds_exactly(sol_type):
    for n_max in range(4):
        config = RabiConfig(n_max, sol_type)
        assert gauge_identity_residual(config).is_zero()
        assert verify_gauge_identity(config)


def test_gauge_identity_fails_for_a_perturbed_gauge():
    config = RabiConfig(2, "I")
    good = config.gauge
    perturbed = GaugeFactor(z_power=good.z_power,
                            gauss_coeff=good.gauss_coeff + F(1, 100))
    assert not gauge_identity_residual(config, gauge=perturbed).is_zero()


def test_growth_stays_normalizable():
    report = bargmann_growth(RabiConfig(2, "I"))
    assert report["normalizable"]
    assert report["gaussian_type_float"] == pytest.approx(math.sqrt(2) / 4)


# -- frequency roots ---------------------------------------------------------------

def test_smallest_lock_has_an_irreducible_cubic_frequency_polynomial():
    result = solve_frequencies(RabiConfig(2, "I"))
    assert len(result.roots) == 1
    root = result.roots[0]
    assert root.minimal_poly == [F(-6075, 64), F(-101, 16), F(23, 4), F(1)]
    assert root.multiplicity == 1
    assert root.certificate["kind"] == "extension-nullspace"
    assert root.ratio == pytest.approx(0.9190481366, abs=1e-9)
    assert root.omega0() == pytest.approx(2 / 0.9190481366, abs=1e-8)


@pytest.mark.parametrize("n_max,expected", [
    (4, [0.437963]),
    (5, [0.347166, 0.611193]),
    (6, [0.287388, 0.460514, 0.828408]),
    (7, [0.245844, 0.344261]),
])
def test_solved_frequency_ratios(n_max, expected):
    ratios = solve_frequencies(RabiConfig(n_max, "I")).ratios()
    assert ratios == pytest.approx(expected, abs=2e-6)


@functools.lru_cache(maxsize=None)
def solved(n_max, sol_type):
    return solve_frequencies(RabiConfig(n_max, sol_type))


def sympy_poly(coeffs, symbol):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], symbol)


@pytest.mark.parametrize("n_max", range(21))
def test_frequency_polynomials_of_the_tabulated_sizes_are_irreducible(n_max):
    # docs/discrepancies.md rules out the quoted quadratic closed forms
    # because these polynomials (dims 3, 5..8) are irreducible over Q.
    # Over N = 0..20 this is also the proof that the squarefree part each
    # root reports as `minimal_poly` is its minimal polynomial.
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for sol_type in ("I", "II"):
        result = solved(n_max, sol_type)
        _, factors = sympy_poly(result.lambda_charpoly, lam).factor_list()
        assert len(factors) == 1, factors
        factor, power = factors[0]
        assert power == 1 and factor.degree() == n_max + 1
        assert all(root.minimal_poly == result.lambda_charpoly
                   and root.multiplicity == 1 for root in result.roots)


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_continuant_equals_the_general_characteristic_polynomial(sol_type):
    for n_max in range(21):
        result = solved(n_max, sol_type)
        reference = linalg._faddeev_leverrier(mat_scale(result.matrix, F(-1)))
        assert result.lambda_charpoly == reference


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_every_isolating_interval_holds_exactly_one_root(sol_type):
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for n_max in range(21):
        result = solved(n_max, sol_type)
        poly = sympy_poly(result.lambda_charpoly, lam)
        intervals = isolate_real_roots(result.lambda_charpoly)
        assert len(intervals) == poly.count_roots(), n_max
        refined = [root.lambda_interval for root in result.roots]
        positive = poly.count_roots(0) - (1 if poly.eval(0) == 0 else 0)
        assert len(refined) == positive, n_max
        for lo, hi in intervals + refined:
            assert poly.count_roots(lo, hi) == 1, (n_max, lo, hi)


def test_a_repeated_eigenvalue_is_refused(monkeypatch):
    # A squared characteristic polynomial would make every root's
    # multiplicity 2, which the solver does not report.
    def squared(matrix):
        p = linalg.charpoly(matrix)
        return poly_mul(p, p)

    monkeypatch.setattr(rabi, "charpoly", squared)
    with pytest.raises(RabiError, match="repeated root"):
        solve_frequencies(RabiConfig(2, "I"))


def test_lambda_intervals_at_n7_type_one_are_pinned():
    # Captured before the integer Sturm core replaced the rational one: the
    # bisection must pick the same midpoints, so the strings stay identical.
    intervals = [(str(lo), str(hi))
                 for lo, hi in (root.lambda_interval for root in solved(7, "I").roots)]
    assert intervals == [
        ("1966310562672166648925271737567/39614081257132168796771975168",
         "61447205083506050217537570429/1237940039285380274899124224"),
        ("2005512248634373305944902677587/79228162514264337593543950336",
         "501378062158600065995208298437/19807040628566084398385987584"),
    ]


def test_one_dimensional_lock_is_rational():
    # At N=0 the subspace matrix is 1x1, the eigenvalue is 3/4, and the
    # frequency ratio is exactly 2; exercises the degree-one extension.
    result = solve_frequencies(RabiConfig(0, "I"))
    assert len(result.roots) == 1
    root = result.roots[0]
    assert root.minimal_poly == [F(-3, 4), F(1)]
    assert root.ratio == pytest.approx(2.0, abs=1e-12)
    assert root.null_vector_exact is not None
    assert fock_truncation_check(RabiConfig(0, "I"), 2.0, cutoff=150) < 1e-10


def test_two_dimensional_subspace_has_no_positive_lock():
    assert solve_frequencies(RabiConfig(1, "I")).ratios() == []


def test_both_types_share_one_frequency_set():
    for n_max in (2, 5, 6):
        one = solve_frequencies(RabiConfig(n_max, "I")).ratios()
        two = solve_frequencies(RabiConfig(n_max, "II")).ratios()
        assert one == pytest.approx(two, abs=1e-12)


def test_exact_null_vectors_annihilate_the_shifted_matrix():
    # Recheck the solver's certificate from the outside: over the field
    # Q[lam]/(minimal), (M0 + lam I) v must vanish identically.
    config = RabiConfig(5, "I")
    m0 = subspace_matrix(config)
    for root in solve_frequencies(config).roots:
        assert root.null_vector_exact is not None
        lo, hi = root.lambda_interval
        ext = FieldExtension(root.minimal_poly, approx=(lo + hi) / 2, name="lam")
        lam = ext.generator()
        size = len(m0)
        shifted = [[ext.scalar(m0[i][j]) + (lam if i == j else ext.zero())
                    for j in range(size)] for i in range(size)]
        lifted = [ext.element(list(entry.coeffs)) for entry in root.null_vector_exact]
        assert all(entry.is_zero() for entry in mat_vec(shifted, lifted))


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_subspace_matrix_is_unreduced_tridiagonal(sol_type):
    # The recurrence for the null vector rests on this shape.
    for n_max in range(13):
        m0 = subspace_matrix(RabiConfig(n_max, sol_type))
        for i, row in enumerate(m0):
            for j, entry in enumerate(row):
                if abs(i - j) > 1:
                    assert entry == 0, (n_max, i, j)
                elif abs(i - j) == 1:
                    assert entry != 0, (n_max, i, j)


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_recurrence_null_vector_equals_the_elimination_one(sol_type):
    # The reference is the last column of adj(M0 + lam I) over Q[lam]: it is
    # annihilated wherever the determinant vanishes, and its last entry, the
    # monic leading N x N minor, is a unit modulo the defining polynomial.
    # Scaled by that unit's inverse it must equal the recurrence's vector.
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for n_max in range(9):
        config = RabiConfig(n_max, sol_type)
        result = solve_frequencies(config)
        size = config.dimension
        modulus = sympy_poly(result.lambda_charpoly, lam)
        shifted = sympy.Matrix(size, size, lambda i, j: sympy.Rational(
            result.matrix[i][j].numerator, result.matrix[i][j].denominator)
            + (lam if i == j else 0))
        column = [sympy.Poly(entry, lam, domain="QQ") for entry in
                  shifted.adjugate(method="berkowitz")[:, size - 1]]
        unit = column[-1].invert(modulus)
        expected = []
        for entry in column:
            coeffs = (entry * unit).rem(modulus).all_coeffs()[::-1]
            coeffs += [sympy.Integer(0)] * (size - len(coeffs))
            expected.append(tuple(F(int(c.p), int(c.q)) for c in coeffs))
        for root in result.roots:
            assert [entry.coeffs for entry in root.null_vector_exact] == expected, n_max


def test_extension_nullspace_rejects_a_matrix_that_is_not_unreduced_tridiagonal():
    # The path graph on three vertices is singular at lambda = 0.
    tridiagonal = [[F(0), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(0)]]
    minimal = [F(0), F(1)]
    vector = _extension_nullspace(tridiagonal, minimal)
    assert [entry.coeffs for entry in vector] == [(F(-1),), (F(0),), (F(1),)]
    wide = [list(row) for row in tridiagonal]
    wide[0][2] = F(1)
    with pytest.raises(RabiError, match="tridiagonal"):
        _extension_nullspace(wide, minimal)
    split = [list(row) for row in tridiagonal]
    split[2][1] = F(0)
    with pytest.raises(RabiError, match="tridiagonal"):
        _extension_nullspace(split, minimal)


def test_extension_nullspace_refuses_a_non_eigenvalue():
    m0 = [[F(-1), F(1)], [F(1), F(-1)]]
    with pytest.raises(RabiError, match="re-multiplication"):
        _extension_nullspace(m0, [F(-3), F(1)])


def _count_calls(monkeypatch, *functions):
    """Rebind each function, in every `qes` module that holds it, to a counter.

    This is how `perfbench/traced.py` times its spans, so a path that
    bypasses one of these names would leave that span empty.
    """
    counts = Counter()
    modules = [module for name, module in sys.modules.items()
               if name == "qes" or name.startswith("qes.")]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_one_solve_runs_each_timed_root_step(monkeypatch):
    sympy = pytest.importorskip("sympy")
    counts = _count_calls(monkeypatch, linalg.charpoly, linalg.minimal_factors,
                          linalg.sturm_chain, linalg.isolate_real_roots,
                          linalg.refine_root, rabi._extension_nullspace)
    result = solve_frequencies(RabiConfig(7, "I"))
    real_roots = sympy_poly(result.lambda_charpoly, sympy.Symbol("lam")).count_roots()
    assert real_roots == len(result.roots) == 2  # every real root is positive here
    assert counts == {"charpoly": 1, "minimal_factors": 1, "sturm_chain": 1,
                      "isolate_real_roots": 1, "refine_root": real_roots,
                      "_extension_nullspace": 1}


def test_eigenfunction_assembly_reaches_apply_op(monkeypatch):
    result = solved(5, "I")
    counts = _count_calls(monkeypatch, families.apply_op)
    assemble_eigenfunctions(result)
    # psi_1 is recovered once for the polynomial both roots share.
    assert len(result.roots) == 2 and counts == {"apply_op": 1}


def test_conjugate_roots_share_one_recovered_partner_component():
    config = RabiConfig(5, "I")
    result = solve_frequencies(config)
    assert len(result.roots) == 2
    assert result.roots[0].minimal_poly == result.roots[1].minimal_poly
    operator = build_L(config)
    for state, root in zip(assemble_eigenfunctions(result), result.roots):
        chi = _apply_recovery_operator(root, config, operator)
        assert state["psi1"]["f_coefficient"] == repr(chi.r).replace(
            "x^", "z^").replace("*x", "*z")
        assert state["psi1"]["fprime_coefficient"] == repr(chi.s).replace(
            "x^", "z^").replace("*x", "*z")


def test_frequency_polynomial_matches_the_ladder_matrix():
    config = RabiConfig(2, "I")
    result = solve_frequencies(config)
    lam = result.roots[0].lambda_float
    mat = [[float(entry) for entry in row] for row in subspace_matrix(config)]
    for i in range(len(mat)):
        mat[i][i] += lam
    import numpy as np
    assert min(abs(np.linalg.eigvals(np.array(mat)))) < 1e-9


# -- reference tabulation report -----------------------------------------------------

def test_frequency_report_flags_the_reference_values_and_confirms_energy():
    report = frequency_table_report(RabiConfig(2, "I"))
    assert report["status"] == "reference-discrepancy"
    assert report["energy_ok"]
    assert all(not entry["contained"] for entry in report["containment"])
    assert report["closed_form"]["applies_to"] == "N=2"
    assert isinstance(report["closed_form"]["member_of_root_set"], bool)


def test_closed_form_candidates_are_evaluated_and_reported():
    result = solve_frequencies(RabiConfig(2, "II"))
    report = closed_form_report(result)
    assert report["target_lambda_minimal_poly"]
    assert report["target_lambda_float"] == pytest.approx(
        math.sqrt(10) - 1.25, abs=1e-12)
    assert "target_ratio_float" in report


# -- independent numerical oracle ------------------------------------------------------

def test_fock_spectrum_contains_the_computed_lock():
    config = RabiConfig(2, "I")
    ratio = solve_frequencies(config).ratios()[0]
    assert fock_truncation_check(config, ratio, cutoff=220) < 1e-9


def test_fock_spectrum_rejects_a_detuned_frequency():
    config = RabiConfig(2, "I")
    ratio = solve_frequencies(config).ratios()[0]
    assert fock_truncation_check(config, ratio * 1.05, cutoff=220) > 1e-4


def test_fock_truncation_requires_a_sane_cutoff():
    with pytest.raises(RabiError):
        fock_truncation_check(RabiConfig(2, "I"), 0.9, cutoff=50)


def test_fock_spectra_memo_is_bounded_and_repeatable():
    assert _fock_spectra.cache_info().maxsize is not None
    config = RabiConfig(2, "I")
    first = fock_truncation_check(config, 0.9, cutoff=120)
    hits = _fock_spectra.cache_info().hits
    assert fock_truncation_check(config, 0.9, cutoff=120) == first
    assert _fock_spectra.cache_info().hits == hits + 1


def _chain_order(length: int):
    """Indices of the dense block in chain order: chain s starts at spin s.

    Row 2i of `fock_matrix` is (n_i, up) and row 2i+1 is (n_i, down); chain s
    visits n_0, n_1, ... with spin (i + s) mod 2, so it alternates.
    """
    return [2 * i + ((i + s) % 2) for s in (0, 1) for i in range(length)]


def _dense_block_gap(omega0: float, energy: float, cutoff: int) -> float:
    return min(float(np.min(np.abs(np.linalg.eigvalsh(
        fock_matrix(omega0, embed_to_float(TWO_G), cutoff, parity)) - energy)))
        for parity in (0, 1))


# w0 at the N = 2 lock; the chain structure holds at any frequency.
_CHAIN_OMEGA0 = 2.0 / 0.919048136607348


@pytest.mark.parametrize("cutoff", [100, 101, 300])
@pytest.mark.parametrize("parity", [0, 1])
def test_permuted_fock_block_is_exactly_the_two_chains(cutoff, parity):
    two_g = embed_to_float(TWO_G)
    chains = _fock_chains(_CHAIN_OMEGA0, two_g, cutoff, parity)
    length = chains.shape[1]
    dense = fock_matrix(_CHAIN_OMEGA0, two_g, cutoff, parity)
    assert dense.shape == (2 * length, 2 * length)
    order = _chain_order(length)
    expected = np.zeros_like(dense)
    expected[:length, :length] = chains[0]
    expected[length:, length:] = chains[1]
    assert np.array_equal(dense[np.ix_(order, order)], expected)


@pytest.mark.parametrize("cutoff", [100, 300, 700])
def test_chain_spectra_equal_the_dense_block_spectra(cutoff):
    two_g = embed_to_float(TWO_G)
    for parity, spectrum in enumerate(_fock_spectra(_CHAIN_OMEGA0, two_g, cutoff)):
        dense = np.linalg.eigvalsh(fock_matrix(_CHAIN_OMEGA0, two_g, cutoff, parity))
        assert np.max(np.abs(np.sort(spectrum) - dense)) < 1e-9


_TABLE_CONFIGS = [RabiConfig(n, t) for n in (2, 4, 5, 6, 7) for t in ("I", "II")]


@pytest.mark.parametrize("config", _TABLE_CONFIGS, ids=lambda c: f"{c.n_max}{c.sol_type}")
def test_chain_oracle_locks_every_computed_root_at_cutoff_300(config):
    for ratio in solve_frequencies(config).ratios():
        assert fock_truncation_check(config, ratio, cutoff=300) <= 1e-10


@pytest.mark.parametrize("config", _TABLE_CONFIGS, ids=lambda c: f"{c.n_max}{c.sol_type}")
def test_chain_oracle_matches_the_dense_gap_at_every_quoted_ratio(config):
    energy = embed_to_float(config.energy_ratio)
    for listed in REFERENCE_FREQUENCY_RATIOS[(config.n_max, config.sol_type)]:
        dense = _dense_block_gap(2.0 / listed, energy, 300)
        assert abs(fock_truncation_check(config, listed, cutoff=300) - dense) <= 1e-11


def test_truncation_error_does_not_grow_with_the_cutoff():
    config = RabiConfig(4, "I")
    ratio = solve_frequencies(config).ratios()[0]
    gaps = truncation_convergence(config, ratio, cutoffs=(100, 200, 300))
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-12


# -- explicit eigenfunctions ------------------------------------------------------------

def test_eigenfunctions_come_with_exact_coefficients_and_a_partner_component():
    result = solve_frequencies(RabiConfig(2, "I"))
    states = assemble_eigenfunctions(result)
    assert len(states) == 1
    state = states[0]
    assert state["exact"]
    assert len(state["coefficients"]) == 3
    # Leading coefficient is normalized to 1.
    assert state["coefficients"][-1]["float"] == pytest.approx(1.0)
    assert state["psi1"]["prefactor_float"] == pytest.approx(state["ratio"])
    assert "z^2" in state["kernel_argument"]
    assert state["gauge"].startswith("exp(")


def test_eigenfunction_coefficients_solve_the_recurrence_numerically():
    result = solve_frequencies(RabiConfig(5, "II"))
    m0 = [[float(entry) for entry in row] for row in subspace_matrix(RabiConfig(5, "II"))]
    for state, root in zip(assemble_eigenfunctions(result), result.roots):
        values = [coeff["float"] for coeff in state["coefficients"]]
        for i, row in enumerate(m0):
            acc = sum(a * b for a, b in zip(row, values)) + root.lambda_float * values[i]
            assert abs(acc) < 1e-8
