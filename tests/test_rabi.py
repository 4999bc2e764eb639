import dataclasses
import functools
import math
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _algebra import (LambdaPolynomial, dense_tridiagonal, faddeev_leverrier, fock_chains,
                      fock_matrix, mat_vec, recovery_in_z, truncation_convergence)
from qes import families, linalg, rabi
from qes.cli import _RABI_N_CAP
from qes.diffop import (DiffOp, GaugeFactor, conjugate_by_gauge, pull_back_square,
                        substitute_square)
from qes.laurent import LaurentPoly
from qes.linalg import isolate_real_roots, poly_divmod, poly_mul
from qes.rabi import (CLOSED_FORM_LAMBDA, CLOSED_FORM_RATIOS, COS_2T, ETA, REFERENCE_FREQUENCY_RATIOS,
                      SIN_2T, TWO_G, XI, RabiConfig, RabiError,
                      _apply_recovery_operator,
                      _extension_nullspace, _fock_gap, _FockChain,
                      _gauged_recovery_operator, _quadratic_minimal,
                      assemble_eigenfunctions, assemble_operator,
                      bargmann_growth, build_L,
                      closed_form_report, fock_truncation_check,
                      frequency_table_report, gauge_identity_residual,
                      ladder_combination, solve_frequencies, subspace_matrix)
from qes.scalars import QuadScalar, SQRT2, SQRT3, format_scalar

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
    assert one.combination[:4] == (2, 1, -7, 4) and two.combination[:4] == (2, 1, -7, -8)
    assert one.combination[4] == -9 - F(3, 4) + F(1, 8)
    assert two.combination[4] == -9 + F(39, 4) + F(49, 8)


def test_energy_ratio_closed_form():
    for n_max in range(8):
        config = RabiConfig(n_max, "I")
        expected = (n_max + 1) / math.sqrt(3) - 0.5
        assert float(config.energy_ratio) == pytest.approx(expected, rel=1e-15)
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
    lead = build_L(RabiConfig(2, "I")).coeff(4)
    # (2g)^2 - sin^2(2t)/4 = 1/6 - 1/54 = 4/27.
    assert lead == LaurentPoly.const(QuadScalar(F(4, 27)))


def test_lambda_term_is_a_scalar_shift():
    # L = build_L(config) + (lambda/3) Id, and the spectral condition is on
    # M0 + lambda I: with lambda restored on both sides, the gauge identity
    # holds at any lambda.
    config = RabiConfig(2, "I")
    lam = F(7, 2)
    operator = build_L(config) + DiffOp.mul_by(LaurentPoly.const(QuadScalar(lam) * F(1, 3)))
    combination = ladder_combination(config) + DiffOp.mul_by(LaurentPoly.const(lam))
    assert conjugate_by_gauge(operator, config.gauge) == F(1, 3) * substitute_square(
        combination, config.stretch)


# -- gauge identities -------------------------------------------------------------

@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_gauge_identity_holds_exactly(sol_type):
    for n_max in range(4):
        config = RabiConfig(n_max, sol_type)
        assert gauge_identity_residual(config).is_zero()


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
    assert result.lambda_charpoly == [F(-6075, 64), F(-101, 16), F(23, 4), F(1)]
    assert root.ratio == pytest.approx(0.9190481366, abs=1e-9)
    assert 2 / root.ratio == pytest.approx(2 / 0.9190481366, abs=1e-8)


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
    # Over N = 0..20 this is also the proof that the squarefree polynomial
    # every root reports as `minimal_poly` is its minimal polynomial.
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for sol_type in ("I", "II"):
        result = solved(n_max, sol_type)
        _, factors = sympy_poly(result.lambda_charpoly, lam).factor_list()
        assert len(factors) == 1, factors
        factor, power = factors[0]
        assert power == 1 and factor.degree() == n_max + 1


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_continuant_equals_the_general_characteristic_polynomial(sol_type):
    for n_max in range(21):
        result = solved(n_max, sol_type)
        m0 = dense_tridiagonal(*subspace_matrix(result.config))
        reference = faddeev_leverrier([[-entry for entry in row] for row in m0])
        assert result.lambda_charpoly == reference


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_every_isolating_interval_holds_exactly_one_root(sol_type):
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for n_max in range(21):
        result = solved(n_max, sol_type)
        poly = sympy_poly(result.lambda_charpoly, lam)
        intervals = isolate_real_roots(result.lambda_charpoly)
        refined = [root.lambda_interval for root in result.roots]
        positive = poly.count_roots(0) - (1 if poly.eval(0) == 0 else 0)
        assert len(intervals) == len(refined) == positive, n_max
        for lo, hi in intervals + refined:
            if lo == hi:  # an exact dyadic root
                assert poly.eval(lo) == 0, (n_max, lo)
            else:
                assert poly.count_roots(lo, hi) == 1, (n_max, lo, hi)
                assert poly.eval(lo) * poly.eval(hi) < 0, (n_max, lo, hi)


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_the_prime_proves_every_accepted_polynomial_squarefree(sol_type):
    # The CLI accepts N up to `_RABI_N_CAP`; for each of those the one gcd
    # modulo the prime must succeed, so no accepted input reaches the
    # repeated-root refusal.
    for n_max in range(_RABI_N_CAP + 1):
        lower, main, upper = subspace_matrix(RabiConfig(n_max, sol_type))
        p = linalg.charpoly([-d for d in main], [b * a for b, a in zip(lower, upper)])
        assert linalg.squarefree_modulo(linalg._integer_multiple(p)), n_max


def test_a_repeated_eigenvalue_is_refused(monkeypatch):
    # A squared characteristic polynomial would make every root's
    # multiplicity 2, which the solver does not report.
    def squared(diagonal, couplings):
        p = linalg.charpoly(diagonal, couplings)
        return poly_mul(p, p)

    monkeypatch.setattr(rabi, "charpoly", squared)
    with pytest.raises(RabiError, match="repeated root"):
        solve_frequencies(RabiConfig(2, "I"))


def test_lambda_intervals_at_n7_type_one_are_pinned():
    # Dyadic intervals of relative width at most 2^-50 from the Descartes
    # bisection and `refine_root`: a change of either changes the strings.
    intervals = [(str(lo), str(hi))
                 for lo, hi in (root.lambda_interval for root in solved(7, "I").roots)]
    assert intervals == [
        ("1746434608193837/35184372088832", "873217304096919/17592186044416"),
        ("890626349840661/35184372088832", "1781252699681323/70368744177664"),
    ]


def test_one_dimensional_lock_is_rational():
    # At N=0 the subspace matrix is 1x1, the eigenvalue is 3/4, and the
    # frequency ratio is exactly 2; exercises a degree-one defining polynomial.
    result = solve_frequencies(RabiConfig(0, "I"))
    assert len(result.roots) == 1
    root = result.roots[0]
    assert result.lambda_charpoly == [F(-3, 4), F(1)]
    assert root.lambda_interval == (F(3, 4), F(3, 4)) and root.ratio == 2.0
    assert result.null_vector == [[F(1)]]
    assert fock_truncation_check(RabiConfig(0, "I"), 2.0, cutoff=150) < 1e-10


def test_two_dimensional_subspace_has_no_positive_lock():
    assert solve_frequencies(RabiConfig(1, "I")).ratios() == []


def test_both_types_share_one_frequency_set():
    # Type II's M0 is type I's read backwards: its main diagonal reversed,
    # and its coupling products b_k a_k reversed (the single off-diagonal
    # entries differ).  A continuant is unchanged by that reversal, so both
    # types have one characteristic polynomial at every accepted N.
    for n_max in range(_RABI_N_CAP + 1):
        lower_1, main_1, upper_1 = subspace_matrix(RabiConfig(n_max, "I"))
        lower_2, main_2, upper_2 = subspace_matrix(RabiConfig(n_max, "II"))
        assert main_2 == main_1[::-1], n_max
        assert ([b * a for b, a in zip(lower_2, upper_2)]
                == [b * a for b, a in zip(lower_1, upper_1)][::-1]), n_max
        one, two = solved(n_max, "I"), solved(n_max, "II")
        assert one.lambda_charpoly == two.lambda_charpoly, n_max
        assert one.ratios() == two.ratios(), n_max


def test_exact_null_vectors_annihilate_the_shifted_matrix():
    # Recheck the solver's certificate from the outside: over Q[lam], every
    # entry of (M0 + lam I) v must leave no remainder by the defining
    # polynomial, so v is a null vector at each of its roots.
    config = RabiConfig(5, "I")
    m0 = dense_tridiagonal(*subspace_matrix(config))
    lam = LambdaPolynomial([F(0), F(1)])
    size = len(m0)
    shifted = [[LambdaPolynomial([m0[i][j]]) + (lam if i == j else 0)
                for j in range(size)] for i in range(size)]
    result = solve_frequencies(config)
    images = mat_vec(shifted, [LambdaPolynomial(entry) for entry in result.null_vector])
    assert images[0] != 0  # a multiple of the defining polynomial
    assert all(poly_divmod(entry.coeffs, result.lambda_charpoly)[1] == [] for entry in images)


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_subspace_matrix_is_unreduced_tridiagonal(sol_type):
    # The recurrence for the null vector rests on this shape.
    for n_max in range(13):
        lower, main, upper = subspace_matrix(RabiConfig(n_max, sol_type))
        assert len(main) == n_max + 1 and len(lower) == len(upper) == n_max
        assert all(entry != 0 for entry in lower + upper), n_max


def _bent_action(monkeypatch, bend):
    """Rebind `rabi.action_formula` so that `bend(n, column)` edits each
    J^+ column it returns."""
    real = rabi.action_formula

    def action(spec, raise_op, index):
        column = dict(real(spec, raise_op, index))
        if raise_op:
            bend(index, column)
        return column

    monkeypatch.setattr(rabi, "action_formula", action)


def test_subspace_matrix_refuses_a_coefficient_two_rows_away(monkeypatch):
    _bent_action(monkeypatch, lambda n, column: column.update({2: F(1)}) if n == 0 else None)
    with pytest.raises(RabiError, match=r"not tridiagonal: J\^\+ maps f_0 onto f_2"):
        subspace_matrix(RabiConfig(3, "I"))


def test_subspace_matrix_refuses_a_zero_off_diagonal_entry(monkeypatch):
    # Without its coefficient on f_2, J^+ f_1 leaves M0[2][1] zero.
    _bent_action(monkeypatch, lambda n, column: column.pop(2) if n == 1 else None)
    with pytest.raises(RabiError, match="not unreduced tridiagonal: an off-diagonal entry is 0"):
        subspace_matrix(RabiConfig(3, "II"))


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_closed_form_matrix_equals_the_generic_representation(sol_type):
    # The reference pushes every basis pair through the order-4 ladder
    # combination and decomposes the image over the basis.
    for n_max in range(21):
        config = RabiConfig(n_max, sol_type)
        reference = families.matrix_rep(ladder_combination(config), config.family())
        assert dense_tridiagonal(*subspace_matrix(config)) == reference, n_max


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
        m0 = dense_tridiagonal(*subspace_matrix(config))
        shifted = sympy.Matrix(size, size, lambda i, j: sympy.Rational(
            m0[i][j].numerator, m0[i][j].denominator) + (lam if i == j else 0))
        column = [sympy.Poly(entry, lam, domain="QQ") for entry in
                  shifted.adjugate(method="berkowitz")[:, size - 1]]
        unit = column[-1].invert(modulus)
        expected = []
        for entry in column:
            coeffs = (entry * unit).rem(modulus).all_coeffs()[::-1]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            expected.append([F(int(c.p), int(c.q)) for c in coeffs])
        assert result.null_vector == expected, n_max


def test_extension_nullspace_of_the_path_graph():
    # The path graph on three vertices is singular at lambda = 0: lambda is
    # a proper factor of its det(lambda I + M0) = lambda^3 - 2 lambda.
    path = ([F(1), F(1)], [F(0), F(0), F(0)], [F(1), F(1)])
    vector = _extension_nullspace(path, [F(0), F(1)])
    assert vector == [[F(-1), F(0), F(1)], [F(0), F(-1)], [F(1)]]


def test_extension_nullspace_refuses_a_non_eigenvalue():
    with pytest.raises(RabiError, match="re-multiplication"):
        _extension_nullspace(([F(1)], [F(-1), F(-1)], [F(1)]), [F(-3), F(1)])


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
                          linalg.squarefree_modulo, linalg.isolate_real_roots,
                          linalg.refine_root, rabi._extension_nullspace)
    result = solve_frequencies(RabiConfig(7, "I"))
    positive = sympy_poly(result.lambda_charpoly, sympy.Symbol("lam")).count_roots(0)
    assert positive == len(result.roots) == 2
    assert counts == {"charpoly": 1, "minimal_factors": 1, "squarefree_modulo": 1,
                      "isolate_real_roots": 1, "refine_root": positive,
                      "_extension_nullspace": 1}


def test_eigenfunction_assembly_reaches_apply_op(monkeypatch):
    result = solved(5, "I")
    counts = _count_calls(monkeypatch, families.apply_op)
    _, states = assemble_eigenfunctions(result)
    # psi_1 is recovered once for the polynomial both roots share, one
    # application per power of lambda in the null vector: lambda^0..lambda^5.
    assert len(result.roots) == len(states) == 2 and counts == {"apply_op": 6}


def test_conjugate_roots_share_one_recovered_partner_component():
    # The structured psi_1, rendered once, is the recovered one in z.
    config = RabiConfig(5, "I")
    result = solve_frequencies(config)
    assert len(result.roots) == 2
    chi = _apply_recovery_operator(result)
    shared, states = assemble_eigenfunctions(result)
    assert len(states) == 2 and "psi1" not in states[0]
    assert sorted(chi) == sorted(shared["psi1"]) == ["f", "fprime"]
    for name, part in chi.items():
        assert shared["psi1"][name] == {
            str(exp): [format_scalar(c) for c in coeffs] for exp, coeffs in part.items()}
        assert all(coeffs and coeffs[-1] != 0 and exp % 2 == 0 for exp, coeffs in part.items())
    assert shared["null_vector"] == [[format_scalar(c) for c in entry]
                                     for entry in result.null_vector]


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_recovery_operator_pulls_back_to_the_kernel_coordinate(sol_type):
    for n_max in range(8):
        config = RabiConfig(n_max, sol_type)
        recovery_z = _gauged_recovery_operator(config)
        recovery_x = pull_back_square(recovery_z, config.stretch)
        assert substitute_square(recovery_x, config.stretch) == recovery_z, n_max
        assert all(exp >= 0 for poly in recovery_x.coeffs.values() for exp in poly.coeffs)


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_partner_component_equals_the_z_frame_computation(sol_type):
    for n_max in range(21):
        result = solved(n_max, sol_type)
        reference = recovery_in_z(result)
        assert _apply_recovery_operator(result) == {
            name: {exp: list(c.coeffs) for exp, c in part.coeffs.items()}
            for name, part in (("f", reference.r), ("fprime", reference.s))}, n_max


def test_frequency_polynomial_matches_the_ladder_matrix():
    config = RabiConfig(2, "I")
    result = solve_frequencies(config)
    lam = result.roots[0].lambda_float
    mat = [[float(entry) for entry in row]
           for row in dense_tridiagonal(*subspace_matrix(config))]
    for i in range(len(mat)):
        mat[i][i] += lam
    import numpy as np
    assert min(abs(np.linalg.eigvals(np.array(mat)))) < 1e-9


# -- reference tabulation report -----------------------------------------------------

def test_frequency_report_flags_the_reference_values_and_confirms_energy():
    report = frequency_table_report(solve_frequencies(RabiConfig(2, "I")))
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


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_closed_form_lambda_is_a_member_when_its_quadratic_divides_the_charpoly(sol_type):
    # The computed N = 2 polynomials are irreducible cubics, so the report
    # says False; a characteristic polynomial with the target quadratic as a
    # factor must say True.
    result = solved(2, sol_type)
    assert not closed_form_report(result)["member_of_root_set"]
    target = _quadratic_minimal(*CLOSED_FORM_LAMBDA[sol_type])
    holding = dataclasses.replace(result, lambda_charpoly=poly_mul(target, [F(-3), F(1)]))
    assert closed_form_report(holding)["member_of_root_set"] is True


@pytest.mark.parametrize("sol_type", ["I", "II"])
def test_closed_form_ratio_matches_where_the_shared_polynomial_makes_it_hold(sol_type):
    # Each ratio verdict is computed once per solve, modulo the shared
    # polynomial.  With that polynomial replaced by the first target's
    # minimal polynomial and the first null-vector entry by lambda itself,
    # the first target is that entry at both roots; the last entry is 1.
    result = solved(2, sol_type)
    target = CLOSED_FORM_RATIOS[sol_type][0]
    holding = dataclasses.replace(
        result, lambda_charpoly=_quadratic_minimal(*target),
        null_vector=[[F(0), F(1)]] + result.null_vector[1:])
    shared, states = assemble_eigenfunctions(holding)
    checks = shared["closed_form_ratio_check"]
    assert [check["matches_exactly"] for check in checks] == [True, False, True]
    assert [state["closed_form_computed_floats"] for state in states] == [
        root.null_vector_floats for root in holding.roots]


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


def test_fock_gap_memo_is_bounded_and_repeatable():
    assert _fock_gap.cache_info().maxsize is not None
    config = RabiConfig(2, "I")
    first = fock_truncation_check(config, 0.9, cutoff=120)
    hits = _fock_gap.cache_info().hits
    assert fock_truncation_check(config, 0.9, cutoff=120) == first
    assert _fock_gap.cache_info().hits == hits + 1


def _chain_order(length: int):
    """Indices of the dense block in chain order: chain s starts at spin s.

    Row 2i of `fock_matrix` is (n_i, up) and row 2i+1 is (n_i, down); chain s
    visits n_0, n_1, ... with spin (i + s) mod 2, so it alternates.
    """
    return [2 * i + ((i + s) % 2) for s in (0, 1) for i in range(length)]


def _dense_block_gap(omega0: float, energy: float, cutoff: int) -> float:
    return min(float(np.min(np.abs(np.linalg.eigvalsh(
        fock_matrix(omega0, float(TWO_G), cutoff, parity)) - energy)))
        for parity in (0, 1))


# w0 at the N = 2 lock; the chain structure holds at any frequency.
_CHAIN_OMEGA0 = 2.0 / 0.919048136607348


@pytest.mark.parametrize("cutoff", [100, 101, 300])
@pytest.mark.parametrize("parity", [0, 1])
def test_permuted_fock_block_is_exactly_the_two_chains(cutoff, parity):
    two_g = float(TWO_G)
    chains = fock_chains(_CHAIN_OMEGA0, two_g, cutoff, parity)
    length = chains.shape[1]
    dense = fock_matrix(_CHAIN_OMEGA0, two_g, cutoff, parity)
    assert dense.shape == (2 * length, 2 * length)
    order = _chain_order(length)
    expected = np.zeros_like(dense)
    expected[:length, :length] = chains[0]
    expected[length:, length:] = chains[1]
    assert np.array_equal(dense[np.ix_(order, order)], expected)


@pytest.mark.parametrize("cutoff", [100, 101, 300, 700])
@settings(max_examples=10, deadline=None)
@given(omega0=st.floats(0.4, 20.0), index=st.integers(0, 12))
def test_chain_spectra_equal_the_dense_block_spectra(cutoff, omega0, index):
    # w0 spans 2w/w0 in [0.1, 5], criterion 6's search range.  The memo is
    # bypassed so that every call runs the chain search.
    two_g = float(TWO_G)
    blocks = [np.linalg.eigvalsh(fock_matrix(omega0, two_g, cutoff, parity))
              for parity in (0, 1)]
    spectrum = np.sort(np.concatenate(blocks))
    first_chain, second_chain = np.linalg.eigvalsh(fock_chains(omega0, two_g, cutoff, 0))
    others = np.concatenate([second_chain, blocks[1]])
    # An eigenvalue of the first chain, moved a quarter of the way towards
    # the nearest eigenvalue of the other three chains: their Sturm counts
    # show nothing that close, so only the first chain is probed.
    own = first_chain[index]
    nearest = others[np.argmin(np.abs(others - own))]
    targets = {
        "a dense eigenvalue": blocks[index % 2][index],
        "midway between two": (spectrum[index] + spectrum[index + 1]) / 2,
        "below the lowest": spectrum[0] - 1.0,
    }
    if abs(nearest - own) > 1e-9:  # at a lock both blocks share an eigenvalue
        targets["later chains skipped"] = own + (nearest - own) / 4
    for kind, energy in targets.items():
        with mock.patch.object(_FockChain, "probe", autospec=True,
                               side_effect=_FockChain.probe) as probes:
            gap = _fock_gap.__wrapped__(omega0, two_g, cutoff, float(energy))
        assert abs(gap - float(np.min(np.abs(spectrum - energy)))) <= 1e-12, kind
        if kind == "later chains skipped":
            assert len({call.args[0] for call in probes.call_args_list}) == 1


_TABLE_CONFIGS = [RabiConfig(n, t) for n in (2, 4, 5, 6, 7) for t in ("I", "II")]


@pytest.mark.parametrize("config", _TABLE_CONFIGS, ids=lambda c: f"{c.n_max}{c.sol_type}")
def test_chain_oracle_locks_every_computed_root_at_cutoff_300(config):
    for ratio in solve_frequencies(config).ratios():
        assert fock_truncation_check(config, ratio, cutoff=300) <= 1e-10


@pytest.mark.parametrize("config", _TABLE_CONFIGS, ids=lambda c: f"{c.n_max}{c.sol_type}")
def test_chain_oracle_matches_the_dense_gap_at_every_quoted_ratio(config):
    energy = float(config.energy_ratio)
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
    shared, states = assemble_eigenfunctions(result)
    assert len(states) == 1
    state = states[0]
    assert state["exact"]
    assert len(state["coefficient_floats"]) == len(shared["null_vector"]) == 3
    # Leading coefficient is normalized to 1.
    assert state["coefficient_floats"][-1] == 1.0 and shared["null_vector"][-1] == ["1"]
    assert state["psi1_prefactor_float"] == state["ratio"]
    assert "z^2" in shared["kernel_argument"]
    assert shared["gauge"].startswith("exp(")
    assert assemble_eigenfunctions(solve_frequencies(RabiConfig(1, "I"))) == ({}, [])


def test_eigenfunction_coefficients_solve_the_recurrence_numerically():
    result = solve_frequencies(RabiConfig(5, "II"))
    m0 = [[float(entry) for entry in row]
          for row in dense_tridiagonal(*subspace_matrix(RabiConfig(5, "II")))]
    for state, root in zip(assemble_eigenfunctions(result)[1], result.roots):
        values = state["coefficient_floats"]
        for i, row in enumerate(m0):
            acc = sum(a * b for a, b in zip(row, values)) + root.lambda_float * values[i]
            assert abs(acc) < 1e-8
