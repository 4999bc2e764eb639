import random
from fractions import Fraction

import pytest

from _algebra import mat_commutator
from qes import families
from qes.diffop import DiffOp, commutator
from qes.families import (BasisElement, FamilyError, FamilySpec, NotInSpan,
                          PairElement, apply_op, decompose, family_operators,
                          independence_rank, matrix_rep, operator_in_span,
                          solve_preserving, verify_invariance)
from qes.laurent import LaurentPoly
from qes.linalg import mat_mul, rank, solve_linear
from qes.sampling import random_rational, sample_grid

F = Fraction


def spec_from(family_id: int, n_max: int, params) -> FamilySpec:
    return FamilySpec(family_id, n_max, **params)


# -- parameter validation -----------------------------------------------------

def test_spec_rejects_degenerate_parameters():
    with pytest.raises(FamilyError):
        FamilySpec(1, 2, s=F(0))
    with pytest.raises(FamilyError):
        FamilySpec(1, 2, s=F(-3))
    with pytest.raises(FamilyError):
        FamilySpec(2, 2, s=F(7, 2), alpha=F(0))
    with pytest.raises(FamilyError):
        FamilySpec(3, 3, s=F(7, 2), alpha=F(-2))
    with pytest.raises(FamilyError):
        FamilySpec(7, 1)
    with pytest.raises(FamilyError):
        FamilySpec(1, -1, s=F(1, 2))


def test_dimension_is_two_chains_except_the_shifted_parameter_family():
    assert FamilySpec(1, 3, s=F(1, 2)).dimension == 8
    assert FamilySpec(3, 3, s=F(1, 2), alpha=F(1, 3)).dimension == 4
    assert FamilySpec(4, 0).dimension == 2
    assert FamilySpec(5, 2, nu=F(1, 4)).dimension == 6


# -- hand-checked ladder actions -----------------------------------------------

def test_lowering_action_on_the_kernel_itself():
    # With x F'' + s F' = F, applying x d^2 + (s+1) d to F gives F + F'.
    spec = FamilySpec(1, 1, s=F(5, 2))
    _, j_minus = family_operators(spec)
    coords = decompose(apply_op(j_minus, BasisElement(spec, 0, "+")), spec)
    assert not isinstance(coords, NotInSpan)
    # F itself plus (1/s) times the minus seed s F'.
    expected = [F(1), F(0), F(2, 5), F(0)]
    assert coords == expected


def test_raising_action_on_the_kernel_is_a_pure_derivative_multiple():
    # x^2 F'' + (s-2)x F' - x F = -2 x F' after eliminating F'' via the ODE.
    spec = FamilySpec(1, 1, s=F(5, 2))
    j_plus, _ = family_operators(spec)
    pair = apply_op(j_plus, BasisElement(spec, 0, "+"))
    assert pair.r == LaurentPoly.zero()
    assert pair.s == LaurentPoly.x(1, F(-2))


def test_second_chain_of_the_shifted_parameter_family_is_contiguous():
    # f_{n+1} = f_n + x/(alpha+n) * f_n', the parameter-shift recurrence.
    spec = FamilySpec(3, 3, s=F(9, 2), alpha=F(2, 3))
    x = LaurentPoly.x()
    for n in range(spec.n_max):
        f_n = BasisElement(spec, n).to_pair()
        shifted = f_n + f_n.derivative().times_poly(
            x.map_coeffs(lambda c: c / (spec.alpha + n)))
        f_next = BasisElement(spec, n + 1).to_pair()
        assert shifted.r == f_next.r and shifted.s == f_next.s


# -- invariance across sampled parameters --------------------------------------

@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_operators_preserve_every_sampled_subspace(family_id):
    for n_max in (0, 2):
        for params in sample_grid(family_id, n_max, count=2, seed=11):
            report = verify_invariance(spec_from(family_id, n_max, params))
            assert report["ok"], report["mismatches"]
            assert report["checks"] == 2 * FamilySpec(family_id, n_max, **params).dimension


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_basis_elements_are_linearly_independent(family_id):
    for params in sample_grid(family_id, 3, count=2, seed=7):
        spec = spec_from(family_id, 3, params)
        assert independence_rank(spec) == spec.dimension


def test_a_nonpreserving_operator_is_reported_with_a_witness():
    spec = FamilySpec(1, 1, s=F(5, 2))
    shift = DiffOp.mul_by(LaurentPoly.x())  # multiplication by x escapes the span
    outcome = decompose(apply_op(shift, BasisElement(spec, 1, "-")), spec)
    assert isinstance(outcome, NotInSpan)
    assert outcome.rank_basis < outcome.rank_augmented


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_shared_derivatives_apply_both_operators_like_apply_op(family_id):
    # verify_invariance derives each basis pair once and combines the
    # derivatives with both operators' coefficients.
    for n_max in range(5):
        spec = spec_from(family_id, n_max, sample_grid(family_id, n_max, count=1, seed=4)[0])
        for pair in families._basis(spec).pairs:
            chain = families._derivatives(pair, 2)
            for op in family_operators(spec):
                by_hand, derived = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), pair.ctx), pair
                for order in range(op.order() + 1):
                    by_hand = by_hand + derived.times_poly(op.coeff(order))
                    derived = derived.derivative()
                assert families._combine(op, chain) == apply_op(op, pair) == by_hand


# -- matrix representation ------------------------------------------------------

@pytest.mark.parametrize("family_id", [1, 4, 6])
def test_matrix_representation_is_multiplicative(family_id):
    params = sample_grid(family_id, 2, count=1, seed=3)[0]
    spec = spec_from(family_id, 2, params)
    j_plus, j_minus = family_operators(spec)
    rep_plus = matrix_rep(j_plus, spec)
    rep_minus = matrix_rep(j_minus, spec)
    assert matrix_rep(j_plus * j_minus, spec) == mat_mul(rep_plus, rep_minus)
    assert (matrix_rep(commutator(j_plus, j_minus), spec)
            == mat_commutator(rep_plus, rep_minus))


# -- re-derivation of the preserving operators -----------------------------------

def test_preserving_space_is_two_dimensional_modulo_constants():
    spec = FamilySpec(1, 0, s=F(7, 3))
    found = solve_preserving(spec, max_order=2, degree_bound=2)
    assert found["dimension_mod_constants"] == 2
    j_plus, j_minus = family_operators(spec)
    assert operator_in_span(found, j_plus)
    assert operator_in_span(found, j_minus)


def test_preserving_space_excludes_foreign_operators():
    spec = FamilySpec(1, 0, s=F(7, 3))
    found = solve_preserving(spec, max_order=2, degree_bound=2)
    assert not operator_in_span(found, DiffOp.mul_by(LaurentPoly.x()))


# -- the cached elimination against a fresh solve per target ---------------------

def reference_system(pairs, target):
    """The exact system `pairs @ c = target`, one row per (component, exponent)."""
    exps_r, exps_s = set(), set()
    for p in list(pairs) + [target]:
        exps_r.update(p.r.coeffs)
        exps_s.update(p.s.coeffs)
    rows = [("r", e) for e in sorted(exps_r)] + [("s", e) for e in sorted(exps_s)]
    matrix = [[(p.r if comp == "r" else p.s).coeff(e) for p in pairs]
              for comp, e in rows]
    rhs = [(target.r if comp == "r" else target.s).coeff(e) for comp, e in rows]
    return matrix, rhs


def assert_matches_reference(target, spec, pairs):
    matrix, rhs = reference_system(pairs, target)
    expected = solve_linear(matrix, rhs)
    got = decompose(target, spec)
    if expected is not None:
        assert got == expected
        return got
    assert isinstance(got, NotInSpan)
    assert got.rank_basis == rank(matrix)
    assert got.rank_augmented == rank([row + [b] for row, b in zip(matrix, rhs)])
    assert got.residual is target
    return got


def matrix_exponents(pairs):
    return {e for p in pairs for e in list(p.r.coeffs) + list(p.s.coeffs)}


def sampled_specs():
    for family_id in (1, 2, 3, 4, 5, 6):
        for n_max in range(5):
            for params in sample_grid(family_id, n_max, count=2, seed=23):
                yield FamilySpec(family_id, n_max, **params)


@pytest.mark.parametrize("spec", list(sampled_specs()),
                         ids=lambda spec: f"f{spec.family_id}-N{spec.n_max}")
def test_cached_decomposition_equals_a_fresh_solve(spec):
    pairs = [families._element_at(spec, i).to_pair() for i in range(spec.dimension)]
    zero = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), pairs[0].ctx)
    matrix, _ = reference_system(pairs, zero)
    assert independence_rank(spec) == rank(matrix) == spec.dimension

    for op in family_operators(spec):
        for pair in pairs:
            assert not isinstance(assert_matches_reference(apply_op(op, pair), spec, pairs),
                                  NotInSpan)

    rng = random.Random(spec.n_max)
    for _ in range(2):
        weights = [random_rational(rng) if rng.random() < 0.7 else Fraction(0)
                   for _ in pairs]
        combo = zero
        for w, p in zip(weights, pairs):
            combo = combo + p.scaled(w)
        assert assert_matches_reference(combo, spec, pairs) == weights

    top = BasisElement(spec, spec.n_max, None if spec.family_id == 3 else "+")
    outside = [top.to_pair().times_poly(LaurentPoly.x()),
               pairs[0] + PairElement(LaurentPoly.x(min(matrix_exponents(pairs)) - 1),
                                      LaurentPoly.zero(), pairs[0].ctx)]
    for target in outside:
        assert isinstance(assert_matches_reference(target, spec, pairs), NotInSpan)


def test_rank_deficient_basis_keeps_free_coordinates_at_zero(monkeypatch):
    # A repeated basis pair makes A rank deficient; the cached path must still
    # give the fresh RREF's solution, free columns zero.
    spec = FamilySpec(5, 2, nu=F(3, 4))
    original = families._basis_pairs
    monkeypatch.setattr(families, "_basis_pairs",
                        lambda s: original(s) + (original(s)[1].scaled(F(-2)),))
    families._basis.cache_clear()
    try:
        pairs = list(families._basis(spec).pairs)
        assert families._basis(spec).rank == spec.dimension < len(pairs)
        j_plus, j_minus = family_operators(spec)
        for pair in pairs:
            for op in (j_plus, j_minus):
                assert_matches_reference(apply_op(op, pair), spec, pairs)
        assert isinstance(assert_matches_reference(pairs[-1].times_poly(LaurentPoly.x(3)),
                                                   spec, pairs), NotInSpan)
    finally:
        families._basis.cache_clear()


def test_basis_cache_is_bounded_and_reused():
    maxsize = families._basis.cache_info().maxsize
    assert isinstance(maxsize, int) and 0 < maxsize
    spec = FamilySpec(2, 3, s=F(7, 2), alpha=F(2, 5))
    first = families._basis(spec)
    assert families._basis(FamilySpec(2, 3, s=F(7, 2), alpha=F(2, 5))) is first
    assert BasisElement(spec, 1, "-").to_pair() is first.pairs[spec.n_max + 2]
    for k in range(maxsize + 1):
        families._basis(FamilySpec(5, 0, nu=F(k + 1, 7)))
    assert families._basis.cache_info().currsize <= maxsize
