import random
from fractions import Fraction

import pytest

from _algebra import (coefficient_matrix, dense_rank, dense_solve, independence_rank,
                      mat_commutator, mat_mul)
from qes import families
from qes.diffop import DiffOp, commutator
from qes.families import (PARAMETERS, FamilyError, FamilySpec, NotInSpan,
                          PairElement, action_formula, apply_op, decompose,
                          family_operators, matrix_rep, operator_in_span,
                          solve_preserving, verify_invariance)
from qes.laurent import LaurentPoly
from qes.linalg import LambdaPoly
from qes.sampling import random_rational, sample_grid
from qes.scalars import QuadScalar

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


@pytest.mark.parametrize("family_id,params,message", [
    (1, {}, "family 1 requires parameter s"),
    (2, {"s": F(7, 2)}, "family 2 requires parameter alpha"),
    (3, {"s": F(-1)}, "s must avoid the nonpositive integers"),  # s is checked first
    (3, {"s": F(7, 2), "alpha": F(-2)}, r"alpha \+ 2 = 0 breaks the parameter chain"),
    (5, {}, "family 5 requires parameter nu"),
    (6, {"alpha": F(0)}, "alpha = 0 degenerates the second chain"),
])
def test_spec_names_the_first_parameter_it_refuses(family_id, params, message):
    with pytest.raises(FamilyError, match=f"^{message}$"):
        FamilySpec(family_id, 3, **params)


@pytest.mark.parametrize("family_id,params,message", [
    (4, {"s": F(-3)}, "family 4 takes no parameter s"),
    (1, {"s": F(1, 2), "alpha": F(1), "nu": F(2)}, "family 1 takes no parameter alpha, nu"),
    (5, {"nu": F(1, 4), "s": F(1, 2)}, "family 5 takes no parameter s"),
    (6, {"alpha": F(1, 3), "nu": F(1)}, "family 6 takes no parameter nu"),
])
def test_spec_refuses_a_parameter_outside_the_family_table(family_id, params, message):
    # Every parameter a spec holds is one its family takes, so nothing that
    # reads the spec's fields can pick up a stray value.
    assert set(params) - set(PARAMETERS[family_id])
    with pytest.raises(FamilyError, match=f"^{message}$"):
        FamilySpec(family_id, 0, **params)


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
    coords = decompose(apply_op(j_minus, families._basis_pairs(spec)[0]), spec)
    assert not isinstance(coords, NotInSpan)
    # F itself plus (1/s) times the minus seed s F'.
    expected = [F(1), F(0), F(2, 5), F(0)]
    assert coords == expected


def test_raising_action_on_the_kernel_is_a_pure_derivative_multiple():
    # x^2 F'' + (s-2)x F' - x F = -2 x F' after eliminating F'' via the ODE.
    spec = FamilySpec(1, 1, s=F(5, 2))
    j_plus, _ = family_operators(spec)
    pair = apply_op(j_plus, families._basis_pairs(spec)[0])
    assert pair.r == LaurentPoly.zero()
    assert pair.s == LaurentPoly.x(1, F(-2))


def test_second_chain_of_the_shifted_parameter_family_is_contiguous():
    # f_{n+1} = f_n + x/(alpha+n) * f_n', the parameter-shift recurrence.
    spec = FamilySpec(3, 3, s=F(9, 2), alpha=F(2, 3))
    x = LaurentPoly.x()
    pairs = families._basis_pairs(spec)
    for n in range(spec.n_max):
        f_n, f_next = pairs[n], pairs[n + 1]
        shifted = f_n + f_n.derivative().times_poly(
            x.map_coeffs(lambda c: c / (spec.alpha + n)))
        assert shifted.r == f_next.r and shifted.s == f_next.s


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_action_formula_refuses_an_index_outside_the_basis(family_id):
    spec = spec_from(family_id, 2, sample_grid(family_id, 2, count=1, seed=5)[0])
    for raise_op in (True, False):
        action_formula(spec, raise_op, spec.dimension - 1)
        for index in (-1, spec.dimension):
            with pytest.raises(FamilyError, match=rf"basis index {index} outside 0\.\."):
                action_formula(spec, raise_op, index)


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
        rank = verify_invariance(spec)["basis_rank"]
        assert rank == independence_rank(spec) == spec.dimension


def test_a_nonpreserving_operator_is_reported_with_a_witness():
    spec = FamilySpec(1, 1, s=F(5, 2))
    shift = DiffOp.mul_by(LaurentPoly.x())  # multiplication by x escapes the span
    outcome = decompose(apply_op(shift, families._basis_pairs(spec)[3]), spec)  # f_1^-
    assert isinstance(outcome, NotInSpan)
    assert outcome.rank_basis < outcome.rank_augmented


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_shared_derivatives_apply_both_operators_like_apply_op(family_id):
    # verify_invariance derives each basis pair once and combines the
    # derivatives with both operators' coefficients.
    for n_max in range(5):
        spec = spec_from(family_id, n_max, sample_grid(family_id, n_max, count=1, seed=4)[0])
        for pair in families._basis_pairs(spec):
            chain = families._derivatives(pair, 2)
            for op in family_operators(spec):
                by_hand, derived = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), pair.ctx), pair
                for order in range(op.order() + 1):
                    by_hand = by_hand + derived.times_poly(op.coeff(order))
                    derived = derived.derivative()
                assert families._combine(op, chain) == apply_op(op, pair) == by_hand


def per_order_sum(op, chain):
    total = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), chain[0].ctx)
    for order in sorted(op.coeffs):
        total = total + chain[order].times_poly(op.coeffs[order])
    return total


@pytest.mark.parametrize("kind", ["fraction", "quad", "lambda"])
def test_one_pass_combine_matches_the_per_order_sum(kind):
    # _combine sums every product into one dict per component; the per-order
    # sum of times_poly is the reference, including its representation.
    rng = random.Random(17)

    def rational():
        return F(rng.randint(-2, 2), rng.randint(1, 3))

    def quad():
        return QuadScalar(rational(), rational(), 0, rational())

    def op_scalar():
        return rational() if kind == "fraction" else quad()

    def pair_scalar():
        if kind == "lambda":
            return LambdaPoly([rng.choice((rational, quad))() for _ in range(3)])
        return op_scalar()

    def laurent(scalar):
        return LaurentPoly({e: scalar() for e in rng.sample(range(-2, 4), 3)})

    ctx = FamilySpec(4, 1).context()
    for _ in range(30):
        chain = [PairElement(laurent(pair_scalar), laurent(pair_scalar), ctx)
                 for _ in range(4)]
        op = DiffOp({k: laurent(op_scalar) for k in rng.sample(range(4), 3)})
        got, expected = families._combine(op, chain), per_order_sum(op, chain)
        assert got == expected
        assert (repr(got.r), repr(got.s)) == (repr(expected.r), repr(expected.s))


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


@pytest.mark.parametrize("op,first", [
    (DiffOp.mul_by(LaurentPoly.x(2)), 0),  # x^2 f_0^+ lies past f_N^+ = x
    (DiffOp.mul_by(LaurentPoly.x()), 1),  # x f_0^+ = f_1^+, but x f_1^+ leaves
    (DiffOp({1: LaurentPoly.const(F(1))}), 2),  # d/dx keeps the plus chain, not f_0^-
], ids=("times-x2", "times-x", "derivative"))
def test_matrix_rep_names_the_first_basis_element_whose_image_leaves_the_span(op, first):
    spec = FamilySpec(1, 1, s=F(5, 2))
    message = rf"family-1 subspace \(failed on basis element {first}\)$"
    with pytest.raises(FamilyError, match=message):
        matrix_rep(op, spec)


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


# -- decompose against a reference solve per target ---------------------------

def reference_system(pairs, target):
    """The exact system `pairs @ c = target`, one row per (component, exponent)."""
    augmented = coefficient_matrix([*pairs, target])
    return [row[:-1] for row in augmented], [row[-1] for row in augmented]


def assert_matches_reference(target, spec, pairs):
    matrix, rhs = reference_system(pairs, target)
    expected = dense_solve(matrix, rhs)
    got = decompose(target, spec)
    if expected is not None:
        assert got == expected
        return got
    assert isinstance(got, NotInSpan)
    assert got.rank_basis == dense_rank(matrix)
    assert got.rank_augmented == dense_rank([row + [b] for row, b in zip(matrix, rhs)])
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
    pairs = list(families._basis_pairs(spec))
    zero = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), pairs[0].ctx)
    matrix, _ = reference_system(pairs, zero)
    assert dense_rank(matrix) == spec.dimension

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

    # One unit coefficient at each exponent of the basis, in either
    # component: some lie in the span, and some reach only keys the basis
    # has yet fall outside it.
    for e in matrix_exponents(pairs):
        unit = LaurentPoly.x(e)
        for target in (PairElement(unit, LaurentPoly.zero(), zero.ctx),
                       PairElement(LaurentPoly.zero(), unit, zero.ctx)):
            assert_matches_reference(target, spec, pairs)

    outside = [pairs[spec.n_max].times_poly(LaurentPoly.x()),  # the plus chain's top
               pairs[0] + PairElement(LaurentPoly.x(min(matrix_exponents(pairs)) - 1),
                                      LaurentPoly.zero(), pairs[0].ctx)]
    for target in outside:
        assert isinstance(assert_matches_reference(target, spec, pairs), NotInSpan)


def test_rank_deficient_basis_keeps_free_coordinates_at_zero(monkeypatch):
    # A repeated basis pair makes A rank deficient; decompose must still
    # give the fresh RREF's solution, free columns zero.
    spec = FamilySpec(5, 2, nu=F(3, 4))
    original = families._basis_pairs
    monkeypatch.setattr(families, "_basis_pairs",
                        lambda s: original(s) + (original(s)[1].scaled(F(-2)),))
    pairs = list(families._basis_pairs(spec))
    assert independence_rank(spec) == spec.dimension < len(pairs)
    j_plus, j_minus = family_operators(spec)
    for pair in pairs:
        for op in (j_plus, j_minus):
            assert_matches_reference(apply_op(op, pair), spec, pairs)
    assert isinstance(assert_matches_reference(pairs[-1].times_poly(LaurentPoly.x(3)),
                                               spec, pairs), NotInSpan)


# -- invariance as an identity against the decomposed comparison ------------------

def decomposed_verdict(image, spec, action):
    """The comparison an identity check replaces: decompose, then compare."""
    coords = decompose(image, spec)
    return (not isinstance(coords, NotInSpan)
            and {i: c for i, c in enumerate(coords) if c != 0} == action)


@pytest.mark.parametrize("spec", list(sampled_specs()),
                         ids=lambda spec: f"f{spec.family_id}-N{spec.n_max}")
def test_identity_verdict_equals_the_decomposed_comparison(spec):
    # For the published action, for the action with one coefficient moved
    # or one term added, and for an image pushed out of the span.
    pairs = families._basis_pairs(spec)
    for idx, pair in enumerate(pairs):
        for raise_op, op in zip((True, False), family_operators(spec)):
            image = apply_op(op, pair)
            action = action_formula(spec, raise_op, idx)
            other = (idx + 1) % len(pairs)
            moved = {**action, idx: action.get(idx, F(0)) + 1}
            added = {**action, other: action.get(other, F(0)) - F(1, 3)}
            outside = image.times_poly(LaurentPoly.x(-1))
            for target, coords in ((image, action), (image, moved), (image, added),
                                   (outside, action)):
                coords = {i: c for i, c in coords.items() if c != 0}
                assert (families._is_combination(target, coords, pairs)
                        == decomposed_verdict(target, spec, coords))
            assert families._is_combination(image, action, pairs)


@pytest.mark.parametrize("spec", list(sampled_specs()),
                         ids=lambda spec: f"f{spec.family_id}-N{spec.n_max}")
def test_cleared_verdict_equals_the_rational_one(spec):
    # verify_invariance's integer check against the rational identity check:
    # for the published actions, with one coefficient moved or one term
    # added, and for x^-1 * J, whose images leave the span.  Every value the
    # integer check compares is an int.
    pairs, cleared = families._cleared_basis(spec)
    den = cleared[0].ctx.den
    dim = len(pairs)
    for raise_op, op in zip((True, False), family_operators(spec)):
        actions = [action_formula(spec, raise_op, idx) for idx in range(dim)]
        moved = [{**a, j: a.get(j, F(0)) + 1} for j, a in enumerate(actions)]
        added = [{**a, (j + 1) % dim: a.get((j + 1) % dim, F(0)) - F(1, 3)}
                 for j, a in enumerate(actions)]
        for shifted in (op, DiffOp.mul_by(LaurentPoly.x(-1)) * op):
            for kind, coords in (("published", actions), ("moved", moved), ("added", added)):
                coords = [{i: c for i, c in a.items() if c != 0} for a in coords]
                int_op, int_coords = families._cleared_action(shifted, coords, den, 2)
                for j, (pair, int_pair) in enumerate(zip(pairs, cleared)):
                    image = families._combine(int_op, families._derivatives(int_pair, 2))
                    assert all(type(c) is int for c in (*image.r.coeffs.values(),
                                                        *image.s.coeffs.values(),
                                                        *int_coords[j].values()))
                    verdict = families._is_combination(image, int_coords[j], cleared)
                    assert verdict == families._is_combination(
                        apply_op(shifted, pair), coords[j], pairs)
                    if shifted is op:
                        assert verdict == (kind == "published")


def test_a_failing_action_reports_the_decomposed_image(monkeypatch):
    # A wrong coefficient in the published J+ action, and x*J- in place of
    # J-, which pushes the top of each chain out of the span: every mismatch
    # carries what decompose finds for the image.
    spec = FamilySpec(2, 2, s=F(7, 2), alpha=F(2, 5))
    j_plus, j_minus = family_operators(spec)
    x_j_minus = DiffOp.mul_by(LaurentPoly.x()) * j_minus
    original = families.action_formula

    def wrong_formula(spec, raise_op, index):
        action = original(spec, raise_op, index)
        if raise_op and index % (spec.n_max + 1) == 1:  # f_1^+ and f_1^-
            action[index] = action.get(index, F(0)) + 1
        return action

    monkeypatch.setattr(families, "action_formula", wrong_formula)
    monkeypatch.setattr(families, "family_operators", lambda s: (j_plus, x_j_minus))
    report = verify_invariance(spec)
    assert not report["ok"] and report["checks"] == 2 * spec.dimension
    pairs = families._basis_pairs(spec)
    kinds = set()
    for mismatch in report["mismatches"]:
        op = j_plus if mismatch["op"] == "J+" else x_j_minus
        coords = decompose(apply_op(op, pairs[mismatch["element"]]), spec)
        if isinstance(coords, NotInSpan):
            assert mismatch["computed"] == "not in span"
        else:
            assert mismatch["computed"] == {i: c for i, c in enumerate(coords) if c != 0}
        kinds.add((mismatch["op"], isinstance(coords, NotInSpan)))
        assert mismatch["expected"] == wrong_formula(
            spec, mismatch["op"] == "J+", mismatch["element"])
    assert [m["element"] for m in report["mismatches"] if m["op"] == "J+"] == [1, 4]
    assert kinds == {("J+", False), ("J-", False), ("J-", True)}
