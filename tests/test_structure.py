from fractions import Fraction

import pytest

from _algebra import derivative_op, mat_commutator, solve_constants_at, structure_operator
from qes import structure
from qes.diffop import DiffOp, commutator
from qes.families import FAMILIES, FamilySpec, family_operators, matrix_rep
from qes.sampling import sample_grid
from qes.structure import (CONSTANT_NAMES, ParamPoly,
                           StructureError, closure_constants, closure_suite,
                           compare_to_catalog, derive_constants,
                           symbolic_sides, verify_structure_relations)

F = Fraction


def spec_from(family_id, n_max, params):
    return FamilySpec(family_id, n_max, **params)


def constants_at(constants, spec):
    """Every closure coefficient evaluated at the parameters of `spec`."""
    assignment = structure.parameter_assignment(spec)
    return {name: constants[name].evaluate(assignment) for name in CONSTANT_NAMES}


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_parameter_assignment_holds_n_and_the_family_table(family_id):
    spec = sample_grid(family_id, 2, 1, seed=11)[0]
    assignment = structure.parameter_assignment(spec_from(family_id, 2, spec))
    assert list(assignment) == ["n", *FAMILIES[family_id].parameters]
    assert assignment == {"n": F(2), **spec}


# -- polynomial bookkeeping ----------------------------------------------------

def test_param_poly_arithmetic_and_evaluation():
    n = ParamPoly.var("n")
    s = ParamPoly.var("s")
    p = (s - 2 * n) * (s + 1)
    assert p.evaluate({"n": F(3), "s": F(5)}) == (5 - 6) * 6
    assert (p - p).is_zero()


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_param_poly_coefficients_stay_exact_and_integral_ones_are_ints(family_id):
    derived = derive_constants(symbolic_sides(family_id))
    for constants in (closure_constants(family_id), derived):
        for name in CONSTANT_NAMES:
            for coeff in constants[name].terms.values():
                assert type(coeff) is int or (type(coeff) is F and coeff.denominator > 1)
    half = ParamPoly.var("s") * F(1, 2)
    assert half.terms == {(("s", 1),): F(1, 2)}
    assert type((half * 2).terms[(("s", 1),)]) is int
    assert half * 2 == ParamPoly.var("s") and ParamPoly.const(F(6, 2)) == 3
    with pytest.raises(TypeError):
        ParamPoly.const(0.5)


def test_param_poly_string_form_is_deterministic():
    n = ParamPoly.var("n")
    s = ParamPoly.var("s")
    assert str((s - 2 * n) * (s + 1)) == str((s + 1) * (s - 2 * n))


# -- the bracket operator --------------------------------------------------------

@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_bracket_of_the_ladder_pair_has_order_three(family_id):
    params = sample_grid(family_id, 2, count=1, seed=1)[0]
    spec = spec_from(family_id, 2, params)
    bracket = structure_operator(spec)
    assert bracket.order() <= 3
    j_plus, j_minus = family_operators(spec)
    assert bracket == commutator(j_minus, j_plus)


@pytest.mark.parametrize("n_max", [0, 2, 3])
@pytest.mark.parametrize("nu", [F(3, 5), F(2)])
def test_family_five_bracket_has_an_inverse_power_term(n_max, nu):
    # [J-, J+] is not polynomial in general: for family 5 its d^0
    # coefficient carries (2N+1) nu (nu+1) x^-1, its only negative power.
    bracket = structure_operator(FamilySpec(5, n_max, nu=nu))
    negative = {(order, exp): coeff for order, poly in bracket.coeffs.items()
                for exp, coeff in poly.coeffs.items() if exp < 0}
    assert negative == {(0, -1): (2 * n_max + 1) * nu * (nu + 1)}


def test_bracket_matrices_commute_consistently():
    spec = FamilySpec(4, 2)
    j_plus, j_minus = family_operators(spec)
    assert (matrix_rep(structure_operator(spec), spec)
            == mat_commutator(matrix_rep(j_minus, spec), matrix_rep(j_plus, spec)))


# -- closure relations against the tabulated coefficients -------------------------

@pytest.mark.parametrize("family_id", [1, 4, 5, 6])
def test_tabulated_coefficients_close_the_algebra(family_id):
    for n_max in (0, 1, 3):
        for params in sample_grid(family_id, n_max, count=2, seed=5):
            report = verify_structure_relations(spec_from(family_id, n_max, params))
            assert report["ok"], report


@pytest.mark.parametrize("family_id,broken", [(2, "c7p"), (3, "c6p")])
def test_tabulated_coefficient_defects_are_reproducible(family_id, broken):
    # One cataloged coefficient fails for each of these families; the
    # lowering relation and all other constants still hold.
    params = sample_grid(family_id, 2, count=1, seed=5)[0]
    report = verify_structure_relations(spec_from(family_id, 2, params))
    assert not report["ok"]
    assert report["relations"]["lower"]["ok"]
    assert not report["relations"]["raise"]["ok"]
    derived = derive_constants(symbolic_sides(family_id))
    agreement = compare_to_catalog(derived, family_id)
    assert [name for name, same in agreement.items() if not same] == [broken]
    fixed = verify_structure_relations(spec_from(family_id, 2, params), constants=derived)
    assert fixed["ok"]


def test_derived_constants_match_catalog_where_catalog_holds():
    for family_id in (1, 4, 5, 6):
        derived = derive_constants(symbolic_sides(family_id))
        assert all(compare_to_catalog(derived, family_id).values())


def test_direct_solve_agrees_with_interpolated_constants():
    params = sample_grid(2, 3, count=1, seed=9)[0]
    spec = spec_from(2, 3, params)
    direct = solve_constants_at(spec)
    fitted = constants_at(derive_constants(symbolic_sides(2)), spec)
    assert direct == fitted
    assert set(direct) == set(CONSTANT_NAMES)


# -- the symbolic derivation ---------------------------------------------------------

SYMBOLS = {name: ParamPoly.var(name) for name in ("s", "alpha", "nu", "n")}


def symbolic_residuals(family_id, constants):
    """lhs - sum c_i op_i of both relations, over Q[s, alpha, nu, n]."""
    residuals = {}
    for side in structure.symbolic_sides(family_id):
        residual = side["lhs"]
        for name, op in side["terms"]:
            residual = residual - constants[name] * op
        residuals[side["label"]] = residual
    return residuals


def specialize(op, assignment):
    def value(c):
        return c.evaluate(assignment) if isinstance(c, ParamPoly) else c
    return DiffOp({order: poly.map_coeffs(value) for order, poly in op.coeffs.items()})


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_derived_constants_zero_both_symbolic_residuals(family_id):
    residuals = symbolic_residuals(family_id, derive_constants(symbolic_sides(family_id)))
    assert all(residual.is_zero() for residual in residuals.values())


@pytest.mark.parametrize("family_id,broken", [(2, "c7p"), (3, "c6p")])
def test_catalog_defect_leaves_a_symbolic_residual_on_the_raising_side(family_id, broken):
    patched = {**derive_constants(symbolic_sides(family_id)),
               broken: closure_constants(family_id)[broken]}
    residuals = symbolic_residuals(family_id, patched)
    assert not residuals["raise"].is_zero()
    assert residuals["lower"].is_zero()


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_ring_generic_operators_specialize_to_the_concrete_ones(family_id):
    symbolic = FAMILIES[family_id].operators(SYMBOLS["n"], SYMBOLS["s"],
                                             SYMBOLS["alpha"], SYMBOLS["nu"])
    for n_max in range(5):
        for params in sample_grid(family_id, n_max, count=2, seed=11):
            spec = spec_from(family_id, n_max, params)
            assignment = structure.parameter_assignment(spec)
            assert (tuple(specialize(op, assignment) for op in symbolic)
                    == family_operators(spec))


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_relation_reports_match_composition_with_multiplication_operators(family_id):
    # The check scales each closure term directly; composing the term with
    # the operator "multiply by c" must leave the same verdicts and cells.
    catalog = closure_constants(family_id)
    for n_max in range(5):
        for params in sample_grid(family_id, n_max, count=2, seed=3):
            spec = spec_from(family_id, n_max, params)
            values = constants_at(catalog, spec)
            jp, jm = family_operators(spec)
            report = verify_structure_relations(spec)
            assert report["bracket_order"] == commutator(jm, jp).order() <= 3
            for side in structure._relation_sides(jp, jm):
                residual = side["lhs"]
                for name, op in side["terms"]:
                    residual = residual - DiffOp.mul_by(values[name]) * op
                entry = report["relations"][side["label"]]
                assert entry["ok"] == residual.is_zero()
                expected = {} if residual.is_zero() else structure._residual_cells(residual)
                assert entry.get("residual", {}) == expected


def composed_report(spec, constants):
    """Bracket order and residual cells from composing J+ and J- at `spec`."""
    values = constants_at(constants, spec)
    jp, jm = family_operators(spec)
    cells = {}
    for side in structure._relation_sides(jp, jm):
        residual = side["lhs"]
        for name, op in side["terms"]:
            residual = residual - values[name] * op
        cells[side["label"]] = structure._residual_cells(residual)
    return commutator(jm, jp).order(), cells


@pytest.mark.parametrize("family_id", [2, 3])
def test_suite_reports_match_composition_at_each_point(family_id):
    # The per-point report evaluates symbolic residuals; composing the
    # concrete operators at each of the suite's sampled points must give the
    # same verdicts, cells and bracket order for the failing catalog, and the
    # suite must count exactly the failing points.
    specs = structure._suite_samples(family_id, 8, 4)
    reports = [verify_structure_relations(spec) for spec in specs]
    failing = sum(not report["ok"] for report in reports)
    assert 0 < failing == closure_suite(family_id, samples=8, seed=4)["catalog_failures"]
    for spec, report in zip(specs, reports):
        order, cells = composed_report(spec, closure_constants(family_id))
        assert report["bracket_order"] == order
        assert report["params"] == {
            k: str(v) for k, v in structure.parameter_assignment(spec).items()}
        for label, expected in cells.items():
            entry = report["relations"][label]
            assert entry["ok"] == (not expected)
            assert entry.get("residual", {}) == expected
        assert report["ok"] == all(not expected for expected in cells.values())


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_closure_suite_composes_as_often_at_any_sample_count(monkeypatch, family_id):
    # Operators are composed only to build the symbolic sides; each sample
    # is an evaluation.
    compose = DiffOp.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return compose(self, other)

    monkeypatch.setattr(DiffOp, "__mul__", counting)
    counts = []
    for samples in (1, 16):
        calls.clear()
        closure_suite(family_id, samples=samples, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 9


def test_relation_check_composes_the_bracket_once(monkeypatch):
    # Building [J-, J+] once and scaling without composing took family 2 at
    # N = 3 from 23 compositions per check down to 9.
    spec = spec_from(2, 3, sample_grid(2, 3, count=1, seed=5)[0])
    compose = DiffOp.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return compose(self, other)

    monkeypatch.setattr(DiffOp, "__mul__", counting)
    report = verify_structure_relations(spec)
    assert report["bracket_order"] <= 3
    assert len(calls) <= 10


def test_derivation_rejects_a_relation_that_cannot_close(monkeypatch):
    original = structure._relation_sides

    def without_bracket_term(jp, jm):
        raising, lowering = original(jp, jm)
        terms = tuple(term for term in raising["terms"] if term[0] != "c4p")
        return dict(raising, terms=terms), lowering

    monkeypatch.setattr(structure, "_relation_sides", without_bracket_term)
    with pytest.raises(StructureError, match="does not close"):
        derive_constants(structure.symbolic_sides(1))


def test_derivation_requires_a_constant_pivot():
    s = ParamPoly.var("s")
    side = {"label": "raise", "lhs": derivative_op() * s, "terms": (("c5p", derivative_op() * s),)}
    with pytest.raises(StructureError, match="no constant pivot"):
        structure._solve_relation(side)


def test_catalog_strings_expose_all_constants():
    table = closure_suite(3, samples=1)["catalog"]
    assert list(table) == list(CONSTANT_NAMES)
    assert table["c1m"] == "2"
    assert table["c3p"] == "-4"


def test_catalog_rejects_unknown_family():
    with pytest.raises(StructureError):
        closure_constants(9)


# -- the suite entry point ---------------------------------------------------------

def test_suite_reports_clean_families_as_ok():
    report = closure_suite(1, samples=4, seed=2)
    assert report["status"] == "ok"
    assert report["catalog_failures"] == 0
    assert report["derived"] == report["catalog"]
    assert set(report["constants_match"]) == set(CONSTANT_NAMES)
    assert all(report["constants_match"].values())
    assert "mismatched_constants" not in report


def test_suite_documents_the_tabulation_defect_with_a_working_fix():
    report = closure_suite(3, samples=4, seed=2)
    assert report["status"] == "reference-discrepancy"
    assert report["catalog_failures"] > 0
    assert report["derived_failures"] == 0
    assert report["mismatched_constants"] == ["c6p"]
    assert report["derived"]["c6p"] != report["catalog"]["c6p"]


def test_constants_specialize_like_their_symbols():
    spec = FamilySpec(5, 2, nu=F(1, 4))
    values = constants_at(closure_constants(5), spec)
    # c6p for this family is 1 - 4 N^2 and c7m is -4 (1 + nu + nu^2 + 2 N).
    assert values["c6p"] == 1 - 4 * spec.n_max ** 2
    assert values["c7m"] == -4 * (1 + spec.nu + spec.nu ** 2 + 2 * spec.n_max)
