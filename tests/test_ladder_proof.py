"""The ladder actions proved for every index n and size N (`structure.ladder_proof`)
against the sampled check (`families.verify_invariance`) it replaces in `verify`."""

import dataclasses
import json

import pytest

from _algebra import independence_rank
from qes import cli
from qes.families import FAMILIES, FamilySpec, verify_invariance
from qes.laurent import LaurentPoly
from qes.sampling import sample_grid
from qes.structure import ParamPoly, ladder_proof

SYMBOLS = [ParamPoly.var(name) for name in ("n", "N", "s", "alpha", "nu")]


def identity_name(key):
    return f"J{'+' if key[0] else '-'} {'plus' if key[1] else 'minus'}"


# (family, (raising?, plus chain?)): the 22 identities.
IDENTITIES = [(family_id, key) for family_id in range(1, 7)
              for key in FAMILIES[family_id].ladder(*SYMBOLS)]


def patch_family(monkeypatch, family_id, **fields):
    """Replace fields of one family's record, as every reader of the table sees it."""
    monkeypatch.setitem(FAMILIES, family_id,
                        dataclasses.replace(FAMILIES[family_id], **fields))


def bend_table(monkeypatch, family_id, key, position, change):
    """Replace one numerator of the family's ladder table, as both the proof
    and `action_formula` read it."""
    real = FAMILIES[family_id].ladder

    def bent(*args):
        table = real(*args)
        den, terms = table[key]
        plus, shift, numerator = terms[position]
        table[key] = (den, [*terms[:position], (plus, shift, change(numerator)),
                            *terms[position + 1:]])
        return table

    patch_family(monkeypatch, family_id, ladder=bent)


def test_the_table_holds_22_identities_and_every_one_is_proved():
    assert len(IDENTITIES) == 22
    assert all(ladder_proof(family_id) == [] for family_id in range(1, 7))


def sampled_reports(family_id, n_max, samples=8, seed=0):
    """What `verify` reports per sample when it checks each one."""
    reports = []
    for params in sample_grid(family_id, n_max, samples, seed):
        report = verify_invariance(FamilySpec(family_id, n_max, **params))
        report["params"] = {k: str(v) for k, v in params.items()}
        reports.append(report)
    return json.loads(json.dumps(cli._jsonable(reports)))


@pytest.mark.parametrize("family_id,key", IDENTITIES,
                         ids=[f"f{f}-{identity_name(k).replace(' ', '-')}" for f, k in IDENTITIES])
def test_a_bent_coefficient_fails_its_identity_and_verify_reports_the_samples(
        family_id, key, monkeypatch, capsys):
    # Doubling a numerator keeps its edge zeros, so only the identity fails.
    bend_table(monkeypatch, family_id, key, 0, lambda numerator: 2 * numerator)
    assert ladder_proof(family_id) == [identity_name(key)]
    code = cli.main(["verify", "--family", str(family_id), "--n", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["status"] == "fail"
    assert payload["ladder_proofs"] == {str(family_id): [identity_name(key)]}
    reports = payload["checks"][0]["sample_reports"]
    assert reports == sampled_reports(family_id, 2)
    assert not any(report["ok"] for report in reports)


SHIFTED = [(family_id, key, position) for family_id, key in IDENTITIES
           for position, (_, shift, _) in enumerate(FAMILIES[family_id].ladder(*SYMBOLS)[key][1])
           if shift]


def failed_verify(family_id, capsys):
    """The report of `verify --family family_id --n 2 --json`, which must
    exit 1 with status fail."""
    code = cli.main(["verify", "--family", str(family_id), "--n", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["status"] == "fail"
    return payload


@pytest.mark.parametrize("family_id,key,position", SHIFTED)
def test_a_coefficient_that_survives_its_edge_fails_the_edge_check(
        family_id, key, position, monkeypatch, capsys):
    # Plus one is nonzero at the edge, so the term would leave 0..N; the
    # sampled check reports that action as "outside the subspace".
    bend_table(monkeypatch, family_id, key, position, lambda numerator: numerator + 1)
    assert f"{identity_name(key)} edge" in ladder_proof(family_id)
    reports = failed_verify(family_id, capsys)["checks"][0]["sample_reports"]
    assert any(mismatch["expected"] == "outside the subspace"
               for report in reports for mismatch in report["mismatches"])


def test_every_kind_of_step_off_the_chain_is_checked_at_its_edge():
    shifts = {FAMILIES[family_id].ladder(*SYMBOLS)[key][1][position][1]
              for family_id, key, position in SHIFTED}
    assert shifts == {1, -1, -2}


@pytest.mark.parametrize("family_id", [1, 2, 4, 5, 6])
def test_a_minus_seed_without_a_constant_s_part_fails_independence(
        family_id, monkeypatch, capsys):
    real = FAMILIES[family_id].minus_seed

    def shifted(*args):
        weight, r, s = real(*args)
        return weight, r, s * LaurentPoly.x(1) + s

    patch_family(monkeypatch, family_id, minus_seed=shifted)
    assert "independence" in ladder_proof(family_id)
    failed_verify(family_id, capsys)


def test_family_3_independence_and_contiguity_rest_on_the_ode(monkeypatch, capsys):
    real = FAMILIES[3].rewrite

    def raised(s, alpha, nu):
        ctx = real(s, alpha, nu)
        return type(ctx)(ctx.u, ctx.v * LaurentPoly.x(1))

    patch_family(monkeypatch, 3, rewrite=raised)
    failed = ladder_proof(3)
    assert "independence" in failed and "contiguity" in failed
    failed_verify(3, capsys)


def test_a_failed_proof_fails_verify_where_every_sample_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ladder_proof", lambda family_id: ["forced"])
    code = cli.main(["verify", "--n", "8", "--samples", "64", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["status"] == "fail"
    assert payload["ladder_proofs"] == {str(f): ["forced"] for f in range(1, 7)}
    assert not any(check["ok"] for check in payload["checks"])
    assert all(report["ok"] for check in payload["checks"]
               for report in check["sample_reports"])


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5, 6])
def test_the_proved_reports_equal_the_sampled_ones(family_id):
    # The concrete composition at sampled points, N = 0..5, is the reference
    # for the reports `verify` reads off the proof.
    assert ladder_proof(family_id) == []
    for n_max in range(6):
        for params in sample_grid(family_id, n_max, count=2, seed=n_max + 29):
            spec = FamilySpec(family_id, n_max, **params)
            assert verify_invariance(spec) == cli._proved_report(spec)
            assert independence_rank(spec) == spec.dimension
