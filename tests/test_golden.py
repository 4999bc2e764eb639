"""`qes` JSON reports against golden files.

`golden/ladder_reports.json` holds, for each of `LADDER_COMMANDS`
(`verify` and `commutators` runs, among them the `verify --n 8` of the
benchmark's `ladders` workload), the exit code and the whole report except
`elapsed_seconds`.  They pin the sampler's draw order and the indexing of
the closed-form ladder actions.

`golden/rabi_reports.json` holds, per command, the exit code, the status
and every field of each `rabi` block (each `table1` grid block) except the
two Fock-gap maps, whose last bits depend on how the oracle's float
arithmetic is ordered: the computed ratios, the `exact` object, each
root's dyadic interval and floats, and each state's floats.

`golden/rabi_reports_schema1.json` is the schema-1 reference of
`SCHEMA1_COMMANDS`, all but the last of those commands, kept as it was when schema 2 replaced it: status, ratios, and
per root the isolating interval, defining polynomial, multiplicity,
certificate and null-vector floats, plus the eigenfunction coefficient
and psi_1 strings and, at N = 2, the closed-form report and each state's
closed-form ratio check.  `golden/rabi_kernels_schema1.json` adds the
kernel data (gauge, kernel argument and parameters) that every schema-1
state repeated.  A test shows that each of those exact values reappears
in schema 2.

`golden/failing_verify_report.json` holds the exit code and the whole
report (except `elapsed_seconds`) of `FAILING_COMMAND` run on a bent
ladder (`bent_ladder`), its proof forced to fail: the mismatches of the
sampled check, with computed coordinates and "not in span" entries.

`golden/human_reports.json` holds the exit code and the whole human
output of a `commutators`, a `rabi` and a `verify` run.  The `rabi` output
prints its Fock gaps to two digits, so a reordering of the oracle's
arithmetic may change those lines.

A change to any kept field is a change of the report contract; rewrite the
files deliberately with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from _algebra import bent_action_formula, bent_family_operators
from qes import cli, families, structure
from qes.cli import _lambda_text, _z_text, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "rabi_reports.json"
SCHEMA1 = GOLDEN.with_name("rabi_reports_schema1.json")
SCHEMA1_KERNELS = GOLDEN.with_name("rabi_kernels_schema1.json")
LADDER_GOLDEN = GOLDEN.with_name("ladder_reports.json")
HUMAN_GOLDEN = GOLDEN.with_name("human_reports.json")
FAILING_GOLDEN = GOLDEN.with_name("failing_verify_report.json")
LADDER_COMMANDS = (
    "verify --n 3 --seed 0 --json",
    "commutators --all --seed 0 --json",
    "verify --n 8 --seed 7 --json",
    "commutators --family 2 --samples 13 --seed 5 --json",
)
# The commands whose schema-1 reports `golden/rabi_reports_schema1.json` holds.
SCHEMA1_COMMANDS = (
    "rabi --n 7 --type II --eigenfunctions --cutoff 100 --json",
    "rabi --n 14 --type I --cutoff 100 --json",
    "rabi --n 2 --type I --eigenfunctions --cutoff 100 --json",
    "rabi --n 30 --type II --cutoff 100 --json",
    "rabi --n 2 --type II --eigenfunctions --cutoff 100 --json",
    "table1 --cutoff 100 --json",
)
COMMANDS = SCHEMA1_COMMANDS + (
    "rabi --n 12 --type I --eigenfunctions --cutoff 100 --json",
)
FAILING_COMMAND = "verify --family 2 --n 2 --json"
HUMAN_COMMANDS = (
    "commutators --all --seed 0",
    "rabi --n 2 --type I --eigenfunctions --cutoff 100",
    "verify --n 2 --seed 3",
)


@contextlib.contextmanager
def bent_ladder():
    """A wrong J+ coefficient on f_1^+ and f_1^-, and x*J- for J-, with the
    ladder proof made to name the parts that bend breaks, so that `verify`
    checks every sample."""
    broken = ["J+ plus", "J+ minus", "J- plus", "J- minus"]
    with mock.patch.object(families, "action_formula", bent_action_formula), \
            mock.patch.object(families, "family_operators", bent_family_operators), \
            mock.patch.object(structure, "ladder_proof", lambda family: list(broken)):
        yield


def blocks_of(report):
    return report["grid"] if "grid" in report else [report["report"]]


def exact_fields(exit_code, report):
    return {"exit_code": exit_code, "status": report["status"],
            "blocks": [{name: value for name, value in block.items()
                        if not name.startswith("fock_gap_")} for block in blocks_of(report)]}


def output_of(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(command.split())
    return exit_code, out.getvalue()


def report_of(command):
    exit_code, text = output_of(command)
    return exit_code, json.loads(text)


def run(command):
    return exact_fields(*report_of(command))


def run_whole(command):
    exit_code, report = report_of(command)
    del report["elapsed_seconds"]
    return {"exit_code": exit_code, "report": report}


def run_human(command):
    exit_code, text = output_of(command)
    return {"exit_code": exit_code, "lines": text.splitlines()}


@pytest.mark.parametrize("command", COMMANDS)
def test_exact_report_fields_match_the_golden_file(command):
    golden = json.loads(GOLDEN.read_text())
    # Round-trip through JSON so floats and tuples compare as stored.
    assert json.loads(json.dumps(run(command))) == golden[command]


def interval_holds_one_root(poly, lo, hi):
    if lo == hi:
        return poly.eval(lo) == 0
    return poly.count_roots(lo, hi) == 1 and poly.eval(lo) * poly.eval(hi) < 0


@pytest.mark.parametrize("command", SCHEMA1_COMMANDS)
def test_schema_2_reports_carry_every_schema_1_value(command):
    sympy = pytest.importorskip("sympy")
    old = json.loads(SCHEMA1.read_text())[command]
    kernels = json.loads(SCHEMA1_KERNELS.read_text()).get(command)
    exit_code, report = report_of(command)
    assert (exit_code, report["status"]) == (old["exit_code"], old["status"])
    old_blocks = old["grid"] if "grid" in old else [old]
    assert len(old_blocks) == len(blocks_of(report))
    for was, block in zip(old_blocks, blocks_of(report)):
        exact = block["exact"]
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(exact["defining_poly"])],
                          sympy.Symbol("lam"))
        assert len(block["roots"]) == len(was["roots"]) == len(was["computed_ratios"])
        # The Fock gaps are keyed by the ratios to six digits, as before.
        assert list(block["fock_gap_at_computed"]) == [
            f"{ratio:.6f}" for ratio in was["computed_ratios"]]
        for old_root, root, old_ratio in zip(was["roots"], block["roots"], was["computed_ratios"]):
            assert exact["defining_poly"] == root["minimal_poly"] == old_root["minimal_poly"]
            assert old_root["multiplicity"] == 1
            certificate = dict(old_root["certificate"], kind="three-term-recurrence")
            assert exact["null_vector_certificate"] == certificate
            lo, hi = map(Fraction, root["lambda_interval"])
            old_lo, old_hi = map(Fraction, old_root["lambda_interval"])
            assert interval_holds_one_root(poly, lo, hi)
            assert lo <= old_hi and old_lo <= hi
            # Schema 1 refined to 14 digits of the isolation bound, not of
            # the root, so some of its intervals are wider than 1e-12.
            slack = max(1e-12, float((old_hi - old_lo) / old_hi))
            assert abs(root["ratio"] - old_ratio) <= slack * old_ratio
        assert block["computed_ratios"] == [root["ratio"] for root in block["roots"]]
        if "closed_form" in was:
            closed = dict(block["closed_form"])
            assert closed.pop("computed_lambdas") == pytest.approx(
                was["closed_form"].pop("computed_lambdas"), rel=1e-12)
            assert closed == was["closed_form"]
        if "eigenfunctions" not in was:
            assert "eigenfunctions" not in block and "null_vector" not in exact
            continue
        states = block["eigenfunctions"]
        assert len(states) == len(was["eigenfunctions"]) == len(block["roots"])
        for old_state in was["eigenfunctions"]:
            assert old_state["values"] == [_lambda_text(entry) for entry in exact["null_vector"]]
            assert old_state["psi1"] == [_z_text(exact["psi1"]["f"]),
                                         _z_text(exact["psi1"]["fprime"])]
            if "closed_form_ratio_check" in old_state:
                checks = old_state["closed_form_ratio_check"]["ratios"]
                assert exact["closed_form_ratio_check"] == [
                    {name: check[name] for name in ("index", "target_float", "matches_exactly")}
                    for check in checks]
        assert {name: exact[name] for name in kernels} == kernels


@pytest.mark.parametrize("command", LADDER_COMMANDS)
def test_whole_ladder_report_matches_the_golden_file(command):
    golden = json.loads(LADDER_GOLDEN.read_text())
    assert run_whole(command) == golden[command]


def test_failing_verify_report_matches_the_golden_file():
    with bent_ladder():
        assert run_whole(FAILING_COMMAND) == json.loads(FAILING_GOLDEN.read_text())


@pytest.mark.parametrize("command", HUMAN_COMMANDS)
def test_human_output_matches_the_golden_file(command):
    golden = json.loads(HUMAN_GOLDEN.read_text())
    assert run_human(command) == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({command: run(command) for command in COMMANDS},
                                 indent=1, sort_keys=True) + "\n")
    LADDER_GOLDEN.write_text(json.dumps({command: run_whole(command) for command in LADDER_COMMANDS},
                                        indent=1, sort_keys=True) + "\n")
    with bent_ladder():
        FAILING_GOLDEN.write_text(json.dumps(run_whole(FAILING_COMMAND), indent=1, sort_keys=True)
                                  + "\n")
    HUMAN_GOLDEN.write_text(json.dumps({command: run_human(command) for command in HUMAN_COMMANDS},
                                       indent=1, sort_keys=True) + "\n")
    sys.exit(0)
