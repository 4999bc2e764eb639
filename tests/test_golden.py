"""`qes` JSON reports against golden files.

`golden/ladder_reports.json` holds, for each of `LADDER_COMMANDS`
(`verify` and `commutators` runs, among them the `verify --n 8` of the
benchmark's `ladders` workload), the exit code and the whole report except
`elapsed_seconds`.  They pin the sampler's draw order and the indexing of
the closed-form ladder actions.

`golden/rabi_reports.json` holds, per command, the exit code and every
report field that does not come from the Fock oracle: status, computed
ratios, and per root the isolating interval, defining polynomial,
multiplicity, certificate and null-vector floats, plus the eigenfunction
coefficient and psi_1 strings and, at N = 2, the closed-form report and
each state's closed-form ratio check.  For `table1` it holds these fields
for every grid block.  The Fock gaps are left out because their last bits
depend on how the oracle's float arithmetic is ordered.

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
from pathlib import Path

import pytest

from qes.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "rabi_reports.json"
LADDER_GOLDEN = GOLDEN.with_name("ladder_reports.json")
HUMAN_GOLDEN = GOLDEN.with_name("human_reports.json")
LADDER_COMMANDS = (
    "verify --n 3 --seed 0 --json",
    "commutators --all --seed 0 --json",
    "verify --n 8 --seed 7 --json",
    "commutators --family 2 --samples 13 --seed 5 --json",
)
COMMANDS = (
    "rabi --n 7 --type II --eigenfunctions --cutoff 100 --json",
    "rabi --n 14 --type I --cutoff 100 --json",
    "rabi --n 2 --type I --eigenfunctions --cutoff 100 --json",
    "rabi --n 30 --type II --cutoff 100 --json",
    "rabi --n 2 --type II --eigenfunctions --cutoff 100 --json",
    "table1 --cutoff 100 --json",
)
HUMAN_COMMANDS = (
    "commutators --all --seed 0",
    "rabi --n 2 --type I --eigenfunctions --cutoff 100",
    "verify --n 2 --seed 3",
)
ROOT_FIELDS = ("lambda_interval", "minimal_poly", "multiplicity", "certificate",
               "null_vector_floats")


def exact_fields(exit_code, report):
    fields = {"exit_code": exit_code, "status": report["status"]}
    if "grid" in report:
        fields["grid"] = [exact_block_fields(block) for block in report["grid"]]
    else:
        fields.update(exact_block_fields(report["report"]))
    return fields


def exact_block_fields(block):
    fields = {
        "computed_ratios": block["computed_ratios"],
        "roots": [{name: root[name] for name in ROOT_FIELDS} for root in block["roots"]],
    }
    if "closed_form" in block:
        fields["closed_form"] = block["closed_form"]
    if "eigenfunctions" in block:
        fields["eigenfunctions"] = [exact_state_fields(state) for state in block["eigenfunctions"]]
    return fields


def exact_state_fields(state):
    fields = {"values": [coefficient["value"] for coefficient in state["coefficients"]],
              "psi1": [state["psi1"]["f_coefficient"], state["psi1"]["fprime_coefficient"]]}
    if "closed_form_ratio_check" in state:
        fields["closed_form_ratio_check"] = state["closed_form_ratio_check"]
    return fields


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


@pytest.mark.parametrize("command", LADDER_COMMANDS)
def test_whole_ladder_report_matches_the_golden_file(command):
    golden = json.loads(LADDER_GOLDEN.read_text())
    assert run_whole(command) == golden[command]


@pytest.mark.parametrize("command", HUMAN_COMMANDS)
def test_human_output_matches_the_golden_file(command):
    golden = json.loads(HUMAN_GOLDEN.read_text())
    assert run_human(command) == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({command: run(command) for command in COMMANDS},
                                 indent=1, sort_keys=True) + "\n")
    LADDER_GOLDEN.write_text(json.dumps({command: run_whole(command) for command in LADDER_COMMANDS},
                                        indent=1, sort_keys=True) + "\n")
    HUMAN_GOLDEN.write_text(json.dumps({command: run_human(command) for command in HUMAN_COMMANDS},
                                       indent=1, sort_keys=True) + "\n")
    sys.exit(0)
