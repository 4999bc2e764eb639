"""The exact fields of two `qes rabi --json` reports against a golden file.

`golden/rabi_reports.json` holds, per command, the exit code and every
report field that does not depend on numpy: status, computed ratios, and
per root the isolating interval, defining polynomial, multiplicity,
certificate and null-vector floats, plus the eigenfunction coefficient and
psi_1 strings.  The Fock gaps are left out because they depend on the BLAS.
A change to any kept field is a change of the report contract; rewrite the
file deliberately with

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
COMMANDS = (
    "rabi --n 7 --type II --eigenfunctions --cutoff 100 --json",
    "rabi --n 14 --type I --cutoff 100 --json",
)
ROOT_FIELDS = ("lambda_interval", "minimal_poly", "multiplicity", "certificate",
               "null_vector_floats")


def exact_fields(exit_code, report):
    block = report["report"]
    fields = {
        "exit_code": exit_code,
        "status": report["status"],
        "computed_ratios": block["computed_ratios"],
        "roots": [{name: root[name] for name in ROOT_FIELDS} for root in block["roots"]],
    }
    if "eigenfunctions" in block:
        fields["eigenfunctions"] = [
            {"values": [coefficient["value"] for coefficient in state["coefficients"]],
             "psi1": [state["psi1"]["f_coefficient"], state["psi1"]["fprime_coefficient"]]}
            for state in block["eigenfunctions"]
        ]
    return fields


def run(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(command.split())
    return exact_fields(exit_code, json.loads(out.getvalue()))


@pytest.mark.parametrize("command", COMMANDS)
def test_exact_report_fields_match_the_golden_file(command):
    golden = json.loads(GOLDEN.read_text())
    # Round-trip through JSON so floats and tuples compare as stored.
    assert json.loads(json.dumps(run(command))) == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({command: run(command) for command in COMMANDS},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
