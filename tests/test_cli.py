import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qes import cli, families, linalg, structure
from qes.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


# -- exit codes ---------------------------------------------------------------

def test_verify_single_family_succeeds(capsys):
    code, out = run_cli(capsys, "verify", "--family", "4", "--n", "2")
    assert code == 0
    assert "family 4 N=2: pass" in out
    assert out.rstrip().endswith("status: ok")


def test_unknown_family_is_a_usage_error(capsys):
    # The --family choices are the ids of the family table.
    for command in ("verify", "commutators"):
        for family in ("0", "7"):
            with pytest.raises(SystemExit) as err:
                main([command, "--family", family])
            assert err.value.code == 2


def test_subspace_size_cap_is_enforced(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "1", "--n", "9"])
    assert err.value.code == 2


def test_commutators_exit_reflects_catalog_agreement(capsys):
    code, out = run_cli(capsys, "commutators", "--family", "1")
    assert code == 0 and "all constants match" in out
    code, out = run_cli(capsys, "commutators", "--family", "2")
    assert code == 1
    assert "reference-discrepancy" in out
    assert "derived" in out


def check_args(*argv):
    return _build_parser().parse_args(list(argv))


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "-1"),
    ("verify", "--samples", "0"),
    ("verify", "--samples", "-2"),
    ("commutators", "--samples", "-1"),
    ("rabi", "--n", "-1", "--type", "I"),
    ("rabi", "--n", "2", "--type", "I", "--cutoff", "50"),
    ("rabi", "--n", "2", "--type", "I", "--cutoff", "2001"),
    ("table1", "--cutoff", "99"),
    ("table1", "--cutoff", "2001"),
    ("rabi", "--n", "41", "--type", "II"),
    ("verify", "--samples", "65"),
    ("commutators", "--samples", "65"),
    ("verify", "--n", "8", "--cap", "9"),
    ("commutators", "--all", "--family", "2"),
    ("table1", "--csv", "--json"),
    ("rabi", "--n", "2", "--type", "III"),
])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        check_args(*argv)
    assert err.value.code == 2


def test_non_integer_seed_variable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QES_SEED", "seven")
    with pytest.raises(SystemExit) as err:
        check_args("verify", "--n", "1")
    assert err.value.code == 2
    assert "QES_SEED" in capsys.readouterr().err
    assert check_args("verify", "--seed", "4").seed == 4


def test_in_range_arguments_pass_the_check(monkeypatch):
    monkeypatch.delenv("QES_SEED", raising=False)
    assert check_args("verify", "--n", "0", "--samples", "1").seed == 0
    assert check_args("commutators", "--samples", "1").samples == 1
    assert check_args("table1", "--cutoff", "100").cutoff == 100
    assert check_args("rabi", "--n", "2", "--type", "I", "--cutoff", "2000").cutoff == 2000
    assert check_args("rabi", "--n", "40", "--type", "I").n == 40
    assert check_args("verify", "--n", "8", "--samples", "64").samples == 64
    assert check_args("commutators", "--samples", "64").samples == 64


def test_rabi_requires_its_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["rabi", "--n", "2"])
    with pytest.raises(SystemExit):
        main(["rabi", "--type", "I"])


def test_rabi_reports_discrepancy_with_exit_one(capsys):
    code, out = run_cli(capsys, "rabi", "--n", "2", "--type", "I", "--cutoff", "150")
    assert code == 1
    assert "MISS" in out and "E/w" in out and "[ok]" in out
    assert "fock gap at computed" in out


def test_rabi_without_a_listed_energy_says_so(capsys):
    code, out = run_cli(capsys, "rabi", "--n", "0", "--type", "I", "--cutoff", "100")
    assert code == 0
    assert "), not listed [ok]" in out and "None" not in out


# -- json contracts -------------------------------------------------------------

def test_verify_json_layout(capsys):
    code, payload = run_json(capsys, "verify", "--family", "1", "--n", "1")
    assert code == 0
    assert payload["schema"] == 2
    assert payload["command"] == "verify"
    assert payload["status"] == "ok"
    assert payload["inputs"]["family"] == 1
    blocks = payload["checks"]
    assert len(blocks) == 1
    assert blocks[0]["ok"] is True
    assert blocks[0]["applications_per_sample"] == 8  # 2 operators x dim 4
    for sample in blocks[0]["sample_reports"]:
        assert sample["ok"] and sample["rank_ok"]
        assert sample["basis_rank"] == 4
    assert payload["ladder_proofs"] == {"1": []}


def test_commutators_json_carries_both_constant_sets(capsys):
    code, payload = run_json(capsys, "commutators", "--family", "3")
    assert code == 1
    block = payload["families"][0]
    assert block["status"] == "reference-discrepancy"
    assert block["mismatched_constants"] == ["c6p"]
    assert block["catalog"]["c6p"] != block["derived"]["c6p"]
    assert block["constants_match"]["c6p"] is False
    assert block["constants_match"]["c1m"] is True


def test_rabi_json_with_eigenfunctions(capsys):
    code, payload = run_json(capsys, "rabi", "--n", "2", "--type", "II",
                             "--cutoff", "150", "--eigenfunctions")
    assert code == 1
    block = payload["report"]
    assert block["computed_ratios"] == pytest.approx([0.9190481366], abs=1e-9)
    states = block["eigenfunctions"]
    assert len(states) == 1 and states[0]["exact"] is True
    exact = block["exact"]
    assert len(exact["null_vector"]) == len(states[0]["coefficient_floats"]) == 3
    assert exact["null_vector_certificate"]["kind"] == "three-term-recurrence"
    assert block["roots"][0]["minimal_poly"] == exact["defining_poly"]
    assert "multiplicity" not in block["roots"][0] and "certificate" not in block["roots"][0]


def readme_keys():
    """{object: key names} from the README's schema-2 table."""
    rows = {}
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`") in ("block", "exact", "roots[*]",
                                                        "eigenfunctions[*]"):
            rows[cells[0].strip("`")] = set(re.findall(r"`([a-z_0-9]+)`", cells[1]))
    return rows


def test_readme_lists_the_schema_2_keys(capsys):
    # The N = 2 run with eigenfunctions carries every optional key.
    _, payload = run_json(capsys, "rabi", "--n", "2", "--type", "I", "--eigenfunctions")
    block = payload["report"]
    assert readme_keys() == {
        "block": set(block),
        "exact": set(block["exact"]),
        "roots[*]": set(block["roots"][0]),
        "eigenfunctions[*]": set(block["eigenfunctions"][0]),
    }


def test_json_output_is_deterministic(capsys):
    _, first = run_json(capsys, "verify", "--family", "5", "--seed", "3")
    _, second = run_json(capsys, "verify", "--family", "5", "--seed", "3")
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


@pytest.mark.parametrize("argv", [("--n", "2"), ("--samples", "64")], ids=("n2", "samples64"))
def test_a_passing_verify_proves_each_family_once_and_checks_no_sample(argv, capsys, monkeypatch):
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called on a passing verify")
        return call

    for module, name in ((families, "verify_invariance"), (structure, "verify_invariance"),
                         (families, "_derivatives"), (families, "decompose"),
                         (linalg, "rref")):
        monkeypatch.setattr(module, name, refuse(name))
    proved = []
    ladder_proof = structure.ladder_proof
    monkeypatch.setattr(structure, "ladder_proof", lambda f: proved.append(f) or ladder_proof(f))
    code, payload = run_json(capsys, "verify", *argv)
    assert code == 0 and payload["status"] == "ok"
    assert proved == [1, 2, 3, 4, 5, 6]
    assert payload["ladder_proofs"] == {str(family): [] for family in proved}
    assert sum(len(check["sample_reports"]) for check in payload["checks"]) > 6


def test_seed_changes_the_sampled_points_but_not_the_verdict(capsys):
    _, first = run_json(capsys, "verify", "--family", "2", "--n", "1", "--seed", "1")
    _, second = run_json(capsys, "verify", "--family", "2", "--n", "1", "--seed", "2")
    assert first["status"] == second["status"] == "ok"
    params_first = [r["params"] for r in first["checks"][0]["sample_reports"]]
    params_second = [r["params"] for r in second["checks"][0]["sample_reports"]]
    assert params_first != params_second


def test_seed_env_variable_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("QES_SEED", "41")
    _, payload = run_json(capsys, "verify", "--family", "1", "--n", "0")
    assert payload["inputs"]["seed"] == 41


# -- table mode -------------------------------------------------------------------

def test_reference_table_csv_layout(capsys):
    code, out = run_cli(capsys, "table1", "--csv", "--cutoff", "150")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header[:4] == ["dimension", "type", "computed_ratios", "listed_ratios"]
    assert len(body) == 10
    assert {row[1] for row in body} == {"I", "II"}
    assert all(row[7] == "True" for row in body)  # energy column


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "qes.cli", "verify",
                           "--family", "6", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "status: ok" in proc.stdout
