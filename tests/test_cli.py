import csv
import io
import json
import subprocess
import sys

import pytest

from qes import families
from qes.cli import _build_parser, _check_args, main


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
    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "7"])
    assert err.value.code == 2


def test_subspace_size_cap_is_enforced(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "1", "--n", "9"])
    assert err.value.code == 2
    code, _ = run_cli(capsys, "verify", "--family", "1", "--n", "6", "--cap", "6")
    assert code == 0


def test_commutators_exit_reflects_catalog_agreement(capsys):
    code, out = run_cli(capsys, "commutators", "--family", "1")
    assert code == 0 and "all constants match" in out
    code, out = run_cli(capsys, "commutators", "--family", "2")
    assert code == 1
    assert "reference-discrepancy" in out
    assert "derived" in out


def check_args(*argv):
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    _check_args(parser, args)
    return args


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


# -- json contracts -------------------------------------------------------------

def test_verify_json_layout(capsys):
    code, payload = run_json(capsys, "verify", "--family", "1", "--n", "1")
    assert code == 0
    assert payload["schema"] == 1
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
    assert all("value" in c and "float" in c for c in states[0]["coefficients"])
    roots = block["roots"]
    assert roots[0]["certificate"]["kind"] == "extension-nullspace"


def test_json_output_is_deterministic(capsys):
    _, first = run_json(capsys, "verify", "--family", "5", "--seed", "3")
    _, second = run_json(capsys, "verify", "--family", "5", "--seed", "3")
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_reports_do_not_depend_on_a_warm_basis_cache(capsys):
    for argv in (("verify", "--family", "3", "--n", "3", "--json"),
                 ("verify", "--n", "2", "--seed", "5", "--json")):
        families._basis.cache_clear()
        outputs, misses = [], []
        for _ in range(2):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outputs.append("".join(line for line in out.splitlines(keepends=True)
                                   if '"elapsed_seconds"' not in line))
            misses.append(families._basis.cache_info().misses)
        assert misses[0] > 0 and misses[1] == misses[0]  # the second run is all hits
        assert outputs[0] == outputs[1]


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
