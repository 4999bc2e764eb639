"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs each command once plainly and once traced, checks that every metric
named in BENCHMARK.json is emitted, and that corrupted reports, a changed
report and a checkout without sources are all caught.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# The warm-up commands of all workloads, in the order the checks below use.
TINY = tuple(("tiny", command) for commands in run.WARMUPS.values()
             for command in commands)


@pytest.fixture(scope="module")
def tiny():
    bench = run.Bench(seed=3)
    setup = bench.setup()
    plain = [bench.invoke(name, command) for name, command in TINY]
    traced = [bench.invoke(name, command, traced=True) for name, command in TINY]
    return bench, setup, plain, traced


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def test_every_named_metric_is_emitted(tiny):
    bench, setup, plain, traced = tiny
    assert [p for op in bench.ops for p in op.problems] == []
    e2e = run.end_to_end(setup, [plain], bench)
    layers = run.per_layer(plain, traced)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()
    assert set(e2e) == set(run.END_TO_END)
    assert set(layers) == set(run.per_layer_units())
    assert all(value > 0 for value in e2e.values())
    assert run.counter_flags([plain, plain], layers) == []
    for name in run.SPANS:  # the tiny commands reach every layer boundary
        assert layers[f"{name}.calls"] > 0 and layers[f"{name}_s"] > 0, name
    assert layers["rabi.fock_truncation_check.calls"] == layers["rabi.fock.calls"]


def _corrupt(op, edit):
    report = json.loads(op.stdout)
    edit(report)
    return run.check(op.command, op.exit_code, json.dumps(report).encode())


def test_corrupted_reports_trip_the_gate(tiny):
    _, _, plain, _ = tiny
    verify, commutators, rabi, table1 = plain
    assert run.check(rabi.command, 0, rabi.stdout) != []
    assert run.check(rabi.command, rabi.exit_code, b"not json") != []

    def shift_ratio(report):
        report["report"]["computed_ratios"][0] += 1e-6

    def fock_miss(report):
        gaps = report["grid"][3]["fock_gap_at_computed"]
        gaps[next(iter(gaps))] = 1e-3

    def failed_check(report):
        report["checks"][2]["sample_reports"][0]["rank_ok"] = False

    def wrong_constant(report):
        report["families"][0]["derived"]["c7p"] = "0"

    def lost_correction(report):
        report["families"][0]["constants_match"]["c7p"] = True

    def status_flip(report):
        report["status"] = "ok"

    for op, edit in ((rabi, shift_ratio), (table1, fock_miss), (verify, failed_check),
                     (commutators, wrong_constant), (commutators, lost_correction),
                     (table1, status_flip)):
        assert _corrupt(op, edit) != [], edit.__name__
        assert _corrupt(op, lambda report: None) == []


def test_a_changed_report_is_a_failed_op(tiny):
    bench = run.Bench(seed=3, digests={"verify --n 1": "0" * 64})
    op = bench.invoke("verify_s", "verify --n 1")
    assert op.problems and "differs" in op.problems[0]


def test_recorded_corrections_match_the_documented_forms():
    sympy = pytest.importorskip("sympy")
    alpha, n, s = sympy.symbols("alpha n s")
    derived = run.EXPECTED["commutators --all"]["derived"]

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals={"alpha": alpha, "n": n, "s": s})

    assert sympy.expand(parse(derived["2"]["c7p"])
                        - (alpha - n) * (s + 1) * (s - 2 - 2 * n)) == 0
    assert sympy.expand(parse(derived["3"]["c6p"]) - (s - n) * (n + 2 - s)) == 0


def test_a_checkout_without_sources_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladders", "--seed", "0", "--seconds", "1"]) == 2
