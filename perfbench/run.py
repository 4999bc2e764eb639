#!/usr/bin/env python3
"""Benchmark of the `qes` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladders --seed 0 --seconds 50 --trace 0

A workload is a fixed list of `qes` invocations driven closed-loop by one
client: each invocation is one op, run in its own interpreter from the
checkout's `src/`, and the next starts when the previous one has exited.
Every run first sets up (interpreter start plus `import qes.cli`, several
times, and again after each timed pass), then runs the workload's commands at
tiny sizes as a discarded warm-up.

* `--trace 0` repeats the workload, at least twice, for about `--seconds`
  seconds, times each invocation from outside with `perf_counter` and
  prints the end-to-end metrics.
* `--trace 1` runs the workload once plainly and once more with each
  invocation in a fresh interpreter with spans around the layer boundaries
  (`perfbench/traced.py`), and prints the per-layer metrics.

Every report passes a correctness gate (`check`) against the values recorded
in `perfbench/expected.json`, and every report of one command must be
byte-identical across the run once `elapsed_seconds` is removed.  A detail
line with provenance, per-command timings and work counters precedes the
result, which is the last line of standard output: one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED: Dict[str, dict] = json.loads(
    (BENCH_DIR / "expected.json").read_text())["commands"]

# Each workload lists (metric name, command line) pairs; the name is how the
# detail line reports that invocation's wall time, and the traced run reports
# it as the per-layer metric `cli.<name>`.  It is not an end-to-end metric:
# one command has a few samples a run, and their medians spread across runs
# nearly as far as the largest bound allows, on a host whose speed drifts.
#   ladders:  diffop composition, apply_op/decompose and structure; never
#             touches the characteristic polynomial, root isolation,
#             extension fields or numpy.
#   rabi:     the whole exact spectral stack at N = 14 (the Fock cutoff stays
#             at its default, so the float oracle is under 1 % of it), then
#             eigenfunction assembly over Q(sqrt2, sqrt3) at N = 10, then 33
#             dense Fock diagonalizations of about 700 x 700 around small
#             exact solves.  The sizes keep a pass near 12 s, so a run's
#             median has several passes; N = 16, a 1000 cutoff and N = 12
#             make a pass 25 s long, and a run two passes.
WORKLOADS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "ladders": (("verify_s", "verify --n 8"),
                ("commutators_s", "commutators --all")),
    "rabi": (("rabi_solve_s", "rabi --n 14 --type II"),
             ("rabi_states_s", "rabi --n 10 --type I --eigenfunctions"),
             ("table1_s", "table1 --cutoff 700")),
}
COMMAND_TIMES = tuple(name for commands in WORKLOADS.values() for name, _ in commands)
# The discarded warm-up runs the same commands at tiny sizes: it pages in the
# interpreter, numpy and its BLAS (a cold first eigvalsh took 0.8 s against
# 0.013 s warm) and writes the bytecode cache, at a small share of a pass.
WARMUPS: Dict[str, Tuple[str, ...]] = {
    "ladders": ("verify --n 1", "commutators --family 2"),
    "rabi": ("rabi --n 4 --type I --eigenfunctions", "table1 --cutoff 100"),
}
# At least two timed passes, so every command's report is compared with a
# second one and each median has two samples.
MIN_PASSES = 2

# Same-code reruns agree to rounding; the solver's roots are refined to 14
# digits.  The Fock oracle confirms a computed root to about 1e-11.
RATIO_TOLERANCE = 1e-9
FOCK_GAP_LIMIT = 1e-8

# Set-up is timed at the start of a run and again after every timed pass, so
# its median spans the whole run, as the pass timings do, and not only its
# first seconds; the machine's speed drifts within a minute.
SETUP_REPEATS = 5
SETUP_REPEATS_PER_PASS = 2
CHILD_TIMEOUT_S = 150
# One BLAS thread: the oracle's float reductions then run in a fixed order,
# and its time does not depend on a second core being free.
BLAS_THREADS = 1
ELAPSED_LINE = re.compile(rb'^ *"elapsed_seconds": [^\n]*\n', re.MULTILINE)

# Spans recorded by the traced run; those in SELF_SPANS also report their
# time minus the time of the spans they enclose.
SPANS = (
    "cli.main", "rabi.solve_frequencies", "rabi.assemble_eigenfunctions",
    "rabi.fock_truncation_check", "linalg.charpoly", "linalg.minimal_factors",
    "linalg.isolate_real_roots", "linalg.refine_root", "linalg.ext_nullspace",
    "families.matrix_rep", "families.verify_invariance", "families.apply_op",
    "families.decompose", "diffop.compose", "structure.closure_suite",
    "structure.derive_constants",
)
SELF_SPANS = (
    "cli.main", "rabi.solve_frequencies", "rabi.assemble_eigenfunctions",
    "linalg.minimal_factors", "families.matrix_rep",
    "families.verify_invariance", "structure.closure_suite",
    "structure.derive_constants",
)
# Work and size counts read from the reports; the traced run adds the
# characteristic polynomial's size and the source line count.
REPORT_COUNTERS = (
    "rabi.n_max", "rabi.roots", "rabi.minimal_poly.degree_sum",
    "rabi.fock.calls", "rabi.fock.matrix_dim_max",
    "families.verify.applications",
)
COUNTERS = REPORT_COUNTERS + (
    "linalg.charpoly.degree_max", "linalg.charpoly.coeff_bits_max",
    "cli.src_lines",
)
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "passed_ops_share": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {"cli.cpu_s": "s", "cli.tracing_overhead_s": "s"}
    units.update((f"cli.{name}", "s") for name in COMMAND_TIMES)
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in SELF_SPANS:
            units[f"{name}.self_s"] = "s"
    units.update((name, "count") for name in COUNTERS)
    return units


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def _ratio_problems(label: str, block: dict, want: List[float]) -> List[str]:
    got = block["computed_ratios"]
    problems = []
    if len(got) != len(want) or any(
            abs(a - b) > RATIO_TOLERANCE for a, b in zip(got, want)):
        problems.append(f"{label}: ratios {got} differ from recorded {want}")
    bad = {key: gap for key, gap in block["fock_gap_at_computed"].items()
           if not gap <= FOCK_GAP_LIMIT}
    if bad or len(block["fock_gap_at_computed"]) != len(want):
        problems.append(f"{label}: Fock gaps at computed roots {bad or 'missing'}")
    return problems


def _check_verify(report: dict, want: dict) -> List[str]:
    bad = [f"family {c['family']} N={c['n']}" for c in report["checks"]
           if not (c["ok"] and all(r["ok"] and r["rank_ok"] and not r["mismatches"]
                                   for r in c["sample_reports"]))]
    problems = [f"verify failed for {', '.join(bad)}"] if bad else []
    if len(report["checks"]) != want["checks"]:
        problems.append(f"verify ran {len(report['checks'])} checks, "
                        f"expected {want['checks']}")
    return problems


def _check_commutators(report: dict, want: dict) -> List[str]:
    derived = {str(b["family"]): b["derived"] for b in report["families"]}
    corrections = {str(b["family"]): sorted(k for k, same in b["constants_match"].items()
                                            if not same)
                   for b in report["families"]}
    problems = []
    if derived != want["derived"]:
        problems.append("derived closure constants differ from the recorded strings")
    if corrections != want["corrections"]:
        problems.append(f"catalog corrections {corrections} differ from "
                        f"the recorded {want['corrections']}")
    return problems


def _check_rabi(report: dict, want: dict) -> List[str]:
    block = report["report"]
    problems = _ratio_problems("rabi", block, want["ratios"])
    if "eigenfunctions" in want:
        states = block.get("eigenfunctions", [])
        if len(states) != len(want["ratios"]) or not all(s["exact"] for s in states):
            problems.append("eigenfunctions missing or not exact")
    return problems


def _check_table1(report: dict, want: dict) -> List[str]:
    got = {f"{b['n']}/{b['type']}": b for b in report["grid"]}
    if sorted(got) != sorted(want["ratios"]):
        return [f"table1 grid {sorted(got)} differs from {sorted(want['ratios'])}"]
    problems = []
    for key, ratios in want["ratios"].items():
        problems += _ratio_problems(f"table1 {key}", got[key], ratios)
    return problems


CHECKS = {"verify": _check_verify, "commutators": _check_commutators,
          "rabi": _check_rabi, "table1": _check_table1}


def check(command: str, exit_code: Optional[int], stdout: bytes) -> List[str]:
    """Problems with one invocation's exit code and JSON report (empty if none)."""
    want = EXPECTED[command]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {exit_code} without a JSON report"]
    if (exit_code, report.get("status")) != (want["exit"], want["status"]):
        return [f"exit {exit_code}/status {report.get('status')!r}, expected "
                f"{want['exit']}/{want['status']!r}"]
    try:
        return CHECKS[command.split()[0]](report, want)
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


# ---------------------------------------------------------------------------
# work counters, read from the reports
# ---------------------------------------------------------------------------

def report_counters(reports: List[dict]) -> Dict[str, int]:
    """Work and size counts of one pass over a workload; they repeat exactly."""
    counts = dict.fromkeys(REPORT_COUNTERS, 0)
    for report in reports:
        blocks = report.get("grid") or ([report["report"]] if "report" in report else [])
        for block in blocks:
            counts["rabi.n_max"] = max(counts["rabi.n_max"], block["n"])
            counts["rabi.roots"] += len(block["roots"])
            counts["rabi.minimal_poly.degree_sum"] += sum(
                len(root["minimal_poly"]) - 1 for root in block["roots"])
            counts["rabi.fock.calls"] += (len(block["fock_gap_at_computed"])
                                          + len(block["fock_gap_at_listed"]))
            cutoff = block["fock_cutoff"]
            counts["rabi.fock.matrix_dim_max"] = max(
                counts["rabi.fock.matrix_dim_max"], 2 * len(range(0, cutoff, 2)))
        counts["families.verify.applications"] += sum(
            c["total_applications"] for c in report.get("checks", ()))
    return counts


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "qes").glob("*.py")))


# ---------------------------------------------------------------------------
# running invocations
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("QES_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Op:
    """One finished invocation: its outcome, timings and gate verdict."""

    name: str
    command: str
    exit_code: Optional[int]
    stdout: bytes
    wall: float
    cpu: float
    problems: List[str]
    report: Optional[dict] = None
    trace: Optional[dict] = None


def run_child(argv: List[str]) -> Tuple[Optional[int], bytes, float, float]:
    """Run one child to completion; returns (exit, stdout, wall s, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        exit_code, stdout = proc.returncode, proc.stdout
        if proc.returncode and not proc.stdout:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    except subprocess.TimeoutExpired:
        exit_code, stdout = None, b""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return exit_code, stdout, wall, cpu


@dataclass
class Bench:
    """State of one benchmark run: the seed and every report digest seen."""

    seed: int
    digests: Dict[str, str] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)

    def argv(self, command: str) -> List[str]:
        return command.split() + ["--seed", str(self.seed), "--json"]

    def invoke(self, name: str, command: str, traced: bool = False) -> Op:
        if traced:
            exit_code, raw, wall, cpu = run_child(
                [sys.executable, str(BENCH_DIR / "traced.py"), *self.argv(command)])
            try:
                trace = json.loads(raw.splitlines()[-1])
            except (ValueError, IndexError):
                trace = {"exit": exit_code, "stdout": "", "spans": {}, "sizes": {}}
            exit_code, stdout = trace["exit"], trace["stdout"].encode()
        else:
            exit_code, stdout, wall, cpu = run_child(
                [sys.executable, "-m", "qes.cli", *self.argv(command)])
            trace = None
        op = Op(name, command, exit_code, stdout, wall, cpu,
                check(command, exit_code, stdout), trace=trace)
        if not op.problems:
            op.report = json.loads(stdout)
            digest = hashlib.sha256(ELAPSED_LINE.sub(b"", stdout)).hexdigest()
            first = self.digests.setdefault(command, digest)
            if digest != first:
                op.problems.append("report differs from this command's first "
                                   "report of the run (elapsed time aside)")
        for problem in op.problems:
            print(f"perfbench: FAILED {command}: {problem}", file=sys.stderr)
        self.ops.append(op)
        return op

    def iteration(self, workload: str, traced: bool = False) -> List[Op]:
        return [self.invoke(name, command, traced)
                for name, command in WORKLOADS[workload]]

    def warm_up(self, workload: str) -> None:
        for command in WARMUPS[workload]:
            self.invoke("warmup", command)

    def setup(self, repeats: int = SETUP_REPEATS, prime: bool = True) -> List[float]:
        """Wall times of interpreter start plus `import qes.cli`."""
        argv = [sys.executable, "-c", "import qes.cli"]
        if prime:
            run_child(argv)  # writes the bytecode cache; not timed
        times = []
        for _ in range(repeats):
            exit_code, _, wall, _ = run_child(argv)
            if exit_code != 0:
                raise SystemExit("perfbench: `import qes.cli` failed")
            times.append(wall)
        return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _counters_of(ops: List[Op]) -> Optional[Dict[str, int]]:
    if any(op.report is None for op in ops):
        return None
    return report_counters([op.report for op in ops])


def end_to_end(setup: List[float], passes: List[List[Op]],
               bench: Bench) -> Dict[str, float]:
    failed = sum(1 for op in bench.ops if op.problems)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(op.wall for op in ops) for ops in passes),
        "peak_rss_mb": peak_kb / 1024,
        "passed_ops_share": (len(bench.ops) - failed) / len(bench.ops),
    }


def per_layer(plain: List[Op], traced: List[Op]) -> Dict[str, float]:
    metrics: Dict[str, float] = {
        "cli.cpu_s": sum(op.cpu for op in plain),
        "cli.tracing_overhead_s": (sum(op.wall for op in traced)
                                   - sum(op.wall for op in plain)),
    }
    for name in COMMAND_TIMES:
        walls = [op.wall for op in plain if op.name == name]
        metrics[f"cli.{name}"] = statistics.median(walls) if walls else 0.0
    for name in SPANS:
        calls = total = own = 0.0
        for op in traced:
            span = op.trace["spans"].get(name)
            if span:
                calls, total, own = calls + span[0], total + span[1], own + span[2]
        metrics[f"{name}_s"] = total
        metrics[f"{name}.calls"] = int(calls)
        if name in SELF_SPANS:
            metrics[f"{name}.self_s"] = own
    metrics.update(_counters_of(traced) or dict.fromkeys(REPORT_COUNTERS, 0))
    sizes = [op.trace["sizes"] for op in traced]
    metrics["linalg.charpoly.degree_max"] = max(
        (s.get("charpoly_degree", 0) for s in sizes), default=0)
    metrics["linalg.charpoly.coeff_bits_max"] = max(
        (s.get("charpoly_coeff_bits", 0) for s in sizes), default=0)
    metrics["cli.src_lines"] = src_lines()
    return metrics


def counter_flags(passes: List[List[Op]], traced: Optional[Dict[str, float]]) -> List[str]:
    """Counters that differ between passes of the same code."""
    flags = []
    counts = [c for c in map(_counters_of, passes) if c is not None]
    for name in REPORT_COUNTERS:
        values = {c[name] for c in counts}
        if traced is not None:
            values.add(traced[name])
        if len(values) > 1:
            flags.append(f"counter {name} differs between passes: {sorted(values)}")
    if traced is not None and traced["rabi.fock.calls"] != traced[
            "rabi.fock_truncation_check.calls"]:
        flags.append("Fock calls in the reports differ from the traced call count")
    return flags


def provenance(seed: int) -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
    }


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qes" / "cli.py").is_file():
        print(f"perfbench: no qes sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.seed)
    setup = bench.setup()
    bench.warm_up(args.workload)
    passes: List[List[Op]] = []
    traced_metrics = None
    if args.trace:
        passes.append(bench.iteration(args.workload))
        traced = bench.iteration(args.workload, traced=True)
        traced_metrics = per_layer(passes[0], traced)
    else:
        started = time.perf_counter()
        while True:
            passes.append(bench.iteration(args.workload))
            setup += bench.setup(SETUP_REPEATS_PER_PASS, prime=False)
            elapsed = time.perf_counter() - started
            typical = statistics.median(sum(op.wall for op in ops) for ops in passes)
            # Stop when one more pass would end nearer past `--seconds` than
            # this one ends before it, so a run measures about `--seconds`.
            if len(passes) >= MIN_PASSES and elapsed + typical / 2 > args.seconds:
                break
    flags = counter_flags(passes, traced_metrics)
    for flag in flags:
        print(f"perfbench: FLAGGED {flag}", file=sys.stderr)

    commands: Dict[str, dict] = {}
    for ops in passes:
        for op in ops:
            commands.setdefault(op.name, {"command": op.command, "samples": []})
            commands[op.name]["samples"].append(op.wall)
    for entry in commands.values():
        entry["median_s"] = statistics.median(entry["samples"])
    detail = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "setup_samples_s": setup,
        "warmup_walls_s": {op.command: op.wall for op in bench.ops
                           if op.name == "warmup"},
        "passes": len(passes),
        "commands": commands,
        "counters": _counters_of(passes[0]),
        "failures": [f"{op.command}: {p}" for op in bench.ops for p in op.problems],
        "flags": flags,
    }
    print(json.dumps({"detail": detail}))

    if args.trace:
        metrics = _with_units(traced_metrics, per_layer_units())
    else:
        metrics = _with_units(end_to_end(setup, passes, bench), END_TO_END)
    failed = sum(1 for op in bench.ops if op.problems)
    print(json.dumps({
        "correct": failed == 0 and not flags,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
