"""Command-line front end: exact verification suites and the Rabi solver.

Subcommands:
  verify       ladder invariance of one family (or all six)
  commutators  closure relations against the coefficient catalog
  rabi         frequencies, Fock cross-check, eigenfunctions for one lock
  table1       the full frequency grid (dims 3, 5, 6, 7, 8, both types)

Every subcommand accepts --json for a machine-readable report carrying
"schema": 2; for a fixed seed the JSON is byte-identical between runs
except for the elapsed-time field.  Exit status: 0 when every check
passes, 1 when any check fails or a reference value disagrees with the
computed result, 2 for usage errors.  The sampling seed defaults to 0,
can be set through the QES_SEED environment variable, and is overridden
by --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from .families import FamilySpec, verify_invariance
from .linalg import SQUAREFREE_PRIME
from .rabi import (REFERENCE_FREQUENCY_RATIOS, TWO_G, RabiConfig,
                   assemble_eigenfunctions, fock_truncation_check,
                   frequency_table_report, solve_frequencies)
from .sampling import sample_grid
from .scalars import QuadScalar, format_scalar
from .structure import closure_suite

SCHEMA_VERSION = 2
_TABLE_SIZES = (2, 4, 5, 6, 7)
# Each Fock-oracle probe is one pass over a chain of cutoff/2 entries;
# table1 --cutoff 2000 takes about 0.26 s on a 2-vCPU host.
_CUTOFF_RANGE = (100, 2000)
# rabi --n 40 --type I --eigenfunctions takes 1.0-1.3 s on a 2-vCPU host, most of it
# the partner component; without --eigenfunctions it takes 0.2 s.
_RABI_N_CAP = 40
# verify --n 8 takes 0.29-0.34 s on a 2-vCPU host, growing like N^2 and
# linearly in --samples: verify --n 8 --samples 64 takes 1.1-1.6 s.
# commutators forms its residuals once and evaluates them per sample, so
# commutators --samples 64 takes about 0.2 s.
_VERIFY_N_CAP = 8
_SAMPLES_CAP = 64


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadScalar):
        return format_scalar(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def _finish(report: Dict[str, object], args, started: float,
            human_lines: List[str]) -> int:
    report["schema"] = SCHEMA_VERSION
    report["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    if args.json:
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)
        print(f"status: {report['status']}")
    return 0 if report["status"] == "ok" else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    started = time.perf_counter()
    families = [args.family] if args.family else [1, 2, 3, 4, 5, 6]
    sizes = [args.n] if args.n is not None else [0, 1, 2, 3]
    checks = []
    lines = []
    all_ok = True
    for family in families:
        for n_max in sizes:
            reports = []
            for params in sample_grid(family, n_max, args.samples, args.seed):
                spec = FamilySpec(family, n_max, **params)
                report = verify_invariance(spec)
                report["params"] = {k: str(v) for k, v in params.items()}
                reports.append(report)
            ok = all(r["ok"] and r["rank_ok"] for r in reports)
            all_ok = all_ok and ok
            per_sample = reports[0]["checks"] if reports else 0
            checks.append({
                "family": family,
                "n": n_max,
                "samples": args.samples,
                "applications_per_sample": per_sample,
                "total_applications": per_sample * len(reports),
                "ok": ok,
                "sample_reports": reports,
            })
            word = "pass" if ok else "FAIL"
            lines.append(
                f"family {family} N={n_max}: {word} "
                f"({per_sample} basis applications x {args.samples} samples)")
    report = {
        "command": "verify",
        "inputs": {"family": args.family, "n": args.n,
                   "samples": args.samples, "seed": args.seed},
        "checks": checks,
        "status": "ok" if all_ok else "fail",
    }
    return _finish(report, args, started, lines)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def _cmd_commutators(args) -> int:
    started = time.perf_counter()
    families = [args.family] if args.family else [1, 2, 3, 4, 5, 6]
    blocks = []
    lines = []
    worst = "ok"
    for family in families:
        block = closure_suite(family, samples=args.samples, seed=args.seed)
        blocks.append(block)
        if block["status"] != "ok":
            worst = block["status"]
        mismatched = sorted(name for name, same in block["constants_match"].items()
                            if not same)
        note = "all constants match" if not mismatched else (
            "derived correction for " + ", ".join(mismatched))
        lines.append(f"family {family}: {block['status']} ({note})")
        for name in mismatched:
            lines.append(f"    {name}: catalog {block['catalog'][name]}")
            lines.append(f"    {name}: derived {block['derived'][name]}")
    report = {
        "command": "commutators",
        "inputs": {"family": args.family, "samples": args.samples,
                   "seed": args.seed},
        "families": blocks,
        "status": worst,
    }
    return _finish(report, args, started, lines)


# ---------------------------------------------------------------------------
# rabi
# ---------------------------------------------------------------------------

def _rabi_block(n_max: int, sol_type: str, cutoff: int,
                eigenfunctions: bool) -> Dict[str, object]:
    config = RabiConfig(n_max, sol_type)
    result = solve_frequencies(config)
    report = frequency_table_report(result)
    report["g_ratio_exact"] = format_scalar(TWO_G / 2)
    report["g_ratio_float"] = float(TWO_G) / 2
    report["fock_cutoff"] = cutoff
    report["fock_gap_at_computed"] = {
        f"{root.ratio:.6f}": fock_truncation_check(config, root.ratio, cutoff)
        for root in result.roots
    }
    report["fock_gap_at_listed"] = {
        f"{value:.5f}": fock_truncation_check(config, value, cutoff)
        for value in REFERENCE_FREQUENCY_RATIOS.get((n_max, sol_type), ())
    }
    # Schema 2 reports each exact object once, in `exact`; `minimal_poly`
    # stays in every root only while the benchmark's counters read it there.
    minimal_poly = [str(c) for c in result.lambda_charpoly]
    report["exact"] = {
        "defining_poly": minimal_poly,
        "squarefree_modulo": SQUAREFREE_PRIME,
        "null_vector_certificate": {"kind": "three-term-recurrence", "rank": n_max,
                                    "dimension": n_max + 1, "nullity": 1},
    }
    report["roots"] = [
        {
            "ratio": root.ratio,
            "lambda": root.lambda_float,
            "lambda_interval": [str(root.lambda_interval[0]),
                                str(root.lambda_interval[1])],
            "minimal_poly": minimal_poly,
            "null_vector_floats": root.null_vector_floats,
        }
        for root in result.roots
    ]
    if eigenfunctions:
        shared, report["eigenfunctions"] = assemble_eigenfunctions(result)
        report["exact"].update(shared)
    return report


def _rabi_lines(report: Dict[str, object]) -> List[str]:
    lines = [f"dim {report['dimension']} (N={report['n']}), type {report['type']}"]
    computed = ", ".join(f"{value:.6f}" for value in report["computed_ratios"])
    lines.append(f"  2w/w0 computed: [{computed}]")
    for entry in report["containment"]:
        verdict = "ok" if entry["contained"] else "MISS"
        lines.append(
            f"  listed {entry['listed']:.5f}: nearest computed gap "
            f"{entry['nearest_computed_gap']:.2e} [{verdict}]")
    energy_tag = "ok" if report["energy_ok"] else "MISS"
    lines.append(
        f"  E/w = {report['energy_ratio']:.6f} "
        f"(exact {report['energy_ratio_exact']}), listed "
        f"{report['energy_listed']} [{energy_tag}]")
    lines.append(
        f"  g/w = {report['g_ratio_exact']} = {report['g_ratio_float']:.6f}")
    for label, gaps in (("computed", report["fock_gap_at_computed"]),
                        ("listed", report["fock_gap_at_listed"])):
        for key, gap in gaps.items():
            lines.append(
                f"  fock gap at {label} {key} (cutoff {report['fock_cutoff']}): "
                f"{gap:.2e}")
    if "closed_form" in report:
        closed = report["closed_form"]
        lines.append(
            f"  closed-form lambda {closed['target_lambda_float']:.6f}: "
            f"member of root set: {closed['member_of_root_set']}")
    states = report.get("eigenfunctions")
    if states:
        exact = report["exact"]
        lines.append(f"  eigenstates: psi2 = {exact['gauge']} * sum_n c_n "
                     f"K_n({exact['kernel_argument']})")
        for n, coeffs in enumerate(exact["null_vector"]):
            lines.append(f"      c_{n} = {_lambda_text(coeffs)}")
        psi1 = exact["psi1"]
        lines.append(f"    psi1 = (2w/w0) * [({_z_text(psi1['f'])}) F"
                     f" + ({_z_text(psi1['fprime'])}) F']")
        for state in states:
            values = ", ".join(f"{value:.6f}" for value in state["coefficient_floats"])
            lines.append(f"  eigenstate at 2w/w0 = {state['ratio']:.6f}: c = [{values}]")
    return lines


def _lambda_text(coeffs: List[str]) -> str:
    """An ascending coefficient list as a polynomial in lam, e.g. '1 + (2)*lam^2'."""
    terms = [c if i == 0 else f"({c})*lam" + (f"^{i}" if i > 1 else "")
             for i, c in enumerate(coeffs) if c != "0"]
    return " + ".join(terms) or "0"


def _z_text(terms: Dict[str, List[str]]) -> str:
    """A map from z exponent to coefficient list as a polynomial in z."""
    parts = [f"({_lambda_text(terms[exp])})" + {"0": "", "1": "*z"}.get(exp, f"*z^{exp}")
             for exp in sorted(terms, key=int)]
    return " + ".join(parts) or "0"


def _cmd_rabi(args) -> int:
    started = time.perf_counter()
    block = _rabi_block(args.n, args.type, args.cutoff, args.eigenfunctions)
    report = {
        "command": "rabi",
        "inputs": {"n": args.n, "type": args.type, "cutoff": args.cutoff},
        "status": block["status"],
        "report": block,
    }
    return _finish(report, args, started, _rabi_lines(block))


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def _cmd_table1(args) -> int:
    started = time.perf_counter()
    blocks = []
    lines = []
    all_ok = True
    for n_max in _TABLE_SIZES:
        for sol_type in ("I", "II"):
            block = _rabi_block(n_max, sol_type, args.cutoff, False)
            blocks.append(block)
            all_ok = all_ok and block["status"] == "ok"
            lines.extend(_rabi_lines(block))
    report = {
        "command": "table1",
        "inputs": {"cutoff": args.cutoff},
        "grid": blocks,
        "status": "ok" if all_ok else "reference-discrepancy",
    }
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["dimension", "type", "computed_ratios",
                         "listed_ratios", "all_contained", "energy_ratio",
                         "energy_listed", "energy_ok", "status"])
        for block in blocks:
            writer.writerow([
                block["dimension"],
                block["type"],
                ";".join(f"{value:.6f}" for value in block["computed_ratios"]),
                ";".join(f"{value:.5f}" for value in block["listed_ratios"]),
                all(entry["contained"] for entry in block["containment"]),
                f"{block['energy_ratio']:.6f}",
                block["energy_listed"],
                block["energy_ok"],
                block["status"],
            ])
        print(buffer.getvalue(), end="")
        return 0 if report["status"] == "ok" else 1
    return _finish(report, args, started, lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qes",
        description="Exact checks for the ladder families and the "
                    "two-photon Rabi solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="ladder invariance checks")
    verify.add_argument("--family", type=int, choices=range(1, 7),
                        help="family id (default: all six)")
    verify.add_argument("--n", type=int,
                        help=f"subspace size, 0..{_VERIFY_N_CAP} (default: 0..3)")
    verify.add_argument("--samples", type=int, default=8,
                        help=f"parameter samples, 1..{_SAMPLES_CAP} (default 8)")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--json", action="store_true")

    comm = sub.add_parser("commutators", help="closure-relation checks")
    comm.add_argument("--family", type=int, choices=range(1, 7),
                      help="family id (default: all six)")
    comm.add_argument("--all", action="store_true",
                      help="check all six families (the default)")
    comm.add_argument("--samples", type=int, default=8,
                      help=f"parameter samples, 1..{_SAMPLES_CAP} (default 8)")
    comm.add_argument("--seed", type=int, default=None)
    comm.add_argument("--json", action="store_true")

    rabi = sub.add_parser("rabi", help="solve one lock and cross-check")
    rabi.add_argument("--n", type=int, required=True,
                      help=f"subspace size N, 0..{_RABI_N_CAP} (dimension is N+1)")
    rabi.add_argument("--type", choices=("I", "II"), required=True)
    rabi.add_argument("--cutoff", type=int, default=300,
                      help="Fock truncation cutoff, 100..2000 (default 300)")
    rabi.add_argument("--eigenfunctions", action="store_true",
                      help="include exact eigenfunction coefficients")
    rabi.add_argument("--seed", type=int, default=None)
    rabi.add_argument("--json", action="store_true")

    table = sub.add_parser("table1", help="full frequency grid")
    table.add_argument("--cutoff", type=int, default=300,
                       help="Fock truncation cutoff, 100..2000 (default 300)")
    table.add_argument("--csv", action="store_true",
                       help="emit the grid as CSV instead of JSON/text")
    table.add_argument("--seed", type=int, default=None)
    table.add_argument("--json", action="store_true")

    return parser


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject out-of-range input as a usage error (exit 2) before any work.

    Also resolves the seed: --seed, else QES_SEED, else 0.
    """
    if args.seed is None:
        raw = os.environ.get("QES_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            parser.error(f"QES_SEED must be an integer, got {raw!r}")
    if args.command in ("verify", "rabi") and args.n is not None and args.n < 0:
        parser.error("--n must be non-negative")
    if args.command == "verify" and args.n is not None and args.n > _VERIFY_N_CAP:
        parser.error(f"--n {args.n} exceeds the cap {_VERIFY_N_CAP}")
    if args.command == "rabi" and args.n > _RABI_N_CAP:
        parser.error(f"--n {args.n} exceeds the cap {_RABI_N_CAP}")
    if args.command in ("verify", "commutators") and not 1 <= args.samples <= _SAMPLES_CAP:
        parser.error(f"--samples must lie in 1..{_SAMPLES_CAP}")
    if args.command == "commutators" and args.all and args.family:
        parser.error("--all and --family are mutually exclusive")
    low, high = _CUTOFF_RANGE
    if args.command in ("rabi", "table1") and not low <= args.cutoff <= high:
        parser.error(f"--cutoff must lie in {low}..{high}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "commutators":
        return _cmd_commutators(args)
    if args.command == "rabi":
        return _cmd_rabi(args)
    return _cmd_table1(args)


if __name__ == "__main__":
    sys.exit(main())
