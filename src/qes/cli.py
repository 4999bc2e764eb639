"""Command-line front end: it parses the options, calls one report builder
per command (`structure.verify_report`, `structure.closure_suite` per
family, `rabi.lock_report` per lock), and formats the report as JSON,
human-readable lines or, for table1, CSV.

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
from typing import Dict, List, Optional

from .families import FAMILIES
from .rabi import REFERENCE_ENERGY_RATIOS, SOLUTION_TYPES, lock_report
from .structure import closure_suite, verify_report

SCHEMA_VERSION = 2
# Each Fock-oracle probe is one pass over a chain of cutoff/2 entries;
# table1 --cutoff 2000 takes 0.17-0.19 s on a 2-vCPU host.
_CUTOFF_RANGE = (100, 2000)
# rabi --n 40 --type I --eigenfunctions takes 0.60-0.67 s on a 2-vCPU host, most of
# it the partner component; without --eigenfunctions it takes 0.14-0.15 s.
_RABI_N_CAP = 40
# A passing verify proves each family once for every N and reads each
# sample's report off the proof: verify --n 8 --samples 64 takes 0.10 s
# as a subprocess on a 2-vCPU host, about as long as verify --n 0.  A family
# whose proof fails is checked sample by sample, on Fractions, which grows
# like N^2 and linearly in --samples: 2.0-2.1 s in-process at --n 8
# --samples 64.
# commutators forms its residuals once and evaluates them per sample, so
# commutators --samples 64 takes 0.13-0.14 s.
_VERIFY_N_CAP = 8
_SAMPLES_CAP = 64


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
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
    report = verify_report(args.family, args.n, args.samples, args.seed)
    lines = [f"family {check['family']} N={check['n']}: "
             f"{'pass' if check['ok'] else 'FAIL'} ({check['applications_per_sample']} "
             f"basis applications x {check['samples']} samples)"
             for check in report["checks"]]
    return _finish(report, args, started, lines)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def _cmd_commutators(args) -> int:
    started = time.perf_counter()
    families = [args.family] if args.family else sorted(FAMILIES)
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
    listed = report["energy_listed"]
    lines.append(
        f"  E/w = {report['energy_ratio']:.6f} "
        f"(exact {report['energy_ratio_exact']}), "
        f"{'not listed' if listed is None else f'listed {listed}'} [{energy_tag}]")
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
    block = lock_report(args.n, args.type, args.cutoff, args.eigenfunctions)
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
    for n_max in sorted(REFERENCE_ENERGY_RATIOS):
        for sol_type in SOLUTION_TYPES:
            block = lock_report(n_max, sol_type, args.cutoff, False)
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

def _bounded(low: int, high: int):
    """An argparse type: an integer in low..high, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} lies outside {low}..{high}")
        return value
    return parse


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seed and QES_SEED take an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qes",
        description="Exact checks for the ladder families and the "
                    "two-photon Rabi solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    samples = _bounded(1, _SAMPLES_CAP)
    cutoff = _bounded(*_CUTOFF_RANGE)

    verify = sub.add_parser("verify", help="ladder invariance checks")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--family", type=int, choices=sorted(FAMILIES),
                        help="family id (default: all six)")
    verify.add_argument("--n", type=_bounded(0, _VERIFY_N_CAP),
                        help=f"subspace size, 0..{_VERIFY_N_CAP} (default: 0..3)")
    verify.add_argument("--samples", type=samples, default=8,
                        help=f"parameter samples, 1..{_SAMPLES_CAP} (default 8)")

    comm = sub.add_parser("commutators", help="closure-relation checks")
    comm.set_defaults(run=_cmd_commutators)
    which = comm.add_mutually_exclusive_group()
    which.add_argument("--family", type=int, choices=sorted(FAMILIES),
                       help="family id (default: all six)")
    which.add_argument("--all", action="store_true",
                       help="check all six families (the default)")
    comm.add_argument("--samples", type=samples, default=8,
                      help=f"parameter samples, 1..{_SAMPLES_CAP} (default 8)")

    rabi = sub.add_parser("rabi", help="solve one lock and cross-check")
    rabi.set_defaults(run=_cmd_rabi)
    rabi.add_argument("--n", type=_bounded(0, _RABI_N_CAP), required=True,
                      help=f"subspace size N, 0..{_RABI_N_CAP} (dimension is N+1)")
    rabi.add_argument("--type", choices=tuple(SOLUTION_TYPES), required=True)
    rabi.add_argument("--cutoff", type=cutoff, default=300,
                      help="Fock truncation cutoff, 100..2000 (default 300)")
    rabi.add_argument("--eigenfunctions", action="store_true",
                      help="include exact eigenfunction coefficients")

    table = sub.add_parser("table1", help="full frequency grid")
    table.set_defaults(run=_cmd_table1)
    table.add_argument("--cutoff", type=cutoff, default=300,
                       help="Fock truncation cutoff, 100..2000 (default 300)")
    formats = table.add_mutually_exclusive_group()
    formats.add_argument("--csv", action="store_true",
                         help="emit the grid as CSV instead of JSON/text")

    # The seed's string default goes through `_seed` only when --seed is
    # absent, so --seed wins over QES_SEED, which wins over 0.
    seed = os.environ.get("QES_SEED", "0")
    for command, output in ((verify, verify), (comm, comm), (rabi, rabi), (table, formats)):
        command.add_argument("--seed", type=_seed, default=seed)
        output.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
