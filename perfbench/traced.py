#!/usr/bin/env python3
"""Run one `qes` invocation in-process with spans at the layer boundaries.

    python3 perfbench/traced.py rabi --n 4 --type I --json

Imports `qes` from the checkout's `src/`, rebinds each public function at a
layer boundary to a timing wrapper (in every `qes` module that imported the
name), calls `qes.cli.main(argv)` with standard output captured, restores
the original names, and prints one JSON line: the exit code, the captured
report, and per span its call count, total time and self time.  Nothing
under `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qes.cli  # noqa: E402
from qes import diffop, families, linalg, rabi, structure  # noqa: E402


class Recorder:
    """Per span name: calls, total time and self time, in seconds.

    Total time counts only the outermost active span of a name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of the spans directly inside it.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.active: Counter = Counter()
        self.stack = []  # child time accumulated by each open span
        self.sizes = {}

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self.active[name] == 0
            self.active[name] += 1
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.stack.pop()
                self.active[name] -= 1
                self.calls[name] += 1
                self.own[name] += elapsed - children
                if outermost:
                    self.total[name] += elapsed
                if self.stack:
                    self.stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def spans(self):
        return {name: [self.calls[name], self.total[name], self.own[name]]
                for name in self.calls}


def _record_charpoly(recorder: Recorder, coeffs) -> None:
    bits = max(max(abs(Fraction(c).numerator).bit_length(),
                   Fraction(c).denominator.bit_length()) for c in coeffs)
    sizes = recorder.sizes
    sizes["charpoly_degree"] = max(sizes.get("charpoly_degree", 0), len(coeffs) - 1)
    sizes["charpoly_coeff_bits"] = max(sizes.get("charpoly_coeff_bits", 0), bits)


def install(recorder: Recorder):
    """Wrap the boundary functions; returns the (owner, name, original) to restore."""
    functions = (
        ("rabi.solve_frequencies", rabi.solve_frequencies, None),
        ("rabi.assemble_eigenfunctions", rabi.assemble_eigenfunctions, None),
        ("rabi.fock_truncation_check", rabi.fock_truncation_check, None),
        ("linalg.charpoly", linalg.charpoly,
         functools.partial(_record_charpoly, recorder)),
        ("linalg.minimal_factors", linalg.minimal_factors, None),
        ("linalg.isolate_real_roots", linalg.isolate_real_roots, None),
        ("linalg.refine_root", linalg.refine_root, None),
        # The per-root FieldExtension plus nullspace over it.
        ("linalg.ext_nullspace", rabi._extension_nullspace, None),
        ("families.matrix_rep", families.matrix_rep, None),
        ("families.verify_invariance", families.verify_invariance, None),
        ("families.apply_op", families.apply_op, None),
        ("families.decompose", families.decompose, None),
        ("structure.closure_suite", structure.closure_suite, None),
        ("structure.derive_constants", structure.derive_constants, None),
    )
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "qes" or name.startswith("qes.")]
    undo = []
    for span, fn, on_result in functions:
        wrapper = recorder.wrap(span, fn, on_result)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)
    compose = diffop.DiffOp.__mul__
    undo.append((diffop.DiffOp, "__mul__", compose))
    diffop.DiffOp.__mul__ = recorder.wrap("diffop.compose", compose)
    return undo


def main(argv) -> int:
    recorder = Recorder()
    undo = install(recorder)
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            try:
                code = recorder.wrap("cli.main", qes.cli.main)(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    print(json.dumps({"exit": code, "stdout": captured.getvalue(),
                      "spans": recorder.spans(), "sizes": recorder.sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
