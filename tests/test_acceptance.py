"""Acceptance gate: one test per release criterion, stated tolerances only.

Criteria 5 and 6 concern the two-photon Rabi frequency locks.  The bundled
reference tabulation quotes fifteen lock frequencies that the program does
not reproduce; docs/discrepancies.md (section 2) sets the quoted values
beside the computed locks.  Criterion 5 checks that table against the
solver in both directions and checks that the report flags every quoted
ratio as a reference-discrepancy at its documented gap.  Criterion 6 is the
independent evidence for that verdict: a truncated-Fock diagonalization
that shares no code with the exact solver confirms each computed root in
its own parity block, finds the same lock sets by a search of its own, and
keeps a gap that does not close with the cutoff at every quoted ratio.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from _algebra import fock_chains, mat_commutator
from qes.diffop import DiffOp, commutator
from qes.families import (FamilySpec, family_operators, matrix_rep,
                          operator_in_span, solve_preserving, verify_invariance)
from qes.laurent import LaurentPoly
from qes.rabi import (REFERENCE_FREQUENCY_RATIOS, RabiConfig, fock_truncation_check,
                      frequency_table_report, gauge_identity_residual, solve_frequencies)
from qes.sampling import sample_grid
from qes.structure import closure_suite
from qes.structure import verify_structure_relations  # noqa: F401 (re-export guard)

F = Fraction

SIZES = (0, 1, 2, 3, 4, 5)
SAMPLES = 8
FREQUENCY_TOLERANCE = 5e-5
ENERGY_TOLERANCE = 1e-5

# Subspace sizes N of the reference tabulation (dimensions 3, 5, 6, 7, 8).
TABLE_SIZES = (2, 4, 5, 6, 7)
DISCREPANCIES = Path(__file__).resolve().parents[1] / "docs" / "discrepancies.md"
# The documented lock table prints six decimals.
LOCK_TABLE_PRECISION = 1e-6

FOCK_CUTOFF = 300
# Gap below which the Fock oracle counts an eigenvalue as sitting on the
# locked energy; it is also the slack allowed when comparing gaps between
# cutoffs, far above the round-off of a dense eigensolve at cutoff 600.
ORACLE_RESOLUTION = 1e-9
# The Fock-only lock search scans w0 = 2/(2w/w0) on an even grid covering
# this ratio range; the grid of twice the resolution must bracket the same
# crossings, and each bracket is bisected down to about 1e-10 in w0.
SEARCH_RATIOS = (0.1, 5.0)
SEARCH_POINTS = 49
BISECTION_STEPS = 32
# Model constants in w = 1 units, restated so the search needs no solver input.
FOCK_TWO_G = 1 / math.sqrt(6)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _nearest_gap(value, others) -> float:
    return min((abs(value - other) for other in others), default=math.inf)


def _documented_lock_table():
    """Section 2 table of docs/discrepancies.md as {N: (computed, quoted I, quoted II)}."""
    rows = {}
    for line in DISCREPANCIES.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            dim, *columns = cells
            rows[int(dim) - 1] = tuple(
                tuple(float(value) for value in column.split(",")) for column in columns)
    return rows


def _lock_energy(n_max: int) -> float:
    return (n_max + 1) / math.sqrt(3) - 0.5


def _block_spectrum(omega0: float, parity: int, cutoff: int) -> np.ndarray:
    """The sorted spectrum of one `fock_matrix` parity block, solved as its two
    tridiagonal chains (tests/test_rabi.py checks that they are that block)."""
    chains = fock_chains(omega0, FOCK_TWO_G, cutoff, parity)
    return np.sort(np.linalg.eigvalsh(chains).ravel())


def _block_gap(omega0: float, parity: int, energy: float, cutoff: int) -> float:
    return float(np.min(np.abs(_block_spectrum(omega0, parity, cutoff) - energy)))


def _fock_lock_search(cutoff: int):
    """Lock ratios 2w/w0 located from the numpy Fock blocks alone, keyed by N.

    A lock is a frequency at which both photon-parity blocks hold an
    eigenvalue at E_N.  The search brackets each grid step over which the
    number of even-block eigenvalues below E_N changes, bisects the bracket
    to the crossing, and keeps the crossing when the odd block also has an
    eigenvalue within ENERGY_TOLERANCE of E_N.
    """
    energies = np.array([_lock_energy(n_max) for n_max in TABLE_SIZES])
    fine = np.linspace(2.0 / SEARCH_RATIOS[1], 2.0 / SEARCH_RATIOS[0],
                       2 * SEARCH_POINTS - 1)
    fine_counts = np.array([np.searchsorted(_block_spectrum(omega0, 0, cutoff), energies)
                            for omega0 in fine])
    grid, counts = fine[::2], fine_counts[::2]
    locks = {}
    for column, n_max in enumerate(TABLE_SIZES):
        energy = energies[column]
        steps = np.nonzero(np.diff(counts[:, column]))[0]
        fine_steps = np.diff(fine_counts[:, column])
        assert (np.all(np.abs(fine_steps) <= 1)
                and list(np.nonzero(fine_steps)[0] // 2) == list(steps)), (
            f"N={n_max}: the doubled search grid brackets other crossings")
        locks[n_max] = []
        for step in steps:
            low, high = grid[step], grid[step + 1]
            below = counts[step, column]
            for _ in range(BISECTION_STEPS):
                middle = (low + high) / 2
                if np.searchsorted(_block_spectrum(middle, 0, cutoff), energy) == below:
                    low = middle
                else:
                    high = middle
            omega0 = (low + high) / 2
            if _block_gap(omega0, 1, energy, cutoff) <= ENERGY_TOLERANCE:
                locks[n_max].append(2.0 / omega0)
    return locks


def test_criterion_1_invariance_suite():
    started = time.perf_counter()
    applications = 0
    failures = []
    for family_id in (1, 2, 3, 4, 5, 6):
        for n_max in SIZES:
            for params in sample_grid(family_id, n_max, SAMPLES, seed=0):
                report = verify_invariance(FamilySpec(family_id, n_max, **params))
                applications += report["checks"]
                if not report["ok"]:
                    failures.append(report)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _verdict("criterion 1: exact invariance, 6 families x N<=5 x 8 samples", ok,
             f"{applications} ladder applications, all coefficients exact, "
             f"{elapsed:.1f}s (limit 30s)")
    assert elapsed < 30.0
    assert not failures, failures[:2]


def test_criterion_2_preserving_operator_rederivation():
    started = time.perf_counter()
    checked = []
    for n_max in (0, 1, 2, 3):
        spec = FamilySpec(1, n_max, s=F(7, 3))
        found = solve_preserving(spec, max_order=2, degree_bound=2)
        j_plus, j_minus = family_operators(spec)
        dim_ok = found["dimension_mod_constants"] == 2
        span_ok = operator_in_span(found, j_plus) and operator_in_span(found, j_minus)
        # The second-order raising generator must carry the drift term
        # (s - 2N) x d/dx; shifting that coefficient must leave the space.
        drift = j_plus.coeff(1).coeff(1)
        drift_ok = drift == spec.s - 2 * n_max
        shifted = j_plus + DiffOp({1: LaurentPoly.x()})
        cutoff_ok = not operator_in_span(found, shifted)
        checked.append(dim_ok and span_ok and drift_ok and cutoff_ok)
    elapsed = time.perf_counter() - started
    ok = all(checked)
    _verdict("criterion 2: preserving operators re-derived", ok,
             f"2-dimensional modulo constants at N=0..3, both ladder operators "
             f"in the span, drift coefficient s-2N pinned, {elapsed:.1f}s")
    assert ok


def test_criterion_3_commutator_closure_suite():
    started = time.perf_counter()
    verdicts = {}
    bad = []
    for family_id in (1, 2, 3, 4, 5, 6):
        suite = closure_suite(family_id, samples=SAMPLES, seed=0)
        verdicts[family_id] = suite["status"]
        if suite["status"] == "ok":
            continue
        # A tabulation mismatch is acceptable only when the independently
        # derived constants are shown and close the relations exactly.
        documented = (suite["status"] == "reference-discrepancy"
                      and suite["derived_failures"] == 0
                      and suite["mismatched_constants"]
                      and all(suite["derived"][name] != suite["catalog"][name]
                              for name in suite["mismatched_constants"]))
        if not documented:
            bad.append((family_id, suite["status"]))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 60.0
    summary = ", ".join(f"k={fid}:{status}" for fid, status in verdicts.items())
    _verdict("criterion 3: closure relations at 8 samples", ok,
             f"{summary}; every mismatch ships derived constants with exactly "
             f"zero residual, {elapsed:.1f}s (limit 60s)")
    assert elapsed < 60.0
    assert not bad, bad


def test_criterion_4_gauge_identities():
    started = time.perf_counter()
    failures = [(n_max, sol_type)
                for sol_type in ("I", "II")
                for n_max in range(8)
                if not gauge_identity_residual(RabiConfig(n_max, sol_type)).is_zero()]
    elapsed = time.perf_counter() - started
    ok = not failures
    _verdict("criterion 4: gauge identities, N=0..7, both types", ok,
             f"operator equality exact over the quadratic-surd field, "
             f"{elapsed:.1f}s")
    assert not failures, failures


def test_criterion_5_reference_frequency_table():
    started = time.perf_counter()
    # Pin the tabulated inputs this criterion quotes as examples.
    assert REFERENCE_FREQUENCY_RATIOS[(2, "I")] == (0.44315,)
    assert REFERENCE_FREQUENCY_RATIOS[(7, "I")] == (2.10305, 3.74421, 3.90266)
    documented = _documented_lock_table()
    assert sorted(documented) == list(TABLE_SIZES)
    uncovered = []
    bad_verdicts = []
    energy_bad = []
    closed_form_seen = False
    quoted_count = 0
    for n_max in TABLE_SIZES:
        locks, *quoted_columns = documented[n_max]
        for sol_type, quoted in zip(("I", "II"), quoted_columns):
            # The side-by-side table quotes the reference values verbatim.
            assert quoted == REFERENCE_FREQUENCY_RATIOS[(n_max, sol_type)]
            report = frequency_table_report(solve_frequencies(RabiConfig(n_max, sol_type)))
            computed = report["computed_ratios"]
            uncovered.extend((n_max, sol_type, ratio) for ratio in computed
                             if _nearest_gap(ratio, locks) > FREQUENCY_TOLERANCE)
            uncovered.extend((n_max, sol_type, lock) for lock in locks
                             if _nearest_gap(lock, computed) > FREQUENCY_TOLERANCE)
            for entry in report["containment"]:
                quoted_count += 1
                gap = entry["nearest_computed_gap"]
                verdict_ok = (
                    abs(gap - _nearest_gap(entry["listed"], locks)) <= LOCK_TABLE_PRECISION
                    and entry["contained"] == (gap <= FREQUENCY_TOLERANCE)
                    and not entry["contained"]
                    and report["status"] == "reference-discrepancy")
                if not verdict_ok:
                    bad_verdicts.append((n_max, sol_type, entry, report["status"]))
            if not report["energy_ok"]:
                energy_bad.append((n_max, sol_type))
            closed_form_seen = closed_form_seen or "closed_form" in report
    elapsed = time.perf_counter() - started
    ok = (not uncovered and not bad_verdicts and quoted_count == 15
          and not energy_bad and closed_form_seen and elapsed < 10.0)
    _verdict("criterion 5: computed locks against the documented table", ok,
             f"computed and documented lock sets agree within 5e-5 both ways "
             f"for both types; all {quoted_count} quoted ratios reported as "
             f"reference-discrepancy at their documented gaps; E/w exact formula "
             f"matches all rows within 1e-5; closed-form membership reported; "
             f"{elapsed:.1f}s (limit 10s)")
    assert elapsed < 10.0
    assert closed_form_seen
    assert not energy_bad, energy_bad
    assert not uncovered, (
        "computed and documented lock sets (docs/discrepancies.md section 2) "
        f"differ by more than 5e-5: {uncovered}")
    assert quoted_count == 15, quoted_count
    assert not bad_verdicts, (
        "the report's verdict on a quoted ratio disagrees with the documented "
        f"table or the 5e-5 containment tolerance: {bad_verdicts}")


def test_criterion_6_independent_fock_oracle():
    started = time.perf_counter()
    unlocked = []
    computed = {}
    for n_max in TABLE_SIZES:
        for sol_type in ("I", "II"):
            config = RabiConfig(n_max, sol_type)
            # psi_2 is the gauge factor times a series in z^2, so the type's
            # photon parity is that of the gauge factor's power of z.
            parity = config.gauge.z_power % 2
            computed[(n_max, sol_type)] = solve_frequencies(config).ratios()
            for ratio in computed[(n_max, sol_type)]:
                gap = _block_gap(2.0 / ratio, parity, _lock_energy(n_max), FOCK_CUTOFF)
                if gap >= ORACLE_RESOLUTION:
                    unlocked.append((n_max, sol_type, ratio, gap))
    found = _fock_lock_search(FOCK_CUTOFF)
    mismatched = [
        (n_max, sol_type, found[n_max], ratios)
        for (n_max, sol_type), ratios in computed.items()
        if any(_nearest_gap(r, ratios) > FREQUENCY_TOLERANCE for r in found[n_max])
        or any(_nearest_gap(r, found[n_max]) > FREQUENCY_TOLERANCE for r in ratios)]
    quoted = []
    for (n_max, sol_type), listed_ratios in REFERENCE_FREQUENCY_RATIOS.items():
        config = RabiConfig(n_max, sol_type)
        for listed in listed_ratios:
            quoted.append((n_max, sol_type, listed,
                           fock_truncation_check(config, listed, cutoff=FOCK_CUTOFF),
                           fock_truncation_check(config, listed, cutoff=2 * FOCK_CUTOFF)))
    spurious = [row for row in quoted
                if row[3] <= ENERGY_TOLERANCE or row[4] < row[3] - ORACLE_RESOLUTION]
    elapsed = time.perf_counter() - started
    ok = not unlocked and not mismatched and not spurious and elapsed < 60.0
    _verdict("criterion 6: truncated-Fock oracle locates the locks", ok,
             f"cutoff 300: every computed root locks in its parity block below "
             f"1e-9; a Fock-only search on 2w/w0 in [0.1, 5] finds the computed "
             f"sets within 5e-5 for N=2,4,5,6,7; the {len(quoted)} quoted ratios "
             f"keep gaps {min(row[3] for row in quoted):.2e} to "
             f"{max(row[3] for row in quoted):.2e} (tolerance 1e-5), unchanged at "
             f"cutoff 600; {elapsed:.1f}s (limit 60s)")
    assert elapsed < 60.0
    assert not unlocked, (
        f"a computed root has no eigenvalue at the locked energy in its parity block: {unlocked}")
    assert not mismatched, (
        f"the Fock-only lock search and the exact solver disagree: {mismatched}")
    assert not spurious, (
        "a quoted ratio has a Fock eigenvalue within 1e-5 of the locked energy, "
        f"or its gap shrinks from cutoff 300 to 600: {spurious}")


def test_criterion_7_representation_homomorphism():
    started = time.perf_counter()
    failures = []
    pairs = 0
    for family_id in (1, 2, 3, 4, 5, 6):
        for n_max in (1, 3):
            params = sample_grid(family_id, n_max, 1, seed=13)[0]
            spec = FamilySpec(family_id, n_max, **params)
            ops = family_operators(spec)
            reps = [matrix_rep(op, spec) for op in ops]
            for i, a in enumerate(ops):
                for j, b in enumerate(ops):
                    pairs += 1
                    lhs = matrix_rep(commutator(a, b), spec)
                    rhs = mat_commutator(reps[i], reps[j])
                    if lhs != rhs:
                        failures.append((family_id, n_max, i, j))
    elapsed = time.perf_counter() - started
    ok = not failures
    _verdict("criterion 7: matrix representation is a homomorphism", ok,
             f"rep([A,B]) equals [rep(A),rep(B)] exactly for {pairs} operator "
             f"pairs, {elapsed:.1f}s")
    assert not failures, failures
