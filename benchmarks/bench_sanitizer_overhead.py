"""Determinism sanitizer — phase hashing must be close to free.

``repro campaign --sanitize`` hashes every chip's trap/RNG/DataLog state
at each phase boundary.  The hashes are only useful if they can stay on
in CI, so the budget mirrors the observability layer's: a sanitized
campaign may cost at most 5 % more wall clock than the same run with the
null sanitizer.
"""

import statistics
import time

from repro.lab.campaign import run_table1_campaign

#: Maximum tolerated wall-clock overhead of --sanitize vs off.
OVERHEAD_BUDGET = 0.05

#: Chips used for the overhead A/B (smaller than the full bench, repeated).
OVERHEAD_CHIPS = 2

#: Timed (off, on) pairs; the gate compares their median on/off ratio.
#: A 2-chip campaign takes ~0.4 s, so on a shared host one pair's ratio
#: wanders by several percent; 16 pairs resolve a 5 % budget.
OVERHEAD_PAIRS = 16


def _timed_run(sanitize: bool) -> float:
    start = time.perf_counter()
    run_table1_campaign(seed=0, n_chips=OVERHEAD_CHIPS, sanitize=sanitize)
    return time.perf_counter() - start


def test_bench_sanitizer_overhead(once):
    """Sanitizing a campaign must cost < 5 % over the null sanitizer.

    An in-process paired A/B: each pair times one run per side, and the
    side that runs first alternates from pair to pair, so warm-up and
    frequency drift bias neither side.  The median per-pair on/off ratio
    is the estimate; a minimum per side would hang the verdict on one
    lucky run.
    """

    def measure() -> list[tuple[float, float]]:
        _timed_run(False)  # warm-up, discarded
        pairs = []
        for index in range(OVERHEAD_PAIRS):
            if index % 2 == 0:
                off = _timed_run(False)
                on = _timed_run(True)
            else:
                on = _timed_run(True)
                off = _timed_run(False)
            pairs.append((off, on))
        return pairs

    pairs = once(measure)
    overhead = statistics.median(on / off for off, on in pairs) - 1.0
    off = statistics.median(off for off, _ in pairs)
    on = statistics.median(on for _, on in pairs)
    print(f"sanitizer off: {off:.3f} s   sanitizer on: {on:.3f} s "
          f"(medians of {OVERHEAD_PAIRS} alternating pairs)")
    print(f"sanitizer overhead: {100.0 * overhead:+.2f} % "
          f"(budget {100.0 * OVERHEAD_BUDGET:.0f} %)")
    assert overhead < OVERHEAD_BUDGET


def test_bench_sanitizer_baseline(once):
    """Time the sanitized five-chip campaign and count its phase hashes."""

    def timed_campaign():
        start = time.perf_counter()
        result = run_table1_campaign(seed=0, sanitize=True)
        return time.perf_counter() - start, result

    wall_s, result = once(timed_campaign)
    print(f"sanitized campaign: {wall_s:.3f} s wall, "
          f"{len(result.state_hashes)} phase hashes")
    # Per-chip baseline plus every schedule phase, incl. chip 5's
    # re-stress and 12 h recovery (AR110N12).
    assert len(result.state_hashes) == 16
    assert len(result.log) > 500
