"""OBS — instrumentation overhead budget and the campaign throughput.

Two checks back the observability layer:

* the instrumentation must be close to free: a campaign run under a full
  in-memory tracer may cost at most 5 % more wall clock than the same
  run under the no-op default (``OVERHEAD_BUDGET``);
* the traced five-chip campaign prints its wall time, measurements/sec
  and simulated-seconds per wall-second, and must simulate faster than
  real time.
"""

import time

from repro.lab.campaign import run_table1_campaign
from repro.obs import NULL_TRACER, Tracer

#: Maximum tolerated wall-clock overhead of tracing vs the no-op default.
OVERHEAD_BUDGET = 0.05

#: Chips used for the overhead A/B (smaller than the full bench, repeated).
OVERHEAD_CHIPS = 2
OVERHEAD_REPEATS = 4


def _timed_run(tracer) -> float:
    start = time.perf_counter()
    run_table1_campaign(seed=0, n_chips=OVERHEAD_CHIPS, tracer=tracer)
    return time.perf_counter() - start


def test_bench_obs_overhead(once):
    """Tracing a campaign must cost < 5 % over the disabled default.

    The A/B runs are interleaved (disabled, enabled, disabled, ...) and
    the fastest of each side compared, so CPU warm-up and frequency
    scaling bias neither side.
    """

    def measure() -> tuple[float, float]:
        _timed_run(NULL_TRACER)  # warm-up, discarded
        disabled = float("inf")
        enabled = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            disabled = min(disabled, _timed_run(NULL_TRACER))
            enabled = min(enabled, _timed_run(Tracer()))
        return disabled, enabled

    disabled, enabled = once(measure)
    overhead = enabled / disabled - 1.0
    print(f"disabled tracer: {disabled:.3f} s   enabled tracer: {enabled:.3f} s")
    print(f"instrumentation overhead: {100.0 * overhead:+.2f} % "
          f"(budget {100.0 * OVERHEAD_BUDGET:.0f} %)")
    assert overhead < OVERHEAD_BUDGET


def test_bench_campaign_baseline(once):
    """Time the full five-chip campaign under a tracer."""

    def timed_campaign():
        tracer = Tracer()
        start = time.perf_counter()
        result = run_table1_campaign(seed=0, tracer=tracer)
        return time.perf_counter() - start, result, tracer

    wall_s, result, tracer = once(timed_campaign)
    sim_seconds = tracer.spans("campaign")[0].sim_advanced
    measurements = len(result.log)
    sim_seconds_per_wall_second = sim_seconds / wall_s
    print(f"campaign: {wall_s:.3f} s wall, {measurements / wall_s:.1f} "
          f"measurements/s, {sim_seconds_per_wall_second:,.1f} sim s/s")
    assert measurements > 500
    assert sim_seconds_per_wall_second > 1.0
