"""PERF — batched fleet engine vs the sequential campaign baseline.

Two legs:

* **bit-identity** — the 5-chip exact-fidelity fleet must reproduce the
  sequential ``run_table1_campaign`` record stream bit-for-bit (the
  facade contract that lets the whole lab stack run against the batch);
* **throughput** — a 200-chip binned-fidelity lot must clear 20x the
  sequential campaign's measurements/s (``SEQUENTIAL_MEAS_PER_SEC``).

Run directly for a smoke check (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_campaign.py -q
"""

import time

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign
from repro.obs import Tracer

#: Chips in the throughput leg — large enough that per-batch setup
#: amortises, small enough for a CI smoke.
N_CHIPS = 200

#: The sequential baseline this engine must beat, and the acceptance
#: multiple.  454.2 meas/s is one run of the seed-0 five-chip
#: ``run_table1_campaign`` (622 measurements in 1.369 s), timed by
#: ``bench_obs_overhead.py::test_bench_campaign_baseline`` when the
#: physics guards landed, on a host that was not recorded.  Nothing
#: re-measures it, so the floor depends on the host running this file.
SEQUENTIAL_MEAS_PER_SEC = 454.2
SPEEDUP_FLOOR = 20.0


def test_bench_fleet_bit_identity(once):
    """5-chip exact fleet == sequential campaign, record for record."""

    def measure():
        sequential = run_table1_campaign(seed=0)
        fleet = run_fleet_campaign(seed=0, n_chips=5, fidelity="exact",
                                   sanitize=True)
        return sequential, fleet

    sequential, fleet = once(measure)
    assert list(sequential.log) == list(fleet.log)
    assert sequential.fresh_delays == fleet.fresh_delays
    print(f"5-chip fleet bit-identical to sequential "
          f"({len(fleet.log)} records, {len(fleet.state_hashes)} phase hashes)")


def test_bench_fleet_campaign(once):
    """Time the 200-chip binned lot against the sequential baseline."""

    def timed_fleet():
        tracer = Tracer()
        start = time.perf_counter()
        result = run_fleet_campaign(seed=0, n_chips=N_CHIPS,
                                    fidelity="binned", collect="summary",
                                    tracer=tracer)
        return time.perf_counter() - start, result, tracer

    wall_s, result, tracer = once(timed_fleet)
    meas_per_sec = result.total_measurements / wall_s
    sim_seconds = tracer.spans("campaign")[0].sim_advanced
    speedup = meas_per_sec / SEQUENTIAL_MEAS_PER_SEC

    print(f"fleet campaign: {N_CHIPS} chips, {result.total_measurements} "
          f"measurements in {wall_s:.2f} s wall "
          f"({meas_per_sec:,.1f} meas/s, {sim_seconds / wall_s:,.1f} sim s/s, "
          f"{speedup:.1f}x sequential)")
    assert result.total_measurements > 20_000
    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet throughput {meas_per_sec:.0f} meas/s is below "
        f"{SPEEDUP_FLOOR:.0f}x the {SEQUENTIAL_MEAS_PER_SEC} meas/s "
        f"sequential baseline"
    )
