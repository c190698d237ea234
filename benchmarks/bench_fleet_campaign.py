"""PERF — a binned wafer lot vs the paper's exact five-chip campaign.

Two legs:

* **bit-identity** — ``run_fleet_campaign`` over 5 exact-fidelity chips
  in one process must reproduce the ``run_table1_campaign`` record
  stream bit-for-bit (the Table-1 entry point is that same exact lot, on
  one shard per usable CPU);
* **throughput** — a 200-chip binned-fidelity lot must clear 20x the
  measurements/s of the seed-0 five-chip Table-1 campaign, both timed
  in this process in alternating pairs, so the ratio does not depend on
  how fast the host is.  Both legs run in one process (``shards=1``):
  the Table-1 leg is the exact 5-chip lot the bit-identity leg proves
  equal to ``run_table1_campaign``, which would otherwise take one
  shard per usable CPU and make the ratio depend on the host's CPUs.

Run directly for a smoke check (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_campaign.py -q
"""

import statistics
import time

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign
from repro.obs import Tracer

#: Chips in the throughput leg — large enough that per-batch setup
#: amortises, small enough for a CI smoke.
N_CHIPS = 200

#: Alternating (sequential, fleet) runs; the gate compares their medians.
PAIRS = 3

#: The acceptance multiple of the fleet's measurements/s over the
#: sequential campaign's.
SPEEDUP_FLOOR = 20.0

def test_bench_fleet_bit_identity(once):
    """5-chip exact fleet == sequential campaign, record for record."""

    def measure():
        sequential = run_table1_campaign(seed=0)
        fleet = run_fleet_campaign(seed=0, n_chips=5, fidelity="exact",
                                   sanitize=True, shards=1)
        return sequential, fleet

    sequential, fleet = once(measure)
    assert list(sequential.log) == list(fleet.log)
    assert sequential.fresh_delays == fleet.fresh_delays
    print(f"5-chip fleet bit-identical to sequential "
          f"({len(fleet.log)} records, {len(fleet.state_hashes)} phase hashes)")


def test_bench_fleet_campaign(once):
    """Time the 200-chip binned lot against the sequential campaign, in pairs."""

    def timed_pairs():
        sequential_rates, fleet_rates = [], []
        for _ in range(PAIRS):
            start = time.perf_counter()
            sequential = run_fleet_campaign(seed=0, n_chips=5, fidelity="exact", shards=1)
            sequential_rates.append(len(sequential.log) / (time.perf_counter() - start))
            tracer = Tracer()
            start = time.perf_counter()
            result = run_fleet_campaign(seed=0, n_chips=N_CHIPS,
                                        fidelity="binned", collect="summary",
                                        shards=1, tracer=tracer)
            wall_s = time.perf_counter() - start
            fleet_rates.append(result.total_measurements / wall_s)
        return sequential_rates, fleet_rates, result, tracer.spans("campaign")[0]

    sequential_rates, fleet_rates, result, span = once(timed_pairs)
    sequential_meas_per_sec = statistics.median(sequential_rates)
    meas_per_sec = statistics.median(fleet_rates)
    speedup = meas_per_sec / sequential_meas_per_sec

    print(f"fleet campaign: {N_CHIPS} chips, {result.total_measurements} "
          f"measurements, median of {PAIRS} alternating pairs: "
          f"{meas_per_sec:,.1f} meas/s against {sequential_meas_per_sec:,.1f} "
          f"sequential ({speedup:.1f}x); last run "
          f"{span.sim_advanced / span.duration:,.1f} sim s/s")
    assert result.total_measurements > 20_000
    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet throughput {meas_per_sec:.0f} meas/s is below "
        f"{SPEEDUP_FLOOR:.0f}x the {sequential_meas_per_sec:.0f} meas/s "
        f"sequential campaign timed alongside it"
    )
