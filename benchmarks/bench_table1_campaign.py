"""TAB1 — regenerate the paper's Table 1 campaign (the full schedule)."""

import repro.lab.fleet as fleet_module
from repro.experiments import table1
from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign
from repro.obs import Tracer


def test_bench_table1_campaign(once):
    """Run the full five-chip Table-1 schedule from scratch."""
    result = once(run_table1_campaign, seed=0)
    table1.schedule_table().print()
    print(f"measurements recorded: {len(result.log)}")
    cases = result.log.cases()
    for expected in ("AS110AC24", "AS110DC24", "AS100DC24", "AS110DC48",
                     "R20Z6", "AR20N6", "AR110Z6", "AR110N6", "AR110N12"):
        assert expected in cases
    assert len(result.log) > 500


def test_bench_table1_rate_cache_reuse(once):
    """The duty-averaged rate memo must be reused across the campaign."""
    tracer = Tracer()
    result = once(run_table1_campaign, seed=0, tracer=tracer)
    metrics = tracer.metrics
    hits = metrics.value("bti.rate_cache.hits")
    misses = metrics.value("bti.rate_cache.misses")
    lookups = hits + misses
    reuse = hits / lookups if lookups else 0.0
    print(f"rate cache: {int(hits)} hits / {int(lookups)} lookups "
          f"({100.0 * reuse:.1f} % reuse)")
    assert len(result.log) > 500
    # Even under instrument jitter the memo is reused heavily; a cold
    # cache would make every lookup a miss.
    assert reuse > 0.3


def test_bench_table1_rate_memo_footprint(once, monkeypatch):
    """Only reused bias patterns stay resident in the rate memos.

    Supply and chamber jitter make every DC-stress and negative-rail
    chunk a pattern that never returns; each chip's memo admits a
    pattern on its second miss, so each chip and polarity keeps at most
    the readout burst and the power-gated recovery.  The Table-1 lot
    runs in one process (``shards=1``) as one fleet, captured as the
    campaign builds it, so a memo that stored one-off patterns would
    show here.
    """
    built = []
    lot_fleet = fleet_module._lot_fleet

    def capture(*args):
        built.append(lot_fleet(*args))
        return built[-1]

    monkeypatch.setattr(fleet_module, "_lot_fleet", capture)
    tracer = Tracer()
    once(run_fleet_campaign, seed=0, n_chips=5, fidelity="exact", shards=1, tracer=tracer)
    (fleet,) = built
    entries = {
        (chip_id, polarity): len(getattr(fleet, f"_{polarity}")._memos[position])
        for position, chip_id in enumerate(fleet.chip_ids)
        for polarity in ("pmos", "nmos")
    }
    hits = tracer.metrics.value("bti.rate_cache.hits")
    lookups = hits + tracer.metrics.value("bti.rate_cache.misses")
    print(f"memo entries per chip and polarity: {sorted(entries.values())}; "
          f"{int(hits)} hits / {int(lookups)} lookups")
    assert len(entries) == 10
    assert max(entries.values()) <= 2
    assert hits >= 1250
