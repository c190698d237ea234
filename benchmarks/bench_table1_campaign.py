"""TAB1 — regenerate the paper's Table 1 campaign (the full schedule)."""

from repro.experiments import table1
from repro.lab.campaign import run_table1_campaign
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
    assert metrics.value("bti.rate_cache.hit_rate") == reuse
    # Even under instrument jitter the memo is reused heavily; a cold
    # cache would make every lookup a miss.
    assert reuse > 0.3
