"""SMOKE — 200-chip fleet: sequential vs sharded runs must hash alike.

Guards the shard-merge contract end to end: a 200-chip binned-fidelity
fleet run in one process and the same lot fanned out over two worker
processes must produce identical per-chip sanitizer digests, identical
summaries and an identical merged record stream.  Every worker
re-derives the full per-chip RNG stream table from the master seed, so
the shard cut must never move a stream.

Run directly (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/smoke_fleet_campaign.py -q
"""

from repro.lab.fleet import run_fleet_campaign

SEED = 3
N_CHIPS = 200


def test_fleet_shards_bit_identical():
    sequential = run_fleet_campaign(
        seed=SEED, n_chips=N_CHIPS, fidelity="binned", sanitize=True,
        collect="summary", shards=1,
    )
    sharded = run_fleet_campaign(
        seed=SEED, n_chips=N_CHIPS, fidelity="binned", sanitize=True,
        collect="summary", shards=2,
    )
    assert sequential.state_hashes, "sanitizer produced no digests"
    assert sequential.state_hashes == sharded.state_hashes
    assert list(sequential.log) == list(sharded.log)
    assert sequential.fresh_delays == sharded.fresh_delays
    assert [s.case_end_frequency for s in sequential.summaries] == [
        s.case_end_frequency for s in sharded.summaries
    ]
    print(
        f"{N_CHIPS}-chip fleet: {len(sequential.state_hashes)} phase digests "
        f"identical across 1 vs 2 shards ({sequential.total_measurements} "
        f"measurements)"
    )
