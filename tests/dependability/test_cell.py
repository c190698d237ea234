"""A sweep cell records the same stats whichever engine runs it."""

from repro.dependability import LifetimeSettings, SweepSpec
from repro.dependability.cell import campaign_stats


def cell_stats(engine: str, **overrides) -> dict:
    fields = dict(
        name="engines",
        n_chips=2,
        guard_budget=0,
        seeds=(3,),
        lifetime=LifetimeSettings(enabled=False),
    )
    fields.update(overrides)
    spec = SweepSpec(engine=engine, **fields)
    (cell,) = spec.expand()
    return campaign_stats(cell, spec.retries, spec.retry_backoff_s)


class TestFleetCellDegradation:
    def test_fleet_cell_degradation_matches_table1_cell(self):
        table1, fleet = cell_stats("table1"), cell_stats("fleet")
        assert sorted(fleet["degradation"]) == ["chip-1", "chip-2"]
        assert all(shift > 0.0 for shift in fleet["degradation"].values())
        assert fleet["degradation"] == table1["degradation"]
        assert fleet["log_digest"] == table1["log_digest"]

    def test_default_fleet_cell_completes(self):
        spec = SweepSpec(engine="fleet")
        (cell,) = spec.expand()
        stats = campaign_stats(cell, spec.retries, spec.retry_backoff_s)
        assert stats["engine"] == "fleet"
        assert stats["measurements"] > 0
        assert stats["quarantined"] == []
        # The default spec's per-chip guard budget runs on the fleet too.
        table1 = cell_stats("table1", name="sweep", guard_budget=2, seeds=(0,))
        assert stats["log_digest"] == table1["log_digest"]
