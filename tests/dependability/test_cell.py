"""A sweep cell records the same stats whichever engine runs it."""

from repro.dependability import LifetimeSettings, SweepSpec
from repro.dependability.cell import campaign_stats


def cell_stats(engine: str) -> dict:
    spec = SweepSpec(
        name="engines",
        engine=engine,
        n_chips=2,
        guard_budget=0,
        seeds=(3,),
        lifetime=LifetimeSettings(enabled=False),
    )
    (cell,) = spec.expand()
    return campaign_stats(cell, spec.retries, spec.retry_backoff_s)


class TestFleetCellDegradation:
    def test_fleet_cell_degradation_matches_table1_cell(self):
        table1, fleet = cell_stats("table1"), cell_stats("fleet")
        assert sorted(fleet["degradation"]) == ["chip-1", "chip-2"]
        assert all(shift > 0.0 for shift in fleet["degradation"].values())
        assert fleet["degradation"] == table1["degradation"]
        assert fleet["log_digest"] == table1["log_digest"]
