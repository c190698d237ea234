"""Checkpoint restore must invalidate trap-rate caches (regression).

The rate caches memoise on bias/temperature keys, so a restore *could*
keep them warm — but the invalidation contract is load-bearing: any
future cache key that reads mutable state (and the defensive posture of
``restore``/``import_state``) requires the caches to drop on every state
replacement.  The observable contract tested here is stronger than the
cache counters: a chip resumed from a :class:`CheckpointStore` snapshot
and then evolved must stay bit-identical to the chip that never stopped,
even when the resumed process polluted its caches with other biases
first.
"""

import numpy as np

from repro.fpga.chip import FpgaChip
from repro.lab.datalog import DataLog
from repro.lab.resilience import CheckpointStore, ChipProgress
from repro.units import hours

HOT = 110.0
COLD = 20.0


def _chip(seed=0) -> FpgaChip:
    return FpgaChip("chip-ckpt", seed=seed)


class TestRestoreInvalidatesCaches:
    def test_import_state_empties_both_populations(self):
        chip = _chip()
        chip.apply_stress(hours(1.0), HOT)
        chip.apply_recovery(hours(0.5), HOT, supply_voltage=-0.3)
        chip.apply_stress(hours(1.0), HOT)  # a repeated pattern is admitted
        assert chip._fleet._pmos.rate_cache_entries > 0
        state = chip.export_state()
        chip.import_state(state)
        assert chip._fleet._pmos.rate_cache_entries == 0
        assert chip._fleet._nmos.rate_cache_entries == 0

    def test_restore_empties_both_populations(self):
        chip = _chip()
        snapshot = chip.snapshot()
        chip.apply_stress(hours(1.0), HOT)
        chip.apply_stress(hours(1.0), HOT)  # a repeated pattern is admitted
        assert chip._fleet._pmos.rate_cache_entries > 0
        chip.restore(snapshot)
        assert chip._fleet._pmos.rate_cache_entries == 0
        assert chip._fleet._nmos.rate_cache_entries == 0


class TestResumeThenEvolveBitIdentity:
    def test_checkpoint_roundtrip_then_evolve_matches_uninterrupted(self, tmp_path):
        # The uninterrupted reference: stress, checkpoint-time mark,
        # then the post-resume schedule.
        reference = _chip()
        reference.apply_stress(hours(2.0), HOT)
        continued_rng = np.random.default_rng(42)
        store = CheckpointStore(tmp_path)
        store.init_manifest(seed=0, n_chips=1, include_baseline=True, fidelity="exact",
                            bins_per_decade=3.0, collect="records")
        store.save_chip(
            reference,
            continued_rng,
            DataLog(),
            DataLog(),
            ChipProgress(completed=["CASE-A"]),
        )
        reference.apply_stress(hours(1.0), HOT)
        reference.apply_recovery(hours(1.0), COLD, supply_voltage=-0.3)
        reference_noise = continued_rng.integers(0, 1 << 16, size=4)

        # The resumed process: same construction, *different* early
        # history (polluting the rate caches with other bias keys), then
        # a checkpoint load and the same post-resume schedule.
        resumed = _chip()
        resumed.apply_stress(hours(0.25), COLD, supply_voltage=1.1)
        resumed.apply_recovery(hours(0.25), HOT, supply_voltage=0.0)
        resumed_rng = np.random.default_rng(7)
        loaded = store.load_chip(resumed, resumed_rng)
        assert loaded is not None
        _, _, progress = loaded
        assert progress.completed == ["CASE-A"] and progress.quarantine is None
        assert resumed._fleet._pmos.rate_cache_entries == 0
        resumed.apply_stress(hours(1.0), HOT)
        resumed.apply_recovery(hours(1.0), COLD, supply_voltage=-0.3)
        resumed_noise = resumed_rng.integers(0, 1 << 16, size=4)

        assert resumed.elapsed == reference.elapsed
        np.testing.assert_array_equal(resumed.delta_vth(), reference.delta_vth())
        assert resumed.path_delay() == reference.path_delay()
        # The bench RNG stream resumes exactly where the snapshot took it.
        np.testing.assert_array_equal(resumed_noise, reference_noise)
