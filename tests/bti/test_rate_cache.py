"""Rate caching and closed-form cycle compression of the trap ensemble.

The rate memo must be *transparent*: a cached population and one whose
memo is dropped before every phase, fed the same bias history, must
produce identical occupancy, and the memo must be dropped on ``reset`` /
``restore`` so stale rates can never leak across state changes.  A
pattern is admitted on its second miss, so only reused patterns stay
resident.  ``evolve_cycles`` must match the naive evolve-in-a-loop
reference within the acceptance budget of 1e-9 over at least a thousand
cycles.
"""

import numpy as np
import pytest

from repro.bti.traps import RATE_CACHE_SIZE, CyclePhase, TrapParameters, TrapPopulation
from repro.errors import ConfigurationError
from repro.fpga.chip import FpgaChip
from repro.lab.datalog import DataLog
from repro.lab.measurement import VirtualTestbench
from repro.lab.schedule import PhaseKind, TestPhase
from repro.obs import Tracer
from repro.units import celsius, hours


def make_population(seed=7, tracer=None) -> TrapPopulation:
    return TrapPopulation(
        TrapParameters(mean_trap_count=40.0),
        n_owners=4,
        rng=seed,
        tracer=tracer,
    )


STRESS_V = 1.2
RECOVER_V = -0.3
HOT = celsius(110.0)


class TestCacheTransparency:
    def test_cached_rates_match_uncached_reference(self):
        pop = make_population()
        for duty, relax in ((1.0, 0.0), (0.5, 0.0), (0.25, -0.3)):
            capture, emission = pop._effective_rates(STRESS_V, HOT, duty, relax)
            # Reference: duty-average the uncached per-trap rate path.
            v = np.full(pop.n_traps, STRESS_V)
            ref_c, ref_e = pop._rates(v, HOT)
            if duty < 1.0:
                sup = pop.params.ac_capture_suppression ** (1.0 - duty)
                off_c, off_e = pop._rates(np.full(pop.n_traps, relax), HOT)
                ref_c = duty * sup * ref_c + (1.0 - duty) * off_c
                ref_e = duty * ref_e + (1.0 - duty) * off_e
            np.testing.assert_allclose(capture, ref_c, rtol=1e-12)
            np.testing.assert_allclose(emission, ref_e, rtol=1e-12)

    def test_cached_population_evolves_identically_to_fresh(self):
        cached = make_population(seed=3)
        history = [
            (hours(1.0), STRESS_V, HOT, 1.0, 0.0),
            (hours(0.5), RECOVER_V, HOT, 1.0, 0.0),
            (hours(1.0), STRESS_V, HOT, 0.5, 0.0),
            (hours(1.0), STRESS_V, HOT, 1.0, 0.0),  # repeat: cache hit path
        ]
        for args in history:
            cached.evolve(*args)
        fresh = make_population(seed=3)
        for args in history:
            fresh._invalidate_rate_cache()
            fresh.evolve(*args)
        np.testing.assert_array_equal(cached.occupancy, fresh.occupancy)

    def test_repeated_bias_hits_the_cache(self):
        # The first miss only records the pattern, the second admits it.
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        for _ in range(5):
            pop.evolve(hours(1.0), STRESS_V, HOT)
        assert tracer.metrics.value("bti.rate_cache.misses") == 2.0
        assert tracer.metrics.value("bti.rate_cache.hits") == 3.0

    def test_new_temperature_reuses_the_memo(self):
        # The memo is temperature-free: a jittered temperature still hits.
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, celsius(100.0))
        assert tracer.metrics.value("bti.rate_cache.misses") == 2.0
        assert tracer.metrics.value("bti.rate_cache.hits") == 1.0

    def test_cache_is_bounded(self):
        pop = make_population()
        for i in range(2 * RATE_CACHE_SIZE):
            pop.evolve(60.0, 1.0 + 0.01 * i, HOT)
            pop.evolve(60.0, 1.0 + 0.01 * i, HOT)
        assert pop.rate_cache_entries == RATE_CACHE_SIZE

    def test_patterns_seen_once_are_not_retained(self):
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        for i in range(2 * RATE_CACHE_SIZE):
            pop.evolve(60.0, 1.0 + 0.01 * i, HOT)
        assert pop.rate_cache_entries == 0
        assert tracer.metrics.value("bti.rate_cache.misses") == 2 * RATE_CACHE_SIZE

    def test_history_is_bounded(self):
        # A pattern pushed out of the history needs two more misses.
        pop = make_population()
        pop.evolve(60.0, STRESS_V, HOT)
        for i in range(RATE_CACHE_SIZE):
            pop.evolve(60.0, 0.5 + 0.01 * i, HOT)
        pop.evolve(60.0, STRESS_V, HOT)
        assert pop.rate_cache_entries == 0
        pop.evolve(60.0, STRESS_V, HOT)
        assert pop.rate_cache_entries == 1


class TestRetention:
    """Under bench jitter only the patterns that come back stay resident."""

    PHASES = (
        TestPhase("stress", PhaseKind.STRESS, hours(1.0), 110.0, 1.2,
                  sampling_interval=hours(0.25)),
        TestPhase("passive", PhaseKind.RECOVERY, hours(1.0), 110.0, 0.0,
                  sampling_interval=hours(0.25)),
        TestPhase("negative", PhaseKind.RECOVERY, hours(1.0), 110.0, -0.3,
                  sampling_interval=hours(0.25)),
    )

    def run_schedule(self, accuracy_volts: float) -> FpgaChip:
        chip = FpgaChip("chip-memo", seed=3)
        bench = VirtualTestbench(chip, rng=5)
        bench.supply.accuracy_volts = accuracy_volts
        log = DataLog()
        for phase in self.PHASES:
            bench.run_phase(phase, "CASE", log)
        return chip

    def test_jittered_supply_leaves_only_repeating_patterns(self):
        # Every DC-stress and negative-rail chunk sees a fresh supply
        # draw; the readout burst (AC at the nominal rail) and the
        # power-gated 0 V recovery repeat, so exactly those two stay.
        chip = self.run_schedule(accuracy_volts=1.0e-3)
        assert chip._fleet._pmos.rate_cache_entries == 2
        assert chip._fleet._nmos.rate_cache_entries == 2

    def test_exact_supply_keeps_every_repeated_pattern(self):
        # Without supply jitter the stress and negative-rail chunks
        # repeat too (temperature jitter does not enter the key).
        chip = self.run_schedule(accuracy_volts=0.0)
        assert chip._fleet._pmos.rate_cache_entries == 4
        assert chip._fleet._nmos.rate_cache_entries == 4


class TestGroupingIndependence:
    """Each chip has its own memo, so its counts never depend on its span."""

    def test_counts_equal_for_one_and_two_shards(self):
        from repro.lab.fleet import run_fleet_campaign

        counts = []
        for shards in (1, 2):
            tracer = Tracer()
            run_fleet_campaign(
                seed=0, n_chips=4, fidelity="exact", shards=shards, tracer=tracer
            )
            counts.append(
                [tracer.metrics.value(f"bti.rate_cache.{kind}") for kind in ("hits", "misses")]
            )
        assert counts[0] == counts[1]
        assert counts[0][0] > 0


class TestCacheInvalidation:
    """The stale-cache class: state changes must drop the rate memo."""

    def test_reset_clears_the_cache(self):
        pop = make_population()
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert pop.rate_cache_entries > 0
        pop.reset()
        assert pop.rate_cache_entries == 0

    def test_restore_clears_the_cache(self):
        pop = make_population()
        state = pop.snapshot()
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert pop.rate_cache_entries > 0
        pop.restore(state)
        assert pop.rate_cache_entries == 0

    def test_reset_clears_the_history(self):
        # A pattern seen once before the reset is new again after it.
        pop = make_population()
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.reset()
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert pop.rate_cache_entries == 0

    def test_snapshot_restore_replay_is_exact_despite_caching(self):
        pop = make_population(seed=11)
        pop.evolve(hours(2.0), STRESS_V, HOT)
        state = pop.snapshot()
        mid = pop.occupancy.copy()
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        pop.restore(state)
        np.testing.assert_array_equal(pop.occupancy, mid)
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        end_a = pop.occupancy.copy()
        pop.restore(state)
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        np.testing.assert_array_equal(pop.occupancy, end_a)


class TestEvolveCycles:
    def phases(self):
        return (
            CyclePhase(duration=hours(1.0), stress_voltage=STRESS_V,
                       temperature=HOT, duty=0.5, relax_voltage=0.0),
            CyclePhase(duration=hours(0.25), stress_voltage=RECOVER_V,
                       temperature=HOT),
        )

    def test_matches_naive_loop_over_1000_cycles(self):
        n = 1000
        closed = make_population(seed=9)
        closed.evolve_cycles(self.phases(), n)
        naive = make_population(seed=9)
        for _ in range(n):
            for phase in self.phases():
                naive.evolve(phase.duration, phase.stress_voltage,
                             phase.temperature, phase.duty, phase.relax_voltage)
        np.testing.assert_allclose(
            closed.occupancy, naive.occupancy, rtol=1e-9, atol=1e-12
        )
        assert closed.elapsed == pytest.approx(naive.elapsed, rel=1e-12)

    def test_matches_loop_from_stressed_state(self):
        closed = make_population(seed=4)
        closed.evolve(hours(24.0), STRESS_V, HOT)
        naive = make_population(seed=4)
        naive.evolve(hours(24.0), STRESS_V, HOT)
        closed.evolve_cycles(self.phases(), 64)
        for _ in range(64):
            for phase in self.phases():
                naive.evolve(phase.duration, phase.stress_voltage,
                             phase.temperature, phase.duty, phase.relax_voltage)
        np.testing.assert_allclose(
            closed.occupancy, naive.occupancy, rtol=1e-9, atol=1e-12
        )

    def test_zero_cycles_is_a_noop(self):
        pop = make_population()
        before = pop.occupancy.copy()
        pop.evolve_cycles(self.phases(), 0)
        np.testing.assert_array_equal(pop.occupancy, before)
        assert pop.elapsed == 0.0

    def test_zero_duration_phases_are_skipped(self):
        pop = make_population(seed=2)
        ref = make_population(seed=2)
        padded = (CyclePhase(duration=0.0, stress_voltage=0.0, temperature=HOT),
                  *self.phases())
        pop.evolve_cycles(padded, 10)
        ref.evolve_cycles(self.phases(), 10)
        np.testing.assert_array_equal(pop.occupancy, ref.occupancy)

    def test_counts_compressed_cycles(self):
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        pop.evolve_cycles(self.phases(), 250)
        assert tracer.metrics.value("bti.cycles_compressed") == 250.0

    def test_rejects_bad_inputs(self):
        pop = make_population()
        with pytest.raises(ConfigurationError):
            pop.evolve_cycles(self.phases(), -1)
        with pytest.raises(ConfigurationError):
            pop.evolve_cycles((), 5)
        with pytest.raises(ConfigurationError):
            CyclePhase(duration=-1.0, stress_voltage=1.2, temperature=HOT)
        with pytest.raises(ConfigurationError):
            CyclePhase(duration=1.0, stress_voltage=1.2, temperature=HOT, duty=1.5)
