"""The ``bti.rate`` verdict of the memoised rate path equals the full check.

Both exact engines check rates through per-chip extrema kept in each
chip's rate memo entry instead of scanning the written arrays.  These
tests make exactly one chip's rates go bad (a NaN relax voltage, or a
stress voltage whose capture rate exceeds ``rate_cap``) and compare each
engine against a reference that builds the same rates with the kernel
and calls ``Guard.check_array`` on each chip's block directly: raise
mode must raise the same error, clamp mode must give the same clamped
occupancy bytes and violation counts, on a memo miss and on a memo hit.
"""

import numpy as np
import pytest

from repro.bti.fleet import FleetTraps, draw_population
from repro.bti.traps import (
    TrapParameters,
    TrapPopulation,
    _affine_step,
    _arrhenius,
    _combined_rates,
)
from repro.errors import FleetDropoutError, PhysicsViolationError
from repro.guard import Guard, GuardConfig
from repro.obs import Tracer
from repro.units import celsius, hours

PARAMS = TrapParameters(mean_trap_count=40.0)
N_OWNERS = 4
SEEDS = (21, 22, 23)
BAD_CHIP = 1
TEMPS = np.array([celsius(100.0), celsius(125.0), celsius(110.0)])
DURATION = hours(1.0)
#: One call that misses and records, one that misses and admits, one hit.
CALLS = 3

#: name -> (per-chip stress V, duty, per-chip relax V) with BAD_CHIP bad.
BIASES = {
    # NaN relax voltage: the bad chip's duty-mixed rates are NaN.
    "nan-relax": ([1.2, 1.2, 1.2], 0.5, [0.0, np.nan, 0.0]),
    # exp(700)-clamped field factor times the Arrhenius factor at 125 C
    # lifts the fastest traps' capture rate past rate_cap = 1e300.
    "over-cap": ([1.2, 200.0, 1.1], 1.0, [0.0, 0.0, 0.0]),
}


def _guard(mode: str) -> tuple[Guard, Tracer]:
    tracer = Tracer()
    return Guard(GuardConfig(mode=mode, dump_dir=None), tracer=tracer), tracer


def _chip_draws():
    return [
        draw_population(PARAMS, N_OWNERS, np.random.default_rng(seed))
        for seed in SEEDS
    ]


def _reference_rates(draws, v_stress, duty, v_relax, temperatures):
    """Per-trap rates of each chip, from the kernel without the memo."""
    capture, emission = [], []
    for chip, d in enumerate(draws):
        relax = None if duty >= 1.0 else np.full(N_OWNERS, v_relax[chip])
        comb_c, comb_e = _combined_rates(
            PARAMS, np.full(N_OWNERS, v_stress[chip]), duty, relax,
            1.0 / d.tau_c0, 1.0 / d.tau_e0, np.bincount(d.owner, minlength=N_OWNERS),
        )
        arr_c, arr_e = _arrhenius(PARAMS, temperatures[chip])
        capture.append(comb_c * arr_c)
        emission.append(comb_e * arr_e)
    return np.concatenate(capture), np.concatenate(emission)


def _reference_evolve(guard, occupancy, draws, bias, temperatures, inputs):
    """``evolve`` with the full ``check_array`` on freshly built rates,
    chip block by chip block."""
    v_stress, duty, v_relax = bias
    capture, emission = _reference_rates(draws, v_stress, duty, v_relax, temperatures)
    bounds = np.cumsum([0] + [d.n_traps for d in draws])
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    rate_cap = guard.config.rate_cap
    for block in blocks:
        guard.check_array("bti.rate", capture[block], 0.0, rate_cap, inputs=inputs)
        guard.check_array("bti.rate", emission[block], 0.0, rate_cap, inputs=inputs)
    with np.errstate(invalid="ignore"):
        _affine_step(
            occupancy, capture, emission, DURATION,
            np.empty_like(occupancy), np.empty_like(occupancy),
        )
    for block in blocks:
        guard.check_array("bti.occupancy", occupancy[block], 0.0, 1.0)


def _population_case(guard, tracer, bias):
    """A one-chip population on the bad chip, and its evolve call."""
    pop = TrapPopulation(
        PARAMS, N_OWNERS, np.random.default_rng(SEEDS[BAD_CHIP]),
        tracer=tracer, guard=guard,
    )
    v_stress, duty, v_relax = bias

    def evolve():
        pop.evolve(
            DURATION, v_stress[BAD_CHIP], TEMPS[BAD_CHIP], duty=duty,
            relax_voltage=v_relax[BAD_CHIP],
        )

    def reference(ref_guard, occupancy):
        inputs = {"temperature": float(TEMPS[BAD_CHIP]), "duty": float(duty)}
        one_chip = ([v_stress[BAD_CHIP]], duty, [v_relax[BAD_CHIP]])
        _reference_evolve(
            ref_guard, occupancy, [_chip_draws()[BAD_CHIP]], one_chip,
            TEMPS[BAD_CHIP : BAD_CHIP + 1], inputs,
        )

    return evolve, lambda: pop.occupancy, reference, 1


def _fleet_case(guard, tracer, bias):
    """A 3-chip exact fleet span with one bad chip, and its evolve call."""
    fleet = FleetTraps(PARAMS, N_OWNERS, _chip_draws(), guard=guard, tracer=tracer)
    v_stress, duty, v_relax = bias
    stress = np.repeat(np.array(v_stress)[:, None], N_OWNERS, axis=1)
    relax = np.repeat(np.array(v_relax)[:, None], N_OWNERS, axis=1)

    def evolve():
        fleet.evolve(DURATION, stress, TEMPS, duty=duty, v_relax=relax)

    def reference(ref_guard, occupancy):
        inputs = {"duty": float(duty), "fleet_chips": len(SEEDS)}
        _reference_evolve(ref_guard, occupancy, _chip_draws(), bias, TEMPS, inputs)

    return evolve, lambda: fleet.occupancy, reference, len(SEEDS)


#: name -> case builder returning (evolve, occupancy, reference, chips);
#: each chip has its own rate memo, so a memo hit counts once per chip.
CASES = {"population": _population_case, "fleet": _fleet_case}


@pytest.mark.parametrize("bias", sorted(BIASES))
@pytest.mark.parametrize("engine", sorted(CASES))
def test_raise_mode_raises_the_reference_error(engine, bias):
    guard, tracer = _guard("raise")
    evolve, occupancy, reference, chips = CASES[engine](guard, tracer, BIASES[bias])
    ref_guard, _ = _guard("raise")
    for call in range(CALLS):
        with pytest.raises(PhysicsViolationError) as expected:
            reference(ref_guard, occupancy().copy())
        with pytest.raises(PhysicsViolationError) as raised:
            evolve()
        assert raised.value.contract == "bti.rate"
        assert str(raised.value) == str(expected.value)
        hits = tracer.metrics.value("bti.rate_cache.hits")
        # The raise stops a span at the bad chip: later chips look nothing up.
        looked_up = min(chips, BAD_CHIP + 1)
        assert hits == (looked_up if call == CALLS - 1 else 0.0)
    assert guard.violations == ref_guard.violations == CALLS


@pytest.mark.parametrize("bias", sorted(BIASES))
@pytest.mark.parametrize("engine", sorted(CASES))
def test_clamp_mode_matches_the_reference_bytes(engine, bias):
    guard, tracer = _guard("clamp")
    evolve, occupancy, reference, chips = CASES[engine](guard, tracer, BIASES[bias])
    ref_guard, ref_tracer = _guard("clamp")
    expected = occupancy().copy()
    for call in range(CALLS):
        reference(ref_guard, expected)
        with np.errstate(invalid="ignore"):
            evolve()
        assert occupancy().tobytes() == expected.tobytes()
        for name in ("guard.violations.bti.rate", "guard.violations.bti.occupancy"):
            assert tracer.metrics.value(name) == ref_tracer.metrics.value(name)
        assert tracer.metrics.value("guard.violations.bti.rate") > 0
        hits = tracer.metrics.value("bti.rate_cache.hits")
        assert hits == (chips if call == CALLS - 1 else 0.0)
    assert guard.violations == ref_guard.violations


@pytest.mark.parametrize("engine", sorted(CASES))
def test_healthy_rates_pass_without_violations(engine):
    guard, tracer = _guard("raise")
    healthy = ([1.2, 1.1, 1.3], 0.5, [0.0, -0.3, 0.0])
    evolve, occupancy, reference, chips = CASES[engine](guard, tracer, healthy)
    ref_guard, _ = _guard("raise")
    expected = occupancy().copy()
    for _ in range(CALLS):
        reference(ref_guard, expected)
        evolve()
    assert occupancy().tobytes() == expected.tobytes()
    assert guard.violations == ref_guard.violations == 0
    assert tracer.metrics.value("bti.rate_cache.hits") == chips


def test_chip_without_traps_passes_the_verdict():
    # An empty chip block writes no rates, so even a NaN temperature on
    # it is no violation, as under the full check of the written arrays.
    empty = draw_population(
        TrapParameters(mean_trap_count=0.001), N_OWNERS, np.random.default_rng(0)
    )
    assert empty.n_traps == 0
    draws = _chip_draws()
    guard, tracer = _guard("raise")
    fleet = FleetTraps(
        PARAMS, N_OWNERS, [draws[0], empty, draws[2]], guard=guard, tracer=tracer
    )
    temperatures = TEMPS.copy()
    temperatures[BAD_CHIP] = np.nan
    for _ in range(CALLS):
        fleet.evolve(DURATION, 1.2, temperatures)
    assert guard.violations == 0
    assert tracer.metrics.value("bti.rate_cache.hits") == len(draws)


def test_exhausted_budget_drops_only_its_chip():
    # One guard per chip, no budget to spare: the over-cap chip stops
    # before its update, as it would alone, and the span's other chips
    # evolve exactly as they do beside a healthy chip.
    def fleet(bias):
        guards = [
            Guard(GuardConfig(mode="clamp", violation_budget=0, dump_dir=None))
            for _ in SEEDS
        ]
        traps = FleetTraps(PARAMS, N_OWNERS, _chip_draws(), guard=guards)
        stress = np.repeat(np.array(bias)[:, None], N_OWNERS, axis=1)
        return traps, stress

    struck, stress = fleet(BIASES["over-cap"][0])
    with pytest.raises(FleetDropoutError) as dropped:
        struck.evolve(DURATION, stress, TEMPS)
    assert set(dropped.value.errors) == {BAD_CHIP}
    healthy, healthy_stress = fleet([1.2, 1.2, 1.1])
    healthy.evolve(DURATION, healthy_stress, TEMPS)
    for chip in range(len(SEEDS)):
        if chip == BAD_CHIP:
            assert not struck.occupancy_row(chip).any()
            assert struck.elapsed[chip] == 0.0
        else:
            np.testing.assert_array_equal(
                struck.occupancy_row(chip), healthy.occupancy_row(chip)
            )
