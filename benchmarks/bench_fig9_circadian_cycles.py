"""FIG9 — wearout vs accelerated recovery over a periodic schedule."""

import time

from repro.core.knobs import OperatingPoint, RecoveryKnobs
from repro.core.planner import CircadianPlanner
from repro.experiments import fig9
from repro.fpga.chip import FpgaChip
from repro.obs import Tracer
from repro.units import hours


def test_bench_fig9_circadian_cycles(once):
    """Regenerate the Fig. 9 saw-tooth vs unmitigated-aging comparison."""
    result = once(fig9.run, seed=0, n_cycles=8)
    result.table().print()
    print(
        f"envelope margin relaxed vs no-healing baseline: "
        f"{result.comparison.margin_relaxed:.1%}; "
        f"per-cycle recovery at steady state: "
        f"{result.comparison.end_recovery_fraction:.1%}"
    )
    assert result.envelope_bounded
    assert result.healed_stays_below_baseline


def test_bench_cycle_compression(once):
    """Report the closed-form compression on a constant-condition loop."""
    knobs = RecoveryKnobs(alpha=4.0, sleep_voltage=-0.3, sleep_temperature_c=110.0)
    planner = CircadianPlanner(knobs, OperatingPoint(temperature_c=110.0),
                               period=hours(30.0))
    n_cycles = 5000  # ~17 years of schedule

    def measure():
        tracer = Tracer()
        chip = FpgaChip("bench-compress", seed=0, tracer=tracer)
        start = time.perf_counter()
        trough = planner.fast_forward(chip, n_cycles)
        wall = time.perf_counter() - start
        return wall, trough, tracer

    wall, trough, tracer = once(measure)
    compressed = tracer.metrics.value("bti.cycles_compressed")
    print(f"fast-forward {n_cycles} cycles: {wall * 1e3:.1f} ms "
          f"({compressed:.0f} population-cycles compressed), "
          f"trough dTd {trough * 1e12:.1f} ps")
    assert trough > 0.0
    assert compressed >= n_cycles
