"""repro — accelerated self-healing for electronic systems.

A production-quality reproduction of Guo, Burleson and Stan, *Modeling and
Experimental Demonstration of Accelerated Self-Healing Techniques*,
DAC 2014: device-level BTI trapping/detrapping models, a virtual 40 nm
FPGA testbed (pass-transistor LUT ring oscillators under a thermal chamber
and programmable supplies), the accelerated self-healing core (recovery
knobs, proactive scheduling, model fitting), and a multi-core extension.

Quickstart::

    from repro import FpgaChip, StressMode
    from repro.units import celsius, hours

    chip = FpgaChip("demo", seed=1)
    chip.apply_stress(hours(24), temperature=celsius(110), mode=StressMode.DC)
    aged = chip.delta_path_delay()
    chip.apply_recovery(hours(6), temperature=celsius(110), supply_voltage=-0.3)
    healed = chip.delta_path_delay()
    print(f"recovered {1 - healed / aged:.0%} of the delay shift")
"""

from repro.bti import (
    BiasCondition,
    BiasPhase,
    FirstOrderBtiModel,
    FirstOrderDelayModel,
    ReactionDiffusionModel,
    StressPolarity,
    TrapParameters,
    TrapPopulation,
    Waveform,
)
from repro.device import TECH_40NM, ProcessVariation, TechnologyParameters
from repro.errors import PhysicsViolationError
from repro.fpga import FpgaChip, ReadoutCounter, RingOscillator, StressMode
from repro.guard import Guard, GuardConfig, GuardMode, use_guard

__version__ = "1.0.0"

__all__ = [
    "BiasCondition",
    "BiasPhase",
    "FirstOrderBtiModel",
    "FirstOrderDelayModel",
    "FpgaChip",
    "Guard",
    "GuardConfig",
    "GuardMode",
    "PhysicsViolationError",
    "ProcessVariation",
    "ReactionDiffusionModel",
    "ReadoutCounter",
    "RingOscillator",
    "StressMode",
    "StressPolarity",
    "TECH_40NM",
    "TechnologyParameters",
    "TrapParameters",
    "TrapPopulation",
    "Waveform",
    "__version__",
    "use_guard",
]
