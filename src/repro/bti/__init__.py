"""Device-level BTI (bias temperature instability) aging and recovery models.

Three model families live here:

* :mod:`repro.bti.traps` — a microscopic trapping/detrapping ensemble with
  exact closed-form occupancy evolution per bias phase.  This is the
  library's "virtual silicon": everything the virtual FPGA testbed measures
  is ultimately produced by these traps.
* :mod:`repro.bti.firstorder` — the paper's first-order closed forms
  (Eqs. 1–4 at device level, Eqs. 8–13 at path-delay level), used for
  parameter extraction and model-vs-measurement validation exactly as the
  paper uses them against real silicon.
* :mod:`repro.bti.rd_model` — a classic reaction–diffusion power-law model,
  kept as a baseline comparator.
"""

from repro.bti.acceleration import arrhenius_factor, field_factor
from repro.bti.cet import CetMap, EmissionSpectrum, cet_map, emission_spectrum
from repro.bti.conditions import (
    AC_FIFTY_FIFTY,
    DC,
    BiasCondition,
    BiasPhase,
    StressPolarity,
    Waveform,
)
from repro.bti.firstorder import (
    FirstOrderBtiModel,
    FirstOrderDelayModel,
    RecoveryParameters,
    StressParameters,
)
from repro.bti.rd_model import ReactionDiffusionModel
from repro.bti.statistical import (
    ShiftStatistics,
    margin_at_quantile,
    sample_device_shifts,
    shift_statistics,
    sigma_mu_relation,
)
from repro.bti.traps import TrapParameters, TrapPopulation

__all__ = [
    "AC_FIFTY_FIFTY",
    "DC",
    "BiasCondition",
    "CetMap",
    "EmissionSpectrum",
    "BiasPhase",
    "FirstOrderBtiModel",
    "FirstOrderDelayModel",
    "ReactionDiffusionModel",
    "ShiftStatistics",
    "RecoveryParameters",
    "StressParameters",
    "StressPolarity",
    "TrapParameters",
    "TrapPopulation",
    "Waveform",
    "arrhenius_factor",
    "cet_map",
    "emission_spectrum",
    "margin_at_quantile",
    "sample_device_shifts",
    "shift_statistics",
    "sigma_mu_relation",
    "field_factor",
]
