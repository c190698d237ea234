"""Raw-bytes pins of the multicore simulation's outputs.

The Fig. 10 scheduler ladder, a fast-forwarded rotation, a lifetime
projection and a standalone core's tape are pinned to the last bit, so
a refactor of how the cores' trap populations are held and stepped
keeps every multicore number.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.experiments.fig10 import SCHEDULERS, _make_scheduler
from repro.multicore.core_model import CoreAgingModel, CoreSegment
from repro.multicore.lifetime import project_multicore_lifetime
from repro.multicore.scheduler import CircadianScheduler, HeaterAwareScheduler
from repro.multicore.system import MulticoreSystem
from repro.multicore.workload import ConstantWorkload
from repro.units import celsius, hours

#: ``fig10.run(seed=0)``'s four 336-epoch histories, per scheduler.
FIG10_HISTORY_DIGESTS = {
    "baseline": "b5f0944b313a4f53",
    "round-robin": "b6c55e94492843ab",
    "circadian": "b343c6b97cb78333",
    "heater-aware": "389a46df11baae6d",
}

#: ``MulticoreSystem(seed=3).fast_forward(circadian, 6, 40)`` and its energy.
FAST_FORWARD_DIGEST = "2111c9dcb8e6307e"

#: Heater-aware lifetime of ``MulticoreSystem(seed=2)`` to a 0.5 ps budget.
LIFETIME_DIGEST = "1217e68e0927dd8c"

#: A standalone core's observables after each step of a mixed tape.
CORE_TAPE_DIGEST = "83c7090e20d0629b"


def digest(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("name", SCHEDULERS)
def test_fig10_history(name):
    history = MulticoreSystem(seed=0).run(
        _make_scheduler(name), ConstantWorkload(6), n_epochs=24 * 14,
        epoch_duration=hours(1.0),
    )
    assert digest(
        history.delay_shifts.tobytes(),
        history.temperatures.tobytes(),
        history.active_mask.tobytes(),
        floats(history.energy_joules),
    ) == FIG10_HISTORY_DIGESTS[name]


def test_fast_forward():
    system = MulticoreSystem(seed=3)
    final = system.fast_forward(CircadianScheduler(), demand=6, n_rotations=40)
    assert digest(final.tobytes(), floats(system.total_energy())) == FAST_FORWARD_DIGEST


def test_lifetime_projection():
    life = project_multicore_lifetime(
        MulticoreSystem(seed=2), HeaterAwareScheduler(), ConstantWorkload(6),
        bti_budget=0.5e-12, horizon_epochs=96,
    )
    assert (life.epochs_survived, life.limited_by) == (47, "bti")
    assert digest(
        floats(life.final_worst_bti_shift, life.final_worst_em_damage)
    ) == LIFETIME_DIGEST


def test_core_tape():
    core = CoreAgingModel("core-pin", rng=9)
    tape = []

    def record():
        tape.append(floats(
            core.average_delta_vth(), core.delta_path_delay(), core.energy_joules,
            core.active_seconds, core.sleep_seconds,
        ))

    core.run_active(hours(6.0), celsius(85.0))
    record()
    core.sleep(hours(2.0), celsius(70.0))
    record()
    core.sleep(hours(1.5), celsius(95.0), voltage=-0.3)
    record()
    state = core.snapshot()
    core.run_cycles(
        (
            CoreSegment(hours(1.0), celsius(80.0), active=True),
            CoreSegment(hours(0.5), celsius(100.0), active=False, sleep_voltage=-0.2),
            CoreSegment(hours(0.25), celsius(60.0), active=False),
        ),
        200,
    )
    record()
    core.restore(state)
    record()
    core.run_active(hours(3.0), celsius(90.0))
    record()
    assert np.isfinite(core.average_delta_vth())
    assert digest(*tape) == CORE_TAPE_DIGEST
