"""Shared fixtures: fast chips, bias conditions and the session campaign."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bti.conditions import BiasCondition
from repro.bti.traps import TrapParameters
from repro.device.technology import TechnologyParameters
from repro.device.variation import ProcessVariation
from repro.fpga.chip import FpgaChip
from repro.units import celsius


def fast_trap_params(**overrides) -> TrapParameters:
    """Trap parameters with a small population for quick unit tests."""
    defaults = dict(mean_trap_count=12.0)
    defaults.update(overrides)
    return TrapParameters(**defaults)


def fast_technology() -> TechnologyParameters:
    """Technology with small trap populations (fast chip construction)."""
    return TechnologyParameters(
        nbti_traps=fast_trap_params(),
        pbti_traps=fast_trap_params(impact_mean_volts=2.56e-3),
    )


@pytest.fixture
def stress_110() -> BiasCondition:
    """Full-rail stress at the paper's accelerated temperature."""
    return BiasCondition(stress_voltage=1.2, temperature=celsius(110.0))


@pytest.fixture
def recover_110_neg() -> BiasCondition:
    """The paper's best recovery condition: 110 degC at -0.3 V."""
    return BiasCondition(stress_voltage=-0.3, temperature=celsius(110.0))


@pytest.fixture
def small_chip() -> FpgaChip:
    """A 5-stage chip with small trap populations — fast but realistic."""
    return FpgaChip(
        "test-chip",
        n_stages=5,
        tech=fast_technology(),
        variation=ProcessVariation(0.0, 0.0, 0.0),
        seed=123,
    )


@pytest.fixture
def chip_factory():
    """Factory for small chips with custom settings."""

    def make(seed: int = 123, n_stages: int = 5, **kwargs) -> FpgaChip:
        kwargs.setdefault("tech", fast_technology())
        kwargs.setdefault("variation", ProcessVariation(0.0, 0.0, 0.0))
        return FpgaChip(f"chip-seed{seed}", n_stages=n_stages, seed=seed, **kwargs)

    return make


@pytest.fixture(scope="session")
def campaign_result():
    """The full Table-1 campaign, run once per test session (read-only)."""
    from repro.experiments import table1

    return table1.campaign(0)


@pytest.fixture
def power_loss(monkeypatch):
    """``power_loss(chip_id, steps)`` makes a checkpointed campaign die
    right after ``chip_id`` checkpoints its ``steps``-th finished step (a
    forked shard worker inherits it); ``power_loss()`` disarms it so a
    resume runs through."""
    from repro.lab.resilience import CheckpointStore

    original = CheckpointStore.save_chip
    armed: dict = {}

    def save_then_die(self, chip, bench_rng, baseline_log, case_log, progress):
        original(self, chip, bench_rng, baseline_log, case_log, progress)
        if armed.get("at") == (chip.chip_id, len(progress.completed)):
            raise RuntimeError("simulated power loss")

    def arm(chip_id: str | None = None, steps: int = 0) -> None:
        armed["at"] = (chip_id, steps)

    monkeypatch.setattr(CheckpointStore, "save_chip", save_then_die)
    return arm


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for noise-consuming tests."""
    return np.random.default_rng(2024)
