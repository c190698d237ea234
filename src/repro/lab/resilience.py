"""Retry, quarantine and checkpoint/resume for long campaigns.

Three cooperating pieces keep a multi-day virtual campaign alive on a
flaky bench:

* :class:`RetryPolicy` — bounded sample re-reads with deterministic
  backoff measured in *simulated* seconds (the operator holds the phase
  bias while re-arming the readout, so the chip keeps aging during the
  wait, exactly as on hardware);
* :class:`ResilientTestbench` — a :class:`~repro.lab.measurement.VirtualTestbench`
  whose delivered temperature/voltage and readout path consult a
  :class:`~repro.lab.faults.FaultInjector`, retrying transient faults and
  letting :class:`~repro.errors.ChipDropoutError` escape so the campaign
  can quarantine the chip;
* :class:`CheckpointStore` — per-chip on-disk snapshots (trap occupancy,
  bench RNG bit-generator state, DataLog shards) written after every
  completed case, so a killed campaign resumes without replaying
  finished chips.

With no faults installed the resilient bench consumes its RNG stream in
exactly the same order as the plain bench — resilient, checkpointed runs
are bit-identical to unprotected ones.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    CounterOverflowError,
    InstrumentError,
    MeasurementError,
    RetryExhaustedError,
)
from repro.fpga.ring_oscillator import RoMeasurement
from repro.lab.datalog import DataLog
from repro.lab.faults import FaultInjector, FaultKind
from repro.lab.measurement import VirtualTestbench
from repro.lab.schedule import TestPhase


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts every try including the first; backoff before
    retry ``k`` (1-based) is ``backoff_seconds * backoff_multiplier**(k-1)``
    simulated seconds.  No randomness: two runs of the same faulted
    campaign retry at the same simulated times.
    """

    max_attempts: int = 3
    backoff_seconds: float = 5.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0.0:
            raise ConfigurationError("backoff_seconds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be at least 1")

    def backoff(self, retry_number: int) -> float:
        """Simulated seconds to wait before 1-based retry ``retry_number``."""
        return self.backoff_seconds * self.backoff_multiplier ** (retry_number - 1)


@dataclass(frozen=True)
class QuarantineReport:
    """Why a chip was pulled from the campaign, and when."""

    chip_id: str
    case: str
    sim_time: float
    reason: str


class ResilientTestbench(VirtualTestbench):
    """A testbench that survives injected instrument faults.

    Overrides the fault-injectable hooks of
    :class:`~repro.lab.measurement.VirtualTestbench`: delivered
    temperature/voltage pick up drift/droop windows, the readout path
    fires pending one-shot faults, and sampling retries transient errors
    under ``retry``.  Chip dropout is checked at every chunk and readout
    boundary and always escapes.
    """

    #: Counts further than the last good sample that flag a corrupt readout.
    PLAUSIBILITY_COUNTS = 64

    def __init__(
        self,
        chip,
        injector: FaultInjector,
        retry: RetryPolicy | None = None,
        **kwargs,
    ) -> None:
        super().__init__(chip, **kwargs)
        self.injector = injector
        self.retry = retry if retry is not None else RetryPolicy()
        self._last_good_count: int | None = None
        #: Plain retry tally for live progress lines — counted even when
        #: the tracer is the no-op default.
        self.retries_taken = 0
        self._retries = self.tracer.counter(
            "lab.sample_retries", "readout bursts retried after a transient fault"
        )

    def _apply_chunk(self, phase, chunk, temperature, voltage) -> None:
        now = self.chip.elapsed
        upset = self.injector.pop_upset(now)
        if upset is not None:
            # A state upset lands between evolve steps: the bogus
            # occupancy sits in the trap arrays until the next chunk's
            # evolve, where the guard contract catches it (raise mode)
            # or clamps it back into domain (clamp mode).
            self.chip.inject_trap_upset(upset.magnitude)
        super()._apply_chunk(phase, chunk, temperature, voltage)

    def _delivered_temperature(self) -> float:
        now = self.chip.elapsed
        self.injector.check_dropout(now)
        return super()._delivered_temperature() + self.injector.temperature_offset(now)

    def _delivered_voltage(self) -> float:
        now = self.chip.elapsed
        self.injector.check_dropout(now)
        voltage = super()._delivered_voltage()
        if voltage > 0.0:
            # Droop only sags a driven positive rail; an open relay (0 V)
            # or the negative recovery rail is regulated differently.
            droop = self.injector.voltage_droop(now)
            if droop > 0.0:
                voltage = max(voltage - droop, 0.05)
        return voltage

    def _read_measurement(self) -> RoMeasurement:
        now = self.chip.elapsed
        self.injector.check_dropout(now)
        event = self.injector.pop_readout_fault(now)
        if event is None:
            measurement = super()._read_measurement()
            self._last_good_count = measurement.count
            return measurement
        if event.kind is FaultKind.DROPPED_READOUT:
            raise MeasurementError("counter dropped the readout burst")
        if event.kind is FaultKind.RELAY_CHATTER:
            raise InstrumentError("supply relay chatter during the readout burst")
        # Stuck bit: take a real burst, then corrupt its count.
        measurement = super()._read_measurement()
        corrupted = measurement.count | (1 << int(event.magnitude))
        if corrupted > self.ro.counter.max_count:
            raise CounterOverflowError(
                f"count {corrupted} exceeds the counter range (stuck bit "
                f"{int(event.magnitude)})"
            )
        if (
            self._last_good_count is not None
            and abs(corrupted - self._last_good_count) > self.PLAUSIBILITY_COUNTS
        ):
            raise MeasurementError(
                f"implausible count jump {self._last_good_count} -> {corrupted} "
                f"(stuck counter bit {int(event.magnitude)}?)"
            )
        # Within the plausibility band the corruption goes undetected —
        # exactly the silent data error a real stuck LSB produces.
        fref = self.ro.counter.fref
        return RoMeasurement(
            count=corrupted,
            frequency=2.0 * corrupted * fref,
            delay=1.0 / (4.0 * corrupted * fref),
            timestamp=measurement.timestamp,
        )

    def _record_sample(
        self, log: DataLog, case: str, phase: TestPhase, phase_elapsed: float
    ) -> None:
        """Sample with bounded retries; exhausting them raises
        :class:`~repro.errors.RetryExhaustedError` (quarantine)."""
        attempt = 0
        while True:
            try:
                record = self.take_sample(case, phase.label, phase_elapsed)
            except ChipDropoutError:
                raise
            except (InstrumentError, MeasurementError) as error:
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise RetryExhaustedError(
                        f"{self.chip.chip_id} case {case}: sample failed "
                        f"{attempt} times, last error: {error}"
                    ) from error
                self.retries_taken += 1
                self._retries.inc()
                wait = self.retry.backoff(attempt)
                with self.tracer.span(
                    "sample_retry",
                    chip_id=self.chip.chip_id,
                    case=case,
                    phase=phase.label,
                    attempt=attempt,
                    backoff_s=wait,
                ) as span:
                    # The operator re-arms the readout while the phase bias
                    # stays applied: the chip keeps aging through the wait.
                    self._apply_chunk(
                        phase,
                        wait,
                        self._delivered_temperature(),
                        self._delivered_voltage(),
                    )
                    span.set("sim_advanced", wait)
                continue
            log.append(record)
            self._records.inc()
            return


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` so a crash never leaves a torn file.

    The JSON lands in ``<name>.tmp`` first, is flushed and fsynced, and
    only then atomically renamed over the target — a SIGKILL (or power
    loss) at any instant leaves either the previous complete file or the
    new complete file, never a truncation.  An interrupted write (ENOSPC,
    kill mid-dump) can leave the temp file behind; callers detect and
    discard those with :func:`discard_orphan_tmp` before reading.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        # Best effort: do not leave a half-written temp file around for
        # the next reader to trip on (ENOSPC is the classic cause).
        tmp.unlink(missing_ok=True)
        raise


def discard_orphan_tmp(directory: str | Path, pattern: str = "*.tmp") -> list[Path]:
    """Remove temp files a killed writer left behind, with a warning.

    A ``.tmp`` file in a checkpoint/sweep directory means a writer died
    between starting and committing an atomic write; its contents are at
    best stale and at worst truncated.  The committed files it was about
    to replace are still intact, so the right response on resume is to
    warn, drop the orphan, and carry on — never to crash.
    """
    directory = Path(directory)
    removed: list[Path] = []
    for orphan in sorted(directory.glob(pattern)):
        warnings.warn(
            f"{orphan}: discarding orphaned temp file from an interrupted "
            "write (the last committed state is still intact)",
            RuntimeWarning,
            stacklevel=2,
        )
        orphan.unlink(missing_ok=True)
        removed.append(orphan)
    return removed


#: On-disk checkpoint layout version (bump on incompatible changes).
CHECKPOINT_VERSION = 1


class CheckpointStore:
    """Per-chip campaign checkpoints in a directory.

    Layout::

        manifest.json           seed/shape of the campaign + per-chip progress
        <chip>.<g>.state.npz    trap occupancies and clocks (FpgaChip.export_state)
        <chip>.<g>.rng.json     bench RNG bit-generator state
        <chip>.<g>.baseline.csv baseline DataLog shard
        <chip>.<g>.cases.csv    case DataLog shard

    ``<g>`` is a per-chip generation number recorded in the manifest.
    Writes are crash-safe against SIGKILL: each save lands in fresh
    generation files, then the manifest is atomically replaced to point
    at them, then older generations are pruned — a kill at any instant
    leaves the manifest referencing a fully-written snapshot.
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Opening the store is the resume boundary: no writer is live yet,
        # so any .tmp here is an orphan from an interrupted save — warn
        # and drop it before a reader can mistake it for state.
        discard_orphan_tmp(self.directory)

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def read_manifest(self) -> dict | None:
        """The manifest dict, or ``None`` if no checkpoint exists yet."""
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(f"{path}: unreadable manifest ({error})") from error

    def init_manifest(self, seed: int | None, n_chips: int, include_baseline: bool) -> dict:
        """Create (or validate and return) the manifest for this campaign.

        Resuming with a different seed or campaign shape would silently
        splice incompatible data, so a mismatch is a hard error.
        """
        manifest = self.read_manifest()
        if manifest is None:
            manifest = {
                "version": CHECKPOINT_VERSION,
                "seed": seed,
                "n_chips": n_chips,
                "include_baseline": include_baseline,
                "completed": {},
                "generations": {},
                "quarantined": {},
            }
            self._write_manifest(manifest)
            return manifest
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{self._manifest_path()}: checkpoint version "
                f"{manifest.get('version')} != {CHECKPOINT_VERSION}"
            )
        shape = {"seed": seed, "n_chips": n_chips, "include_baseline": include_baseline}
        for key, value in shape.items():
            if manifest.get(key) != value:
                raise CheckpointError(
                    f"{self._manifest_path()}: checkpoint was taken with "
                    f"{key}={manifest.get(key)!r}, cannot resume with {value!r}"
                )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_json(self._manifest_path(), manifest)

    # ------------------------------------------------------------------ #
    # per-chip state
    # ------------------------------------------------------------------ #

    def _generation_of(self, manifest: dict, chip_id: str) -> int:
        return int(manifest.get("generations", {}).get(chip_id, 0))

    def _prune_generations(self, chip_id: str, keep: int) -> None:
        """Best-effort removal of snapshot files older than ``keep``."""
        for path in self.directory.glob(f"{chip_id}.[0-9]*.*"):
            suffix = path.name[len(chip_id) + 1 :]
            try:
                generation = int(suffix.split(".", 1)[0])
            except ValueError:
                continue
            if generation < keep:
                path.unlink(missing_ok=True)

    def save_chip(
        self,
        chip,
        bench_rng: np.random.Generator,
        baseline_log: DataLog,
        case_log: DataLog,
        completed: list[str],
        quarantine: QuarantineReport | None = None,
    ) -> None:
        """Snapshot one chip after a completed case (or at quarantine).

        The snapshot is written to a fresh generation of files and only
        then referenced from the manifest, so a kill mid-save never
        corrupts the previous checkpoint.
        """
        chip_id = chip.chip_id
        manifest = self.read_manifest()
        if manifest is None:
            raise CheckpointError(
                f"{self._manifest_path()}: manifest vanished mid-campaign"
            )
        generation = self._generation_of(manifest, chip_id) + 1
        prefix = f"{chip_id}.{generation}"
        np.savez(self.directory / f"{prefix}.state.npz", **chip.export_state())
        with open(self.directory / f"{prefix}.rng.json", "w") as handle:
            json.dump(bench_rng.bit_generator.state, handle)
        baseline_log.write_csv(self.directory / f"{prefix}.baseline.csv")
        case_log.write_csv(self.directory / f"{prefix}.cases.csv")
        manifest = self.read_manifest()
        if manifest is None:
            raise CheckpointError(
                f"{self._manifest_path()}: manifest vanished mid-campaign"
            )
        manifest["completed"][chip_id] = list(completed)
        manifest.setdefault("generations", {})[chip_id] = generation
        if quarantine is not None:
            manifest["quarantined"][chip_id] = {
                "case": quarantine.case,
                "sim_time": quarantine.sim_time,
                "reason": quarantine.reason,
            }
        self._write_manifest(manifest)
        self._prune_generations(chip_id, keep=generation)

    def load_chip(
        self, chip, bench_rng: np.random.Generator
    ) -> tuple[DataLog, DataLog, list[str], QuarantineReport | None] | None:
        """Restore a chip in place; return its shards and progress.

        ``None`` means no checkpoint exists for this chip (it starts
        fresh).  On success the chip's trap state and the bench RNG are
        rewound to the end of the last completed case.
        """
        manifest = self.read_manifest()
        chip_id = chip.chip_id
        if manifest is None or chip_id not in manifest["completed"]:
            return None
        generation = self._generation_of(manifest, chip_id)
        if generation < 1:
            raise CheckpointError(
                f"{self.directory}: manifest lists {chip_id} as checkpointed "
                "but records no snapshot generation for it"
            )
        prefix = f"{chip_id}.{generation}"
        try:
            with np.load(self.directory / f"{prefix}.state.npz") as data:
                chip.import_state({key: data[key] for key in data.files})
            with open(self.directory / f"{prefix}.rng.json") as handle:
                bench_rng.bit_generator.state = json.load(handle)
            baseline_log = DataLog.read_csv(self.directory / f"{prefix}.baseline.csv")
            case_log = DataLog.read_csv(self.directory / f"{prefix}.cases.csv")
        except (OSError, KeyError, ValueError, MeasurementError) as error:
            raise CheckpointError(
                f"{self.directory}: corrupt checkpoint for {chip_id} ({error})"
            ) from error
        completed = list(manifest["completed"][chip_id])
        quarantine = None
        entry = manifest.get("quarantined", {}).get(chip_id)
        if entry is not None:
            quarantine = QuarantineReport(
                chip_id=chip_id,
                case=entry["case"],
                sim_time=float(entry["sim_time"]),
                reason=entry["reason"],
            )
        return baseline_log, case_log, completed, quarantine
