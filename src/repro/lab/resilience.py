"""Retry, quarantine and checkpoint/resume for long campaigns.

Three cooperating pieces keep a multi-day virtual campaign alive on a
flaky bench (the campaign engine, :class:`~repro.lab.fleet.FleetBench`,
applies them chip by chip):

* :class:`RetryPolicy` — bounded sample re-reads with deterministic
  backoff measured in *simulated* seconds (the operator holds the phase
  bias while re-arming the readout, so the chip keeps aging during the
  wait, exactly as on hardware);
* :class:`QuarantineReport` — why and when a chip that dropped out,
  exhausted its retries or its guard budget was pulled from the bench;
* :class:`CheckpointStore` — per-chip on-disk snapshots (trap occupancy,
  bench RNG bit-generator state, DataLog shards) written after every
  completed case, so a killed campaign resumes without replaying
  finished cases.

With no faults installed a chip's bench consumes its RNG stream in
exactly the same order as with an empty fault plan — resilient,
checkpointed runs are bit-identical to unprotected ones.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, MeasurementError
from repro.lab.datalog import DataLog


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
