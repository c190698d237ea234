"""Retry, quarantine, checkpoint/resume and child processes for long campaigns.

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
  DataLog shards and a :class:`ChipProgress` file with the bench RNG
  state) written after every completed case, so a killed campaign
  resumes without replaying finished cases.  Every chip's files are its
  own, so a checkpoint works at either fidelity and across shard
  workers, and a resume may use another shard count or batch size.

Fleet shards and sweep cells run through :class:`IsolatedJobs`: one
forked child per job, at most a set number in flight, each with its own
deadline, its result (and, in a traced run, its trace) sent back over a
pipe, and no child outliving the process that forked it.  Fleet shards
fork all their ranges at once through :func:`run_isolated`.

With no faults installed a chip's bench consumes its RNG stream in
exactly the same order as with an empty fault plan — resilient,
checkpointed runs are bit-identical to unprotected ones.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import traceback
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, MeasurementError
from repro.lab.datalog import DataLog
from repro.obs.tracer import NULL_TRACER, Tracer


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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class JobOutcome:
    """How one isolated job ended, and when it ran.

    ``kind`` is ``"ok"`` (``value`` is the result), ``"error"`` (the
    exception), ``"died"`` (the exit code of a child that sent no
    report) or ``"timeout"`` (``None``).  ``trace`` is the job's own
    tracer, for an ``ok`` job of a traced run.  ``started`` and
    ``finished`` are ``time.perf_counter()`` readings.
    """

    key: object
    kind: str
    value: object
    trace: Tracer | None
    started: float
    finished: float


def _outcome(job, tracer) -> tuple:
    """``(kind, value, trace)`` of one job run here; the job records into a
    fresh ``trace`` only when ``tracer`` is enabled."""
    trace = Tracer(keep_spans=getattr(tracer, "keep_spans", True)) if tracer.enabled else None
    try:
        return "ok", job(trace or NULL_TRACER), trace
    except Exception as error:
        return "error", error, None


def _child_main(job, tracer, sender, lifeline: tuple[int, int]) -> None:
    def exit_with_parent() -> None:
        os.read(lifeline[0], 1)  # returns only at EOF: the parent is gone
        os._exit(1)

    os.close(lifeline[1])  # the parent alone holds the write end open
    threading.Thread(target=exit_with_parent, daemon=True).start()
    outcome = _outcome(job, tracer)
    if outcome[0] == "error":  # a traceback does not pickle: send its text as a note
        error = outcome[1]
        text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        error.__notes__ = [*getattr(error, "__notes__", []), text]
    sender.send(outcome)


class IsolatedJobs:
    """Jobs in forked children, at most ``limit`` in flight, each with its own deadline.

    :meth:`start` forks a child for ``job(tracer)``; :meth:`wait` blocks
    until one child reports, dies or outlives ``timeout_s`` seconds from
    its own start (it is then killed), and returns its
    :class:`JobOutcome`.  Forked children inherit every loaded module
    and may run any callable; only outcomes cross the pipe.  A child
    exits as soon as this process dies, and one still alive when the
    ``with`` block ends is killed.  ``fork=False`` runs each job in this
    process as it starts, under the same protocol, without a timeout.
    """

    def __init__(
        self, tracer=NULL_TRACER, *, limit: int = 1, fork: bool = True,
        timeout_s: float | None = None,
    ) -> None:
        self.tracer = tracer
        self.limit = limit
        self.fork = fork
        self.timeout_s = timeout_s
        self._context = multiprocessing.get_context("fork")
        self._lifeline: tuple[int, int] | None = None
        #: Forked children in start order: (key, process, receiver, started).
        self._live: list[tuple] = []
        #: Outcomes of inline jobs not yet returned by :meth:`wait`.
        self._done: list[JobOutcome] = []

    def __enter__(self) -> IsolatedJobs:
        if self.fork:
            self._lifeline = os.pipe()
        return self

    def __exit__(self, *exc_info) -> None:
        for _, process, receiver, _ in self._live:
            receiver.close()
            if process.is_alive():
                process.kill()
            process.join()
        self._live = []
        if self._lifeline is not None:
            for end in self._lifeline:
                os.close(end)
            self._lifeline = None

    @property
    def busy(self) -> int:
        """Jobs started whose outcome :meth:`wait` has not returned yet."""
        return len(self._live) + len(self._done)

    @property
    def free(self) -> int:
        """How many more jobs may start before the next :meth:`wait`."""
        return self.limit - self.busy

    def start(self, key, job) -> None:
        """Start ``job(tracer)``; its outcome comes back under ``key``."""
        if self.free < 1:
            raise ConfigurationError(f"{self.limit} jobs already in flight")
        started = time.perf_counter()
        if not self.fork:
            kind, value, trace = _outcome(job, self.tracer)
            self._done.append(JobOutcome(key, kind, value, trace, started, time.perf_counter()))
            return
        receiver, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_child_main, args=(job, self.tracer, sender, self._lifeline)
        )
        process.start()
        sender.close()
        self._live.append((key, process, receiver, started))

    def wait(self) -> JobOutcome:
        """The outcome of the next job to finish (the earliest started on a tie)."""
        if self._done:
            return self._done.pop(0)
        if not self._live:
            raise ConfigurationError("no job in flight")
        # Imported here, not at the top: a process that never forks (an
        # unsharded campaign) does not load the connection machinery.
        from multiprocessing.connection import wait as wait_for

        while True:
            timeout = None
            if self.timeout_s is not None:
                first_deadline = min(entry[3] for entry in self._live) + self.timeout_s
                timeout = max(0.0, first_deadline - time.perf_counter())
            ready = wait_for([entry[2] for entry in self._live], timeout)
            for entry in self._live:
                if entry[2] in ready:
                    return self._collect(entry)
            if self.timeout_s is None:
                continue
            now = time.perf_counter()
            for entry in self._live:
                if now - entry[3] >= self.timeout_s:
                    return self._collect(entry, timed_out=True)

    def _collect(self, entry: tuple, timed_out: bool = False) -> JobOutcome:
        key, process, receiver, started = entry
        self._live.remove(entry)
        outcome = None
        if timed_out:
            process.kill()
            outcome = ("timeout", None, None)
        else:
            try:
                outcome = receiver.recv()
            except EOFError:
                pass
        finished = time.perf_counter()
        receiver.close()
        process.join()
        if outcome is None:
            outcome = ("died", process.exitcode, None)
        return JobOutcome(key, *outcome, started, finished)


def run_isolated(jobs, tracer=NULL_TRACER, *, fork: bool = True, timeout_s: float | None = None):
    """Run each ``job(tracer)`` in a forked child at once; one outcome per job, in job order.

    An outcome is ``("ok", result)``, ``("error", exception)``,
    ``("died", exit_code)`` (no report) or ``("timeout", None)`` (no
    report within ``timeout_s`` seconds of that child's start); see
    :class:`IsolatedJobs` for the protocol.  When ``tracer`` is enabled
    each job records into a fresh tracer, absorbed into ``tracer`` in job
    order under its open span.  ``fork=False`` runs the jobs in this
    process, one after another, without a timeout.
    """
    jobs = list(jobs)
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    with IsolatedJobs(tracer, limit=max(1, len(jobs)), fork=fork, timeout_s=timeout_s) as pool:
        for index, job in enumerate(jobs):
            pool.start(index, job)
        for _ in jobs:
            outcome = pool.wait()
            outcomes[outcome.key] = outcome
    for outcome in outcomes:
        if outcome.trace is not None:
            tracer.absorb(outcome.trace)
    return [(outcome.kind, outcome.value) for outcome in outcomes]


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
CHECKPOINT_VERSION = 2


@dataclass
class ChipProgress:
    """What a chip's checkpoint records besides its trap state and logs."""

    completed: list[str]
    quarantine: QuarantineReport | None = None
    #: The bench's last plausible counter reading (the stuck-bit check's reference).
    last_good_count: int | None = None
    #: Records taken, before summary-mode trimming.
    measurements: int = 0
    #: Violations the chip's own guard has counted against its budget.
    guard_violations: int = 0


class CheckpointStore:
    """Per-chip campaign checkpoints in a directory.

    Layout::

        manifest.json           campaign shape (seed, lot size, fidelity, ...)
        <chip>.json             snapshot generation, ChipProgress, bench RNG state
        <chip>.<g>.state.npz    trap occupancies and clocks (FpgaChip.export_state)
        <chip>.<g>.baseline.csv baseline DataLog shard
        <chip>.<g>.cases.csv    case DataLog shard

    The campaign writes the manifest once; every other file belongs to
    one chip, so shard workers write disjoint files and a resume may cut
    the lot into any shards or batches.  Writes are crash-safe against
    SIGKILL: each save lands in fresh generation files, then
    ``<chip>.json`` is atomically replaced to point at them, then older
    generations are pruned — a kill at any instant leaves every progress
    file referencing a fully-written snapshot.

    Only the process that opened the store and its children (the forked
    shards of :func:`run_isolated`) may save: a shard that outlives a
    killed campaign stops at its next save instead of racing a resumed run.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Opening the store is the resume boundary: no writer is live yet,
        # so any .tmp here is an orphan from an interrupted save — warn
        # and drop it before a reader can mistake it for state.
        discard_orphan_tmp(self.directory)
        self.manifest_path = self.directory / "manifest.json"
        self._owner = os.getpid()
        #: Per chip, the snapshot generation its progress file references.
        self._generations: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def read_manifest(self) -> dict | None:
        """The manifest dict, or ``None`` if no checkpoint exists yet."""
        if not self.manifest_path.exists():
            return None
        try:
            with open(self.manifest_path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"{self.manifest_path}: unreadable manifest ({error})"
            ) from error

    def init_manifest(self, **shape) -> None:
        """Create, or validate against, the manifest of a campaign's ``shape``.

        Resuming with another layout version, seed or campaign shape
        would silently splice incompatible data, so a mismatch is a hard
        error.
        """
        expected = {"version": CHECKPOINT_VERSION, **shape}
        manifest = self.read_manifest()
        if manifest is None:
            atomic_write_json(self.manifest_path, expected)
            return
        for key, value in expected.items():
            if manifest.get(key) != value:
                raise CheckpointError(
                    f"{self.manifest_path}: checkpoint was taken with "
                    f"{key}={manifest.get(key)!r}, cannot resume with {value!r}"
                )

    # ------------------------------------------------------------------ #
    # per-chip state
    # ------------------------------------------------------------------ #

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
        progress: ChipProgress,
    ) -> None:
        """Snapshot one chip after a completed case (or at quarantine).

        The snapshot is written to a fresh generation of files and only
        then referenced from the chip's progress file, so a kill mid-save
        never corrupts the previous checkpoint.
        """
        if self._owner not in (os.getpid(), os.getppid()):
            raise CheckpointError(
                f"{self.directory}: process {os.getpid()} neither opened this "
                "checkpoint nor is a child of the campaign that did; refusing "
                "to write where a resumed run may be writing"
            )
        chip_id = chip.chip_id
        generation = self._generations.get(chip_id, 0) + 1
        prefix = f"{chip_id}.{generation}"
        np.savez(self.directory / f"{prefix}.state.npz", **chip.export_state())
        baseline_log.write_csv(self.directory / f"{prefix}.baseline.csv")
        case_log.write_csv(self.directory / f"{prefix}.cases.csv")
        atomic_write_json(
            self.directory / f"{chip_id}.json",
            {"generation": generation, "rng": bench_rng.bit_generator.state, **asdict(progress)},
        )
        self._generations[chip_id] = generation
        self._prune_generations(chip_id, keep=generation)

    def load_chip(
        self, chip, bench_rng: np.random.Generator
    ) -> tuple[DataLog, DataLog, ChipProgress] | None:
        """Restore a chip in place; return its shards and progress.

        ``None`` means no checkpoint exists for this chip (it starts
        fresh).  On success the chip's trap state and the bench RNG are
        rewound to the end of the last completed case.
        """
        chip_id = chip.chip_id
        path = self.directory / f"{chip_id}.json"
        if not path.exists():
            return None
        try:
            with open(path) as handle:
                entry = json.load(handle)
            generation = int(entry.pop("generation"))
            prefix = f"{chip_id}.{generation}"
            with np.load(self.directory / f"{prefix}.state.npz") as data:
                chip.import_state({key: data[key] for key in data.files})
            bench_rng.bit_generator.state = entry.pop("rng")
            baseline_log = DataLog.read_csv(self.directory / f"{prefix}.baseline.csv")
            case_log = DataLog.read_csv(self.directory / f"{prefix}.cases.csv")
            quarantine = entry.pop("quarantine")
            progress = ChipProgress(
                quarantine=None if quarantine is None else QuarantineReport(**quarantine),
                **entry,
            )
        except (OSError, KeyError, TypeError, ValueError, MeasurementError) as error:
            raise CheckpointError(
                f"{self.directory}: corrupt checkpoint for {chip_id} ({error})"
            ) from error
        self._generations[chip_id] = generation
        return baseline_log, case_log, progress
