"""Resilient batch execution of a sweep grid.

The runner executes the pending cells of the grid, starting them in
index order, with three layers of protection:

* **process isolation** (default): each attempt runs in a forked child
  (:class:`~repro.lab.resilience.IsolatedJobs`) that sends its stats
  (and, in a traced sweep, its campaign spans, as an inline attempt
  keeps them) back over a pipe, so a hard crash (segfault, OOM kill, an
  injected SIGKILL) loses one cell, not the sweep.  Up to one attempt
  per usable CPU is in flight, and the next pending attempt starts as
  soon as a child finishes; inline isolation runs one at a time;
* **wall-clock timeout**: a hung attempt is killed and recorded as
  ``timeout`` once ``timeout_s`` seconds have passed since its own start;
* **bounded per-cell retries**: transient crashes get ``cell_retries``
  attempts before the cell is declared failed; a failed attempt goes
  back to the head of the queue as that cell's next attempt.

The graceful-degradation contract (DESIGN.md): a failing cell is
*recorded* — status, error, attempts, seed — never raised, and the sweep
always completes on the surviving cells.  Every finished cell persists
through :class:`~repro.dependability.store.SweepStore` as soon as its
final outcome is known, so a SIGKILL of the *runner* costs at most the
cells in flight (one per usable CPU), and ``resume`` re-runs only
unfinished cells.  Cell results are deterministic (wall-clock fields are
excluded from the digest), so running cells side by side moves no bit,
and a resumed sweep is bit-identical on every cell that already ran.
Outcomes and the trace keep cell order whatever order cells finish in.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from repro.dependability.cell import campaign_stats
from repro.dependability.spec import SweepCell, SweepSpec
from repro.dependability.store import SweepStore
from repro.errors import ConfigurationError
from repro.lab.resilience import IsolatedJobs, JobOutcome, usable_cpus
from repro.obs import NULL_PROGRESS, NULL_TRACER
from repro.units import hours

#: Injection hooks for tests and smoke benchmarks: ``cell_id -> mode``.
#: ``crash`` kills the cell on every attempt, ``crash-once`` only on the
#: first (exercising the retry path), ``hang`` sleeps past the timeout
#: (process isolation only).
INJECT_MODES = ("crash", "crash-once", "hang")


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell, successful or not."""

    cell_id: str
    status: str  # "ok" | "failed" | "timeout"
    attempts: int
    error: str = ""
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)
    digest: str = ""  # digest of the deterministic part of ``stats``

    @property
    def ok(self) -> bool:
        """True when the cell's campaign completed."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-serialisable form for the cell store."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> CellOutcome:
        """Rehydrate a persisted outcome (a missing field takes its default)."""
        known = {f.name for f in fields(cls)}
        return cls(**{"attempts": 1, **{k: v for k, v in payload.items() if k in known}})


@dataclass(frozen=True)
class SweepResult:
    """A finished (possibly degraded) sweep: one outcome per cell."""

    spec: SweepSpec
    directory: str
    cells: tuple[SweepCell, ...]
    outcomes: tuple[CellOutcome, ...]

    @property
    def ok_cells(self) -> tuple[CellOutcome, ...]:
        """Outcomes of cells whose campaign completed."""
        return tuple(outcome for outcome in self.outcomes if outcome.ok)

    @property
    def degraded_cells(self) -> tuple[CellOutcome, ...]:
        """Outcomes recorded as failed or timed out."""
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    @property
    def complete(self) -> bool:
        """True when no cell degraded."""
        return not self.degraded_cells


def _stats_digest(stats: dict) -> str:
    """Digest of the deterministic part of a cell's stats.

    Wall-clock-derived fields can never be bit-identical across runs, so
    they are excluded — this digest is the resume/bit-identity contract.
    """
    payload = {k: v for k, v in stats.items() if k not in ("wall_s", "sim_per_wall")}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _execute_cell(
    cell: SweepCell, retries: int, backoff_s: float, inject: str | None, tracer
) -> dict:
    """One attempt at one cell, with optional failure injection."""
    if inject in ("crash", "crash-once"):
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError(f"injected crash in {cell.cell_id}")
    if inject == "hang":
        if multiprocessing.parent_process() is None:
            raise RuntimeError(
                f"injected hang in {cell.cell_id} (inline isolation cannot "
                "time out; use process isolation)"
            )
        time.sleep(hours(1.0))
    return campaign_stats(cell, retries, backoff_s, tracer)


class SweepRunner:
    """Executes a sweep grid with per-cell isolation, timeout and retry.

    Parameters
    ----------
    spec:
        The sweep to run (validated on expansion).
    directory:
        Progress ledger location; pass the same directory to resume.
    timeout_s:
        Wall-clock budget per cell attempt, counted from the attempt's own
        start (process isolation only).
    cell_retries:
        Attempts per cell before recording it as failed.
    isolation:
        ``"process"`` forks a child per cell attempt (crash/timeout-proof),
        one per usable CPU at a time; ``"inline"`` runs the same protocol
        in-process, one attempt at a time (no fork, but no timeout either,
        and a hard crash takes the runner with it).
    inject:
        Optional ``cell_id -> mode`` failure injection (see
        :data:`INJECT_MODES`) for tests and smoke benchmarks.
    """

    def __init__(
        self,
        spec: SweepSpec,
        directory: str | Path,
        *,
        timeout_s: float = 600.0,
        cell_retries: int = 2,
        isolation: str = "process",
        tracer=None,
        progress=None,
        inject: dict[str, str] | None = None,
    ) -> None:
        if timeout_s <= 0.0:
            raise ConfigurationError(f"timeout_s must be positive, got {timeout_s}")
        if cell_retries < 1:
            raise ConfigurationError(f"cell_retries must be >= 1, got {cell_retries}")
        if isolation not in ("process", "inline"):
            raise ConfigurationError(
                f"isolation must be 'process' or 'inline', got {isolation!r}"
            )
        for cell_id, mode in (inject or {}).items():
            if mode not in INJECT_MODES:
                raise ConfigurationError(
                    f"unknown inject mode {mode!r} for {cell_id} "
                    f"(choose from {', '.join(INJECT_MODES)})"
                )
        self.spec = spec
        self.directory = Path(directory)
        self.timeout_s = timeout_s
        self.cell_retries = cell_retries
        self.isolation = isolation
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.inject = dict(inject or {})

    def cells_at_once(self, pending: int) -> int:
        """Cell attempts in flight at once while ``pending`` cells remain.

        One per usable CPU under process isolation (never more than the
        pending cells); inline isolation runs one attempt at a time.
        """
        if self.isolation == "inline":
            return 1
        return max(1, min(usable_cpus(), pending))

    def _job(self, cell: SweepCell, attempt: int):
        """Attempt number ``attempt`` at one cell, as an isolated job."""
        inject = self.inject.get(cell.cell_id)
        if inject == "crash-once" and attempt > 1:
            inject = None
        return partial(_execute_cell, cell, self.spec.retries, self.spec.retry_backoff_s, inject)

    def _fold(self, cell: SweepCell, attempts: list[JobOutcome]) -> CellOutcome:
        """A cell's attempts, the last one final, as one outcome."""
        last = attempts[-1]
        wall_s = last.finished - attempts[0].started
        if last.kind == "ok":
            return CellOutcome(
                cell_id=cell.cell_id,
                status="ok",
                attempts=len(attempts),
                wall_s=wall_s,
                stats=last.value,
                digest=_stats_digest(last.value),
            )
        error = {
            "error": f"{type(last.value).__name__}: {last.value}",
            "died": f"cell worker died without reporting (exit code {last.value})",
            "timeout": f"cell exceeded the {self.timeout_s:g} s wall-clock budget",
        }[last.kind]
        return CellOutcome(
            cell_id=cell.cell_id,
            status="timeout" if last.kind == "timeout" else "failed",
            attempts=len(attempts),
            error=error,
            wall_s=wall_s,
        )

    def _run_pending(
        self, pending: list[SweepCell], store: SweepStore, outcomes: dict, cells_run
    ) -> None:
        """Run every attempt the pending cells need, up to :meth:`cells_at_once` at a time.

        A failed attempt goes back to the head of the queue as the cell's
        next attempt.  Each final outcome is stored and reported as soon
        as it is known; the trace gets every attempt in cell order, each
        under a ``sweep_cell`` span covering its own run.
        """
        counter = self.tracer.counter
        failures = counter("sweep.cell_failures", "sweep cells that exhausted their attempts")
        timeouts = counter("sweep.cell_timeouts", "sweep cell attempts killed on timeout")
        retries = counter("sweep.cell_retries", "extra attempts after a failed cell attempt")
        queue = deque((cell, 1) for cell in pending)
        attempts: dict[str, list[JobOutcome]] = {cell.cell_id: [] for cell in pending}
        finished = traced = 0
        with IsolatedJobs(
            self.tracer,
            limit=self.cells_at_once(len(pending)),
            fork=self.isolation == "process",
            timeout_s=self.timeout_s,
        ) as jobs:
            while queue or jobs.busy:
                while queue and jobs.free:
                    cell, attempt = queue.popleft()
                    if attempt > 1:
                        retries.inc()
                    jobs.start((cell, attempt), self._job(cell, attempt))
                done = jobs.wait()
                cell, attempt = done.key
                attempts[cell.cell_id].append(done)
                if done.kind == "timeout":
                    timeouts.inc()
                if done.kind != "ok" and attempt < self.cell_retries:
                    queue.appendleft((cell, attempt + 1))
                    continue
                outcome = self._fold(cell, attempts[cell.cell_id])
                if not outcome.ok:
                    failures.inc()
                store.write_cell(cell.cell_id, outcome.to_dict())
                outcomes[cell.cell_id] = outcome
                cells_run.inc()
                finished += 1
                self.progress.line(
                    f"{cell.cell_id:<10} {outcome.status:<8} "
                    f"({finished}/{len(pending)} pending cells"
                    + (f", error: {outcome.error}" if outcome.error else "")
                    + ")"
                )
                while traced < len(pending) and pending[traced].cell_id in outcomes:
                    cell = pending[traced]
                    for run in attempts.pop(cell.cell_id):
                        self.tracer.interval(
                            "sweep_cell", run.started, run.finished, run.trace,
                            cell=cell.cell_id, attempt=run.key[1], engine=cell.engine,
                        )
                    traced += 1

    # -- whole-sweep entry points -----------------------------------------

    def run(self, resume: bool = False) -> SweepResult:
        """Execute every unfinished cell and return the complete grid.

        With ``resume=True`` the directory must already hold a manifest
        for this spec; finished cells are loaded, not re-run.  Without it
        the directory is initialised (idempotently, so ``run`` on a
        partially-complete directory also picks up where it left off).
        """
        store = SweepStore(self.directory)
        if resume:
            store.check_spec(self.spec)
        else:
            store.initialise(self.spec)
        cells = self.spec.expand()
        finished = store.load_cells()
        outcomes: dict[str, CellOutcome] = {
            cell_id: CellOutcome.from_dict(payload)
            for cell_id, payload in finished.items()
        }
        pending = [cell for cell in cells if cell.cell_id not in outcomes]
        cells_run = self.tracer.counter("sweep.cells", "sweep cells executed")
        with self.tracer.span(
            "sweep",
            sweep=self.spec.name,
            n_cells=len(cells),
            pending=len(pending),
            resumed=len(outcomes),
        ):
            if pending:
                self._run_pending(pending, store, outcomes, cells_run)
        return SweepResult(
            spec=self.spec,
            directory=str(self.directory),
            cells=cells,
            outcomes=tuple(outcomes[cell.cell_id] for cell in cells),
        )

    @classmethod
    def resume(
        cls,
        directory: str | Path,
        *,
        timeout_s: float = 600.0,
        cell_retries: int = 2,
        isolation: str = "process",
        tracer=None,
        progress=None,
        inject: dict[str, str] | None = None,
    ) -> SweepResult:
        """Reload a sweep directory's spec and finish its unfinished cells."""
        store = SweepStore(directory)
        spec = store.load_spec()
        runner = cls(
            spec,
            directory,
            timeout_s=timeout_s,
            cell_retries=cell_retries,
            isolation=isolation,
            tracer=tracer,
            progress=progress,
            inject=inject,
        )
        return runner.run(resume=True)
