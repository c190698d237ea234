"""Resilient batch execution of a sweep grid.

The runner walks the cell grid in index order and executes each cell's
campaign with three layers of protection:

* **process isolation** (default): each attempt runs in a forked child
  (:func:`~repro.lab.resilience.run_isolated`) that sends its stats (and,
  in a traced sweep, its campaign spans, as an inline attempt keeps them)
  back over a pipe, so a hard crash (segfault, OOM kill, an injected
  SIGKILL) loses one cell, not the sweep;
* **wall-clock timeout**: a hung cell is killed and recorded as
  ``timeout`` after ``timeout_s`` seconds;
* **bounded per-cell retries**: transient crashes get ``cell_retries``
  attempts before the cell is declared failed.

The graceful-degradation contract (DESIGN.md): a failing cell is
*recorded* — status, error, attempts, seed — never raised, and the sweep
always completes on the surviving cells.  Every finished cell persists
through :class:`~repro.dependability.store.SweepStore` before the next
cell starts, so a SIGKILL of the *runner* costs at most the cell in
flight, and ``resume`` re-runs only unfinished cells.  Cell results are
deterministic (wall-clock fields are excluded from the digest), so a
resumed sweep is bit-identical on every cell that already ran.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from repro.dependability.cell import campaign_stats
from repro.dependability.spec import SweepCell, SweepSpec
from repro.dependability.store import SweepStore
from repro.errors import ConfigurationError
from repro.lab.resilience import run_isolated
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
        Wall-clock budget per cell attempt (process isolation only).
    cell_retries:
        Attempts per cell before recording it as failed.
    isolation:
        ``"process"`` forks a child per cell attempt (crash/timeout-proof);
        ``"inline"`` runs the same protocol in-process (faster for tiny
        demo sweeps, but a hard crash takes the runner with it).
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

    def _run_cell(self, cell: SweepCell) -> CellOutcome:
        """All attempts at one cell, folding to a single outcome."""
        counter = self.tracer.counter
        failures = counter("sweep.cell_failures", "sweep cells that exhausted their attempts")
        timeouts = counter("sweep.cell_timeouts", "sweep cell attempts killed on timeout")
        retries = counter("sweep.cell_retries", "extra attempts after a failed cell attempt")
        started = time.monotonic()
        last_error, last_status = "", "failed"
        for attempt in range(1, self.cell_retries + 1):
            inject = self.inject.get(cell.cell_id)
            if inject == "crash-once" and attempt > 1:
                inject = None
            if attempt > 1:
                retries.inc()
            job = partial(_execute_cell, cell, self.spec.retries, self.spec.retry_backoff_s, inject)
            with self.tracer.span(
                "sweep_cell", cell=cell.cell_id, attempt=attempt, engine=cell.engine
            ):
                ((kind, payload),) = run_isolated(
                    [job], self.tracer, fork=self.isolation == "process",
                    timeout_s=self.timeout_s,
                )
            if kind == "ok":
                return CellOutcome(
                    cell_id=cell.cell_id,
                    status="ok",
                    attempts=attempt,
                    wall_s=time.monotonic() - started,
                    stats=payload,
                    digest=_stats_digest(payload),
                )
            last_status = "timeout" if kind == "timeout" else "failed"
            last_error = {
                "error": f"{type(payload).__name__}: {payload}",
                "died": f"cell worker died without reporting (exit code {payload})",
                "timeout": f"cell exceeded the {self.timeout_s:g} s wall-clock budget",
            }[kind]
            if kind == "timeout":
                timeouts.inc()
        failures.inc()
        return CellOutcome(
            cell_id=cell.cell_id,
            status=last_status,
            attempts=self.cell_retries,
            error=last_error,
            wall_s=time.monotonic() - started,
        )

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
        cells_counter = self.tracer.counter("sweep.cells", "sweep cells executed")
        with self.tracer.span(
            "sweep",
            sweep=self.spec.name,
            n_cells=len(cells),
            pending=len(pending),
            resumed=len(outcomes),
        ):
            for number, cell in enumerate(pending, start=1):
                outcome = self._run_cell(cell)
                store.write_cell(cell.cell_id, outcome.to_dict())
                outcomes[cell.cell_id] = outcome
                cells_counter.inc()
                self.progress.line(
                    f"{cell.cell_id:<10} {outcome.status:<8} "
                    f"({number}/{len(pending)} pending cells"
                    + (f", error: {outcome.error}" if outcome.error else "")
                    + ")"
                )
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
