"""Resilient batch execution of a sweep grid.

The runner walks the cell grid in index order and executes each cell's
campaign with three layers of protection:

* **process isolation** (default): the cell runs in a forked child and
  reports back over a pipe, so a hard crash (segfault, OOM kill, an
  injected SIGKILL) loses one cell, not the sweep;
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
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dependability.spec import SweepCell, SweepSpec
from repro.units import hours
from repro.dependability.store import SweepStore
from repro.errors import ConfigurationError
from repro.obs import NULL_PROGRESS, NULL_TRACER, Tracer
from repro.units import SECONDS_PER_HOUR

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
        return {
            "cell_id": self.cell_id,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "wall_s": self.wall_s,
            "stats": self.stats,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> CellOutcome:
        """Rehydrate a persisted outcome."""
        return cls(
            cell_id=payload["cell_id"],
            status=payload["status"],
            attempts=payload.get("attempts", 1),
            error=payload.get("error", ""),
            wall_s=payload.get("wall_s", 0.0),
            stats=payload.get("stats", {}),
            digest=payload.get("digest", ""),
        )


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
    import json

    payload = {k: v for k, v in stats.items() if k not in ("wall_s", "sim_per_wall")}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _lifetime_stats(cell: SweepCell) -> dict:
    """Project lifetime under this cell's recovery knobs (Pareto axes)."""
    from repro.bti.traps import TrapParameters
    from repro.core.knobs import OperatingPoint, RecoveryKnobs
    from repro.core.lifetime import project_lifetime
    from repro.core.policies import ProactivePolicy
    from repro.device.technology import TechnologyParameters
    from repro.device.variation import ProcessVariation
    from repro.fpga.chip import FpgaChip

    settings = cell.lifetime
    # Small trap populations keep the projection sub-second per cell while
    # preserving the stress/recovery physics the knobs act on.
    tech = TechnologyParameters(
        nbti_traps=TrapParameters(mean_trap_count=12.0),
        pbti_traps=TrapParameters(mean_trap_count=12.0, impact_mean_volts=2.56e-3),
    )
    chip = FpgaChip(
        f"pareto-{cell.cell_id}",
        n_stages=5,
        tech=tech,
        variation=ProcessVariation(0.0, 0.0, 0.0),
        seed=cell.seed,
    )
    knobs = RecoveryKnobs(
        alpha=cell.alpha,
        sleep_voltage=cell.sleep_voltage,
        sleep_temperature_c=cell.sleep_temperature_c,
    )
    budget = settings.budget_fraction * chip.path_delay()
    report = project_lifetime(
        chip,
        ProactivePolicy(knobs, period=settings.period_hours * SECONDS_PER_HOUR),
        budget=budget,
        horizon_active_time=settings.horizon_hours * SECONDS_PER_HOUR,
        operating=OperatingPoint(temperature_c=110.0),
        max_segment=SECONDS_PER_HOUR,
    )
    survived = report.survived_horizon
    return {
        "lifetime_active_hours": (
            None if survived else report.active_lifetime / SECONDS_PER_HOUR
        ),
        "lifetime_survived_horizon": survived,
        "lifetime_horizon_hours": settings.horizon_hours,
        "throughput_active_fraction": knobs.active_fraction,
    }


def _campaign_stats(cell: SweepCell, retries: int, backoff_s: float) -> dict:
    """Run the cell's campaign and fold it into a deterministic stats dict."""
    from repro.guard.contracts import GuardConfig
    from repro.lab.campaign import run_table1_campaign, table1_horizon
    from repro.lab.faults import FaultPlan
    from repro.lab.fleet import run_fleet_campaign
    from repro.lab.resilience import RetryPolicy

    tracer = Tracer()
    chip_ids = [f"chip-{number}" for number in range(1, cell.n_chips + 1)]
    faults = None
    if cell.has_faults:
        faults = FaultPlan.generate(
            cell.fault_seed,
            chip_ids,
            table1_horizon(cell.n_chips, cell.include_baseline),
            rate_per_day=cell.fault_rate,
            dropout_probability=cell.dropout_prob,
            upset_probability=cell.upset_prob,
        )
    budget = cell.guard_budget if cell.guard_mode == "clamp" and cell.guard_budget else None
    guard = GuardConfig(mode=cell.guard_mode, violation_budget=budget, dump_dir=None)

    if cell.engine == "fleet":
        result = run_fleet_campaign(
            seed=cell.seed,
            n_chips=cell.n_chips,
            include_baseline=cell.include_baseline,
            faults=faults,
            guard=GuardConfig(mode=cell.guard_mode, dump_dir=None),
            tracer=tracer,
        )
        measurements = result.total_measurements
    else:
        result = run_table1_campaign(
            seed=cell.seed,
            n_chips=cell.n_chips,
            include_baseline=cell.include_baseline,
            faults=faults,
            retry=RetryPolicy(max_attempts=retries, backoff_seconds=backoff_s)
            if faults is not None
            else None,
            guard=guard,
            tracer=tracer,
        )
        measurements = len(result.log)

    log_hash = hashlib.sha256()
    for record in result.log:
        log_hash.update(repr(record).encode())
    metrics = tracer.metrics.snapshot()
    guard_violations = {
        name.removeprefix("guard.violations."): value
        for name, value in metrics.items()
        if name.startswith("guard.violations.")
    }
    stats = {
        "engine": cell.engine,
        "config_digest": cell.config_digest(),
        "n_chips": cell.n_chips,
        "measurements": measurements,
        "quarantined": sorted(result.quarantined),
        "quarantined_count": len(result.quarantined),
        "sample_retries": metrics.get("lab.sample_retries", 0.0),
        "quarantine_events": metrics.get("campaign.quarantines", 0.0),
        "guard_violations": guard_violations,
        "guard_violations_total": sum(guard_violations.values()),
        "faults_planned": len(faults) if faults is not None else 0,
        "log_digest": log_hash.hexdigest()[:16],
        "degradation": {
            chip_id: chip.delta_path_delay()
            for chip_id, chip in sorted(result.chips.items())
        },
    }
    if cell.lifetime.enabled:
        stats.update(_lifetime_stats(cell))
    return stats


def _execute_cell(
    cell: SweepCell, retries: int, backoff_s: float, inject: str | None
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
    return _campaign_stats(cell, retries, backoff_s)


def _child_main(connection, cell, retries, backoff_s, inject) -> None:
    """Entry point of the forked per-cell worker."""
    try:
        stats = _execute_cell(cell, retries, backoff_s, inject)
        connection.send(("ok", stats))
    except BaseException as exc:  # report, never propagate: the pipe is the result
        connection.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        connection.close()


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
        ``"process"`` forks a worker per cell (crash/timeout-proof);
        ``"inline"`` runs in-process (faster for tiny demo sweeps, but a
        hard crash takes the runner with it).
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

    # -- attempts ---------------------------------------------------------

    def _attempt_inline(self, cell: SweepCell, inject: str | None) -> tuple[str, object]:
        try:
            stats = _execute_cell(cell, self.spec.retries, self.spec.retry_backoff_s, inject)
        except Exception as exc:
            return "error", f"{type(exc).__name__}: {exc}"
        return "ok", stats

    def _attempt_process(self, cell: SweepCell, inject: str | None) -> tuple[str, object]:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        worker = context.Process(
            target=_child_main,
            args=(
                child_conn,
                cell,
                self.spec.retries,
                self.spec.retry_backoff_s,
                inject,
            ),
            daemon=True,
        )
        worker.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self.timeout_s):
                worker.terminate()
                worker.join(5.0)
                if worker.is_alive():
                    worker.kill()
                    worker.join()
                return "timeout", f"cell exceeded the {self.timeout_s:g} s wall-clock budget"
            try:
                kind, payload = parent_conn.recv()
            except EOFError:
                worker.join()
                return (
                    "error",
                    f"cell worker died without reporting (exit code {worker.exitcode})",
                )
            worker.join()
            return ("ok", payload) if kind == "ok" else ("error", payload)
        finally:
            parent_conn.close()
            if worker.is_alive():
                worker.kill()
                worker.join()

    def _run_cell(self, cell: SweepCell) -> CellOutcome:
        """All attempts at one cell, folding to a single outcome."""
        failures = self.tracer.counter(
            "sweep.cell_failures", "sweep cells that exhausted their attempts"
        )
        timeouts = self.tracer.counter(
            "sweep.cell_timeouts", "sweep cell attempts killed on timeout"
        )
        retries = self.tracer.counter(
            "sweep.cell_retries", "extra attempts after a failed cell attempt"
        )
        started = time.monotonic()
        last_error, last_status = "", "failed"
        for attempt in range(1, self.cell_retries + 1):
            inject = self.inject.get(cell.cell_id)
            if inject == "crash-once" and attempt > 1:
                inject = None
            if attempt > 1:
                retries.inc()
            with self.tracer.span(
                "sweep_cell", cell=cell.cell_id, attempt=attempt, engine=cell.engine
            ):
                if self.isolation == "process":
                    kind, payload = self._attempt_process(cell, inject)
                else:
                    kind, payload = self._attempt_inline(cell, inject)
            if kind == "ok":
                stats = payload
                return CellOutcome(
                    cell_id=cell.cell_id,
                    status="ok",
                    attempts=attempt,
                    wall_s=time.monotonic() - started,
                    stats=stats,
                    digest=_stats_digest(stats),
                )
            last_error = str(payload)
            last_status = "timeout" if kind == "timeout" else "failed"
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
