"""Wafer-lot campaign driver: lock-step phases over a batched fleet.

The scalar campaign walks one :class:`~repro.lab.measurement.VirtualTestbench`
per chip.  This module drives a :class:`~repro.fpga.fleet.FleetChip`
through the same Table 1 discipline in *lock-step groups*: all chips
running the same phase advance chunk by chunk together, with one batched
``evolve`` per chunk and per-chip instrument noise drawn from each chip's
own bench stream — in exactly the order the scalar bench draws it.  In
the exact fidelity every record, trap state and sanitizer digest is
bit-identical to :func:`~repro.lab.campaign.run_table1_campaign` on the
same seed (the fleet acceptance bar).

Scale-out is layered on top:

* **batches** — a lot larger than ``batch_size`` is simulated in
  consecutive chip windows so the struct-of-arrays state stays inside
  a memory budget;
* **shards** (``--shard N``) — contiguous chip ranges dispatched to
  worker processes; every worker re-derives the full per-chip stream
  table from the master seed, so the shard cut never moves a stream,
  and the parent merges per-chip shard results with the existing
  deterministic merge discipline (chip order decides everything).

Schedule: fleet chip ``i`` (0-based) runs the Table 1 sequence of paper
chip ``(i % 5) + 1`` — the five-row schedule tiled across the lot.  For
``n_chips <= 5`` this is exactly the paper's assignment, which is what
makes the 5-chip fleet comparable to the sequential campaign.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, MeasurementError, ScheduleError
from repro.fpga.counter import ReadoutCounter
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import StressMode
from repro.guard import Guard
from repro.lab.campaign import CampaignResult
from repro.lab.faults import FaultInjector, FaultKind, FaultPlan
from repro.lab.clock_generator import ClockGenerator
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.power_supply import DcPowerSupply
from repro.lab.sanitizer import DeterminismSanitizer, NULL_SANITIZER
from repro.lab.schedule import (
    CHIP_SEQUENCES,
    NOMINAL_RAIL,
    PhaseKind,
    TestPhase,
    baseline_phase,
    standard_case,
)
from repro.lab.thermal_chamber import ThermalChamber
from repro.obs import NULL_PROGRESS, get_tracer

#: Memory-budget defaults: flat per-trap state is ~350k doubles per chip,
#: binned cell state a few thousand floats — sized for a ~200 MB ceiling.
DEFAULT_BATCH = {"exact": 64, "binned": 512}

#: Fleet lots larger than this default to the binned fidelity under
#: ``fidelity="auto"``; at or below it they stay exact (bit-identical).
AUTO_EXACT_LIMIT = 8

#: Fault kinds the batched fleet path can inject.  Instrument faults
#: (thermal drift, supply droop, relay chatter, readout faults) and chip
#: dropouts need the scalar bench's per-chip delivered-value hooks and
#: quarantine machinery — use :func:`~repro.lab.campaign.run_table1_campaign`
#: for those.  Trap-state upsets act directly on the batched trap arrays,
#: so they work at fleet scale in both fidelities.
FLEET_SUPPORTED_FAULT_KINDS = frozenset({FaultKind.TRAP_UPSET})


def fleet_chip_no(index: int) -> int:
    """Paper chip number (1-5) simulated at fleet position ``index``."""
    return (index % 5) + 1


class _FleetBenchProxy:
    """Duck-typed bench (chip + RNG state) for the sanitizer hasher."""

    def __init__(self, fleet: FleetChip, index: int, rng: np.random.Generator) -> None:
        self.chip = fleet.view(index)
        self._rng = rng

    @property
    def rng_state(self):
        return self._rng.bit_generator.state


class FleetBench:
    """Lock-step instrument stack over one :class:`FleetChip` batch.

    One shared chamber/supply/counter (chips in a lock-step group always
    share setpoints) plus one bench RNG *per chip* for the delivered-value
    jitter and readout noise — stream-per-stream identical to N scalar
    :class:`~repro.lab.measurement.VirtualTestbench` instances.
    """

    def __init__(
        self,
        fleet: FleetChip,
        rngs,
        tracer=None,
        reads_per_sample: int = 3,
        sampling_overhead: float = 3.0,
        injectors=None,
    ) -> None:
        if len(rngs) != fleet.n_chips:
            raise ConfigurationError("one bench RNG per fleet chip is required")
        if injectors is not None and len(injectors) != fleet.n_chips:
            raise ConfigurationError("one fault injector (or None) per fleet chip")
        self.fleet = fleet
        self.rngs = list(rngs)
        self.injectors = list(injectors) if injectors is not None else None
        self.tracer = tracer if tracer is not None else get_tracer()
        self.chamber = ThermalChamber()
        self.supply = DcPowerSupply()
        self.clock = ClockGenerator()
        self.counter = ReadoutCounter(fref=self.clock.frequency)
        self.reads_per_sample = reads_per_sample
        self.sampling_overhead = sampling_overhead
        self._samples = self.tracer.counter(
            "lab.samples", "RO readout samples taken by testbenches"
        )
        self._records = self.tracer.counter(
            "datalog.records", "measurement records appended to campaign logs"
        )
        self._cases = self.tracer.counter(
            "campaign.cases", "test cases executed across campaigns"
        )

    def bench_proxy(self, index: int) -> _FleetBenchProxy:
        """Sanitizer-compatible view of one chip's bench state."""
        return _FleetBenchProxy(self.fleet, index, self.rngs[index])

    def run_case(
        self,
        chips: slice,
        case_names,
        phases,
        logs,
        sanitizer=NULL_SANITIZER,
    ) -> None:
        """Run one case's phases on a lock-step group.

        ``case_names`` has one entry per chip in the span (baselines are
        per-chip names); ``logs`` is the full per-chip record-list table
        of the batch, indexed by fleet position.
        """
        lo, hi, _ = chips.indices(self.fleet.n_chips)
        with self.tracer.span(
            "case", case=case_names[0], chip_id=self.fleet.chip_ids[lo], fleet=hi - lo
        ):
            for phase in phases:
                starts = [len(logs[index]) for index in range(lo, hi)]
                self.run_phase(phase, chips, case_names, logs)
                if sanitizer.enabled:
                    for offset, index in enumerate(range(lo, hi)):
                        sanitizer.record_phase(
                            self.tracer,
                            self.bench_proxy(index),
                            case_names[offset],
                            phase,
                            logs[index],
                            starts[offset],
                        )
        self._cases.inc(hi - lo)

    def run_phase(self, phase: TestPhase, chips: slice, case_names, logs) -> None:
        """One phase over a lock-step group, chunked at the sampling interval.

        The chunk loop, relay discipline, float-sum tolerance and per-chip
        draw order (chamber jitter, supply jitter, readout burst) mirror
        ``VirtualTestbench.run_phase`` exactly.
        """
        lo, hi, _ = chips.indices(self.fleet.n_chips)
        with self.tracer.span(
            "phase",
            chip_id=self.fleet.chip_ids[lo],
            case=case_names[0],
            phase=phase.label,
            kind=phase.kind.value,
            fleet=hi - lo,
        ) as span:
            sim_start = float(self.fleet.elapsed[lo])
            self.chamber.set_temperature_celsius(phase.temperature_c)
            # Exact sentinel: 0.0 V comes straight from the schedule
            # grammar (case suffix "Z"), never from arithmetic.
            if phase.kind is PhaseKind.RECOVERY and phase.supply_voltage == 0.0:  # repro: noqa[RPR003]
                self.supply.set_voltage(0.0)
                self.supply.disable_output()
            else:
                self.supply.enable_output()
                self.supply.set_voltage(phase.supply_voltage)
            self._sample_group(phase, chips, case_names, logs, 0.0)
            elapsed = 0.0
            tolerance = 1e-9 * phase.duration
            while phase.duration - elapsed > tolerance:
                chunk = min(phase.sampling_interval, phase.duration - elapsed)
                self._inject_due_upsets(lo, hi)
                temperatures = np.array(
                    [self.chamber.actual_temperature(rng) for rng in self.rngs[lo:hi]]
                )
                if self.supply.output_enabled:
                    voltages = np.array(
                        [self.supply.actual_voltage(rng) for rng in self.rngs[lo:hi]]
                    )
                else:
                    voltages = np.zeros(hi - lo)
                if phase.kind is PhaseKind.STRESS:
                    self.fleet.apply_stress(
                        chunk, temperatures, voltages, mode=phase.mode, chips=chips
                    )
                else:
                    self.fleet.apply_recovery(chunk, temperatures, voltages, chips=chips)
                elapsed += chunk
                if phase.duration - elapsed <= tolerance:
                    elapsed = phase.duration
                self._sample_group(phase, chips, case_names, logs, elapsed)
            span.set("sim_advanced", float(self.fleet.elapsed[lo]) - sim_start)

    def _inject_due_upsets(self, lo: int, hi: int) -> None:
        """Land any due trap-state upsets before the next batched evolve.

        Mirrors the scalar ``ResilientBench._apply_chunk`` semantics: the
        bogus occupancy sits in the trap arrays until the next chunk's
        evolve, where the guard contract catches it (raise mode) or clamps
        it back into domain (clamp mode).
        """
        if self.injectors is None:
            return
        for index in range(lo, hi):
            injector = self.injectors[index]
            if injector is None:
                continue
            upset = injector.pop_upset(float(self.fleet.elapsed[index]))
            if upset is not None:
                self.fleet.inject_trap_upset_chip(index, upset.magnitude)

    def _sample_group(
        self, phase: TestPhase, chips: slice, case_names, logs, phase_elapsed: float
    ) -> None:
        """One readout burst per chip of the group, batched physics.

        Per chip: one chamber draw for the burst temperature, then one
        vectorised counter-noise draw — the scalar ``take_sample`` stream.
        """
        lo, hi, _ = chips.indices(self.fleet.n_chips)
        if self.sampling_overhead > 0.0:
            burst_temps = np.array(
                [self.chamber.actual_temperature(rng) for rng in self.rngs[lo:hi]]
            )
            self.fleet.apply_stress(
                self.sampling_overhead,
                burst_temps,
                np.full(hi - lo, NOMINAL_RAIL),
                mode=StressMode.AC,
                chips=chips,
            )
        frequencies = self.fleet.frequencies(chips)
        guard = self.fleet.guard
        temperature_c = self.chamber.setpoint_celsius
        supply_voltage = self.supply.setpoint if self.supply.output_enabled else 0.0
        fref = self.counter.fref
        reads = self.reads_per_sample
        noise = self.counter.noise_counts
        max_count = self.counter.max_count
        elapsed = self.fleet.elapsed
        chip_ids = self.fleet.chip_ids
        # One vectorised precheck instead of a per-chip guard call: the
        # per-chip positive_scalar only changes behaviour on a violation,
        # so a clean group can skip straight to the readout.
        clean = bool(np.isfinite(frequencies).all()) and bool((frequencies > 0.0).all())
        for offset, index in enumerate(range(lo, hi)):
            frequency = float(frequencies[offset])
            if not clean and guard.checking:
                frequency = guard.positive_scalar(
                    "fpga.frequency",
                    frequency,
                    clamp_to=0.0,
                    inputs=lambda: {"chip": chip_ids[index]},
                )
            rng = self.rngs[index]
            if clean and noise > 0:
                # Stream-identical inline form of ReadoutCounter.read_many:
                # the same single noise draw, with the clamp/overflow edge
                # regions handed back to the instrument's exact arithmetic.
                ideal = self.counter.ideal_count(frequency)
                draws = rng.integers(-noise, noise + 1, size=reads)
                if 0 <= ideal - noise and ideal + noise <= max_count:
                    total = ideal * reads + int(draws.sum())
                else:
                    counts = ideal + draws
                    np.maximum(counts, 0, out=counts)
                    self.counter._check_overflow(int(counts.max()))
                    total = int(counts.sum())
                mean_count = total / float(reads)
            else:
                try:
                    counts = self.counter.read_many(frequency, reads, rng=rng)
                except MeasurementError as error:
                    raise type(error)(
                        f"{chip_ids[index]} case {case_names[offset]} "
                        f"phase {phase.label}: {error}"
                    ) from error
                mean_count = float(np.mean(counts))
            if mean_count <= 0:
                raise MeasurementError(
                    f"chip {chip_ids[index]}: readout count "
                    f"{mean_count} implies no oscillation"
                )
            logs[index].append(
                MeasurementRecord(
                    chip_id=chip_ids[index],
                    case=case_names[offset],
                    phase=phase.label,
                    timestamp=float(elapsed[index]),
                    phase_elapsed=phase_elapsed,
                    count=int(round(mean_count)),
                    frequency=2.0 * mean_count * fref,
                    delay=1.0 / (4.0 * mean_count * fref),
                    temperature_c=temperature_c,
                    supply_voltage=supply_voltage,
                )
            )
        self._samples.inc(hi - lo)
        self._records.inc(hi - lo)


# ---------------------------------------------------------------------- #
# campaign assembly
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetChipSummary:
    """Distribution-ready digest of one fleet chip's campaign.

    ``case_end_frequency`` maps each case the chip ran (baseline
    included) to the measured RO frequency at that case's final sample.
    Degradations are percentages relative to the model-fresh frequency,
    positive = slower than fresh.
    """

    chip_id: str
    chip_no: int
    fresh_delay: float
    fresh_frequency: float
    case_end_frequency: dict[str, float]
    stress_degradation_pct: float
    residual_degradation_pct: float
    measurements: int


@dataclass
class FleetCampaignResult(CampaignResult):
    """A :class:`CampaignResult` plus the fleet's population statistics.

    ``chips`` stays empty — 10k live chip objects defeat the point of the
    batched engine; per-chip state is summarised in ``summaries``, and
    ``final_delays`` holds each chip's model path delay at the end of its
    schedule (what ``chip.path_delay()`` reads on the per-chip engine).  In
    ``collect="summary"`` mode the log keeps only each phase's first and
    last record per chip (the distribution pipeline reads summaries, the
    hashes cover the full record stream regardless).
    """

    summaries: list[FleetChipSummary] = field(default_factory=list)
    final_delays: dict[str, float] = field(default_factory=dict)
    fidelity: str = "exact"
    total_measurements: int = 0
    shards: int = 1


def _chip_summary(
    chip_id: str, chip_no: int, fresh_delay: float, records
) -> FleetChipSummary:
    """Fold one chip's full record stream into a summary."""
    fresh_frequency = 1.0 / (2.0 * fresh_delay)
    case_end: dict[str, float] = {}
    for record in records:
        case_end[record.case] = record.frequency
    stress_end = [
        frequency
        for case, frequency in case_end.items()
        if case.startswith("AS") or case.startswith("BASELINE")
    ]
    worst = min(stress_end) if stress_end else fresh_frequency
    final = records[-1].frequency if records else fresh_frequency
    return FleetChipSummary(
        chip_id=chip_id,
        chip_no=chip_no,
        fresh_delay=fresh_delay,
        fresh_frequency=fresh_frequency,
        case_end_frequency=case_end,
        stress_degradation_pct=100.0 * (1.0 - worst / fresh_frequency),
        residual_degradation_pct=100.0 * (1.0 - final / fresh_frequency),
        measurements=len(records),
    )


def _trim_phase_records(records: list, start: int) -> None:
    """Summary-mode compression: keep a phase's first and last record."""
    added = len(records) - start
    if added > 2:
        del records[start + 1 : len(records) - 1]


def _run_fleet_range(
    seed: int | None,
    n_chips: int,
    chip_lo: int,
    chip_hi: int,
    include_baseline: bool,
    fidelity: str,
    batch_size: int,
    bins_per_decade: float,
    sanitize: bool,
    collect: str,
    faults: FaultPlan | None = None,
    guard=None,
    tracer=None,
    progress=NULL_PROGRESS,
):
    """Simulate fleet positions ``[chip_lo, chip_hi)`` of an ``n_chips`` lot.

    Every worker re-derives the complete per-chip stream table from the
    master seed — streams never depend on the shard cut — then runs its
    range in memory-bounded batches.  Returns per-chip results in chip
    order: ``(baseline_records, case_records, summary)`` lists, the fresh
    and final path delays, the sanitizer hashes and the measurement count.
    """
    tracer = tracer if tracer is not None else get_tracer()
    master = np.random.default_rng(seed)
    chip_seeds: dict[int, int] = {}
    bench_streams: dict[int, np.random.Generator] = {}
    for index in range(n_chips):
        chip_stream, bench_stream = master.spawn(2)
        if chip_lo <= index < chip_hi:
            chip_seeds[index] = int(chip_stream.integers(2**31))
            bench_streams[index] = bench_stream
    baseline_records: dict[int, list] = {}
    case_records: dict[int, list] = {}
    summaries: dict[int, FleetChipSummary] = {}
    fresh_delays: dict[int, float] = {}
    final_delays: dict[int, float] = {}
    hashes: dict[str, str] = {}
    total_measurements = 0
    sanitizer = DeterminismSanitizer() if sanitize else NULL_SANITIZER

    for batch_lo in range(chip_lo, chip_hi, batch_size):
        batch = list(range(batch_lo, min(batch_lo + batch_size, chip_hi)))
        # Lock-step groups must be contiguous in fleet order: arrange the
        # batch by schedule row.  Bit-identity only depends on per-chip
        # streams and the final chip-order merge, never on group layout.
        order = sorted(batch, key=lambda index: (fleet_chip_no(index), index))
        fleet = FleetChip(
            [f"chip-{index + 1}" for index in order],
            [chip_seeds[index] for index in order],
            fidelity=fidelity,
            bins_per_decade=bins_per_decade,
            guard=guard,
            tracer=tracer,
        )
        injectors = None
        if faults is not None:
            injectors = [
                FaultInjector(faults, f"chip-{index + 1}", tracer=tracer)
                if faults.for_chip(f"chip-{index + 1}")
                else None
                for index in order
            ]
        bench = FleetBench(
            fleet,
            [bench_streams[index] for index in order],
            tracer=tracer,
            injectors=injectors,
        )
        logs: list[list] = [[] for _ in order]
        baselines: list[list] = [[] for _ in order]
        for position, index in enumerate(order):
            fresh_delays[index] = float(fleet.fresh_path_delays[position])
        if include_baseline:
            starts = [0] * len(order)
            bench.run_case(
                slice(0, len(order)),
                [f"BASELINE-{fleet.chip_ids[position]}" for position in range(len(order))],
                [baseline_phase()],
                baselines,
                sanitizer,
            )
            total_measurements += sum(len(log) for log in baselines)
            if collect == "summary":
                for position, start in enumerate(starts):
                    _trim_phase_records(baselines[position], start)
        position = 0
        while position < len(order):
            chip_no = fleet_chip_no(order[position])
            group_end = position
            while group_end < len(order) and fleet_chip_no(order[group_end]) == chip_no:
                group_end += 1
            group = slice(position, group_end)
            for name in CHIP_SEQUENCES[chip_no]:
                case = standard_case(name, chip_no)
                starts = [len(logs[p]) for p in range(position, group_end)]
                bench.run_case(
                    group, [case.name] * (group_end - position), case.phases, logs, sanitizer
                )
                total_measurements += sum(
                    len(logs[p]) - starts[p - position]
                    for p in range(position, group_end)
                )
                if collect == "summary":
                    for p, start in zip(range(position, group_end), starts):
                        _trim_phase_records(logs[p], start)
            position = group_end
        # Each chip's model delay at the end of its schedule, read under a
        # tracer-less copy of the guard so it adds no counts to the trace.
        finals = fleet.path_delays(guard=Guard(fleet.guard.config))
        for position, index in enumerate(order):
            final_delays[index] = float(finals[position])
            baseline_records[index] = baselines[position]
            case_records[index] = logs[position]
            summaries[index] = _chip_summary(
                fleet.chip_ids[position],
                fleet_chip_no(index),
                fresh_delays[index],
                baselines[position] + logs[position],
            )
        progress.line(
            f"fleet chips {batch[0] + 1}-{batch[-1] + 1}/{n_chips} done ({fidelity})"
        )
        hashes.update(sanitizer.hashes)
        sanitizer = DeterminismSanitizer() if sanitize else NULL_SANITIZER
    ordered = sorted(baseline_records)
    return (
        [baseline_records[index] for index in ordered],
        [case_records[index] for index in ordered],
        [summaries[index] for index in ordered],
        {index: fresh_delays[index] for index in ordered},
        {index: final_delays[index] for index in ordered},
        hashes,
        total_measurements,
    )


def _shard_worker(args) -> tuple:
    """Process-pool entry point: run one contiguous fleet shard."""
    return _run_fleet_range(*args)


def run_fleet_campaign(
    seed: int | None = 0,
    n_chips: int = 5,
    include_baseline: bool = True,
    fidelity: str = "auto",
    batch_size: int | None = None,
    shards: int = 1,
    sanitize: bool = False,
    collect: str = "records",
    bins_per_decade: float = 3.0,
    tracer=None,
    progress=None,
    faults: FaultPlan | None = None,
    retry=None,
    checkpoint=None,
    resume: bool = False,
    guard=None,
) -> FleetCampaignResult:
    """Run Table 1 over an ``n_chips`` lot through the fleet engine.

    ``fidelity="auto"`` picks ``"exact"`` (bit-identical to
    :func:`~repro.lab.campaign.run_table1_campaign`) up to
    :data:`AUTO_EXACT_LIMIT` chips and ``"binned"`` (population-scale)
    above.  ``shards > 1`` fans contiguous chip ranges out to worker
    processes; the merged result is bit-identical to ``shards=1`` for
    any shard count.  ``collect="summary"`` keeps only phase-boundary
    records per chip (memory-bounded 10k-chip runs); summaries and
    hashes always cover the full measurement stream.

    Resilience support is a strict subset of the scalar campaign's, and
    every unsupported option raises :class:`ConfigurationError` instead
    of being silently ignored:

    * ``faults``: only :data:`FLEET_SUPPORTED_FAULT_KINDS` (trap-state
      upsets, which act directly on the batched trap arrays).  Instrument
      faults and chip dropouts need the scalar bench.
    * ``guard``: a :class:`~repro.guard.contracts.GuardConfig` whose
      ``violation_budget`` is ``None`` — fleet chips share one batched
      guard, so per-chip budgets/quarantine cannot be enforced here.
    * ``retry`` / ``checkpoint`` / ``resume``: never supported — the
      fleet path has no per-chip retry loop or snapshot store.
    * ``faults``/``guard`` cannot be combined with ``shards > 1`` (the
      shard cut would need per-worker plan plumbing).
    """
    if n_chips <= 0:
        raise ScheduleError(f"n_chips must be positive, got {n_chips}")
    if shards < 1:
        raise ScheduleError(f"shards must be at least 1, got {shards}")
    if collect not in ("records", "summary"):
        raise ConfigurationError(f"collect must be 'records' or 'summary', got {collect!r}")
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be at least 1, got {batch_size}")
    if retry is not None:
        raise ConfigurationError(
            "run_fleet_campaign does not support retry=: the fleet path has "
            "no per-chip readout retry loop; use run_table1_campaign"
        )
    if checkpoint is not None:
        raise ConfigurationError(
            "run_fleet_campaign does not support checkpoint=: fleet runs "
            "have no snapshot store; use run_table1_campaign"
        )
    if resume:
        raise ConfigurationError(
            "run_fleet_campaign does not support resume=True: fleet runs "
            "have no snapshot store to resume from; use run_table1_campaign"
        )
    if faults is not None:
        unsupported = sorted(
            {event.kind.value for event in faults.events}
            - {kind.value for kind in FLEET_SUPPORTED_FAULT_KINDS}
        )
        if unsupported:
            supported = sorted(kind.value for kind in FLEET_SUPPORTED_FAULT_KINDS)
            raise ConfigurationError(
                f"run_fleet_campaign faults= plan contains unsupported fault "
                f"kinds {unsupported}; the fleet path supports only "
                f"{supported} (use run_table1_campaign for the rest)"
            )
        if shards > 1:
            raise ConfigurationError(
                "run_fleet_campaign does not support faults= with shards > 1"
            )
    if guard is not None:
        if getattr(guard, "violation_budget", None) is not None:
            raise ConfigurationError(
                "run_fleet_campaign does not support guard= with a "
                "violation_budget: fleet chips share one batched guard, so "
                "per-chip budgets cannot be enforced; use run_table1_campaign"
            )
        if shards > 1:
            raise ConfigurationError(
                "run_fleet_campaign does not support guard= with shards > 1"
            )
    if fidelity == "auto":
        fidelity = "exact" if n_chips <= AUTO_EXACT_LIMIT else "binned"
    if fidelity not in ("exact", "binned"):
        raise ConfigurationError(f"unknown fleet fidelity {fidelity!r}")
    if batch_size is None:
        batch_size = DEFAULT_BATCH[fidelity]
    tracer = tracer if tracer is not None else get_tracer()
    progress = progress if progress is not None else NULL_PROGRESS
    shards = min(shards, n_chips)

    with tracer.span(
        "campaign", seed=seed, n_chips=n_chips, fleet=True, fidelity=fidelity,
        shards=shards,
    ) as span:
        if shards == 1:
            fleet_guard = None
            if guard is not None:
                fleet_guard = Guard(guard, tracer=tracer, owner="fleet")
            shard_results = [
                _run_fleet_range(
                    seed, n_chips, 0, n_chips, include_baseline, fidelity,
                    batch_size, bins_per_decade, sanitize, collect,
                    faults=faults, guard=fleet_guard,
                    tracer=tracer, progress=progress,
                )
            ]
        else:
            bounds = np.linspace(0, n_chips, shards + 1).astype(int)
            jobs = [
                (
                    seed, n_chips, int(bounds[shard]), int(bounds[shard + 1]),
                    include_baseline, fidelity, batch_size, bins_per_decade,
                    sanitize, collect,
                )
                for shard in range(shards)
                if bounds[shard] < bounds[shard + 1]
            ]
            with ProcessPoolExecutor(max_workers=shards) as pool:
                shard_results = list(pool.map(_shard_worker, jobs))
            progress.line(f"{len(jobs)} fleet shards merged")

        baseline_logs: list[DataLog] = []
        case_logs: list[DataLog] = []
        summaries: list[FleetChipSummary] = []
        fresh_delays: dict[str, float] = {}
        final_delays: dict[str, float] = {}
        state_hashes: dict[str, str] = {}
        total_measurements = 0
        for (
            baselines, cases, shard_summaries, shard_fresh, shard_final, hashes, count
        ) in shard_results:
            for records in baselines:
                log = DataLog()
                log.extend(records)
                baseline_logs.append(log)
            for records in cases:
                log = DataLog()
                log.extend(records)
                case_logs.append(log)
            summaries.extend(shard_summaries)
            for index, fresh in shard_fresh.items():
                fresh_delays[f"chip-{index + 1}"] = fresh
                final_delays[f"chip-{index + 1}"] = shard_final[index]
            state_hashes.update(hashes)
            total_measurements += count
        log = DataLog.merge(baseline_logs + case_logs)
        sim_total = float(
            sum(
                sum(phase.duration for name in CHIP_SEQUENCES[summary.chip_no]
                    for phase in standard_case(name, summary.chip_no).phases)
                for summary in summaries
            )
        )
        span.set("sim_advanced", sim_total)
    if span.duration > 0.0:
        tracer.gauge(
            "campaign.sim_seconds_per_wall_second",
            "simulated time advanced per wall-clock second",
        ).set(sim_total / span.duration)
        tracer.gauge(
            "campaign.fleet_measurements_per_second",
            "fleet campaign measurement throughput",
        ).set(total_measurements / span.duration)
    return FleetCampaignResult(
        log=log,
        chips={},
        fresh_delays=fresh_delays,
        state_hashes=state_hashes,
        summaries=summaries,
        final_delays=final_delays,
        fidelity=fidelity,
        total_measurements=total_measurements,
        shards=shards,
    )
