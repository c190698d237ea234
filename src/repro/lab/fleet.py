"""The campaign engine: the Table 1 discipline over a batched fleet.

Every campaign runs here, from the paper's five chips
(:func:`~repro.lab.campaign.run_table1_campaign`) to a 10k-chip lot
(:func:`run_fleet_campaign`).  :class:`FleetBench` drives a
:class:`~repro.fpga.fleet.FleetChip` in *lock-step groups*: the chips of
a case advance chunk by chunk together, one batched ``evolve`` per
chunk, while everything that belongs to one chip stays per chip — its
bench stream (instrument jitter and readout noise, drawn in the order it
would draw them alone), its fault injector, its readout retries (on its
one-chip span), its :class:`~repro.guard.Guard` (consulted only when a
span's vectorised verdict fails), its quarantine and its checkpoint.  So
a chip's records, trap state and digests depend only on its seed and its
faults, never on the chips it ran beside.

Scale-out is layered on top: a lot larger than ``batch_size`` runs in
consecutive memory-bounded chip windows, and ``shards`` forks one child
per contiguous chip range through
:func:`~repro.lab.resilience.run_isolated`.  Every shard re-derives the
full per-chip stream table from the master seed, so the shard cut never
moves a stream, and the parent merges per-chip results (and, in a traced
run, each shard's trace) in chip order.  A shard that dies without
reporting is a :class:`~repro.errors.SimulationError` naming its chips.

Schedule: fleet chip ``i`` (0-based) runs the Table 1 sequence of paper
chip ``(i % 5) + 1`` — the five-row schedule tiled across the lot.  For
``n_chips <= 5`` this is exactly the paper's assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.bti.traps import chip_runs
from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    CounterOverflowError,
    FleetDropoutError,
    InstrumentError,
    MeasurementError,
    RetryExhaustedError,
    ScheduleError,
    SimulationError,
)
from repro.fpga.counter import ReadoutCounter
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import StressMode, checked_frequency, read_burst
from repro.guard import Guard
from repro.lab.clock_generator import ClockGenerator
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.faults import FaultInjector, FaultKind, FaultPlan
from repro.lab.power_supply import DcPowerSupply
from repro.lab.resilience import (
    CheckpointStore, ChipProgress, QuarantineReport, RetryPolicy, run_isolated,
)
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

#: Counts further than the last good sample that flag a corrupt readout.
PLAUSIBILITY_COUNTS = 64


def fleet_chip_no(index: int) -> int:
    """Paper chip number (1-5) simulated at fleet position ``index``."""
    return (index % 5) + 1


class FleetBench:
    """Lock-step instrument stack over one :class:`FleetChip` batch.

    One chamber, supply and counter (chips in a lock-step group always
    share setpoints — defaults reproduce the paper's setup); per fleet
    chip a bench generator in ``rngs`` (``None`` where the bench never
    drives), an optional :class:`~repro.lab.faults.FaultInjector` in
    ``injectors``, and its retry state.  ``retry`` re-reads a readout
    that failed with a transient instrument or measurement error
    (``None`` lets the failure raise); ``reads_per_sample`` counter reads
    are averaged per sample, and each readout burst runs the RO for
    ``sampling_overhead`` seconds.  ``tracer`` gets the case, phase and
    measurement spans and the sample counters.

    A chip that drops out (its injector's dropout, exhausted retries or
    an exhausted guard budget) is recorded in :attr:`dropped` and leaves
    every later step; any other error propagates.
    """

    def __init__(
        self,
        fleet: FleetChip,
        rngs,
        tracer=None,
        reads_per_sample: int = 3,
        sampling_overhead: float = 3.0,
        injectors=None,
        retry: RetryPolicy | None = None,
        chamber: ThermalChamber | None = None,
        supply: DcPowerSupply | None = None,
        clock: ClockGenerator | None = None,
    ) -> None:
        if len(rngs) != fleet.n_chips:
            raise ConfigurationError("one bench RNG per fleet chip is required")
        if injectors is not None and len(injectors) != fleet.n_chips:
            raise ConfigurationError("one fault injector (or None) per fleet chip")
        if reads_per_sample <= 0:
            raise ConfigurationError("reads_per_sample must be positive")
        if sampling_overhead < 0.0:
            raise ConfigurationError("sampling_overhead must be non-negative")
        self.fleet = fleet
        self.rngs = list(rngs)
        self.injectors = list(injectors) if injectors is not None else [None] * fleet.n_chips
        self.retry = retry
        self.tracer = tracer if tracer is not None else get_tracer()
        self.chamber = chamber or ThermalChamber()
        self.supply = supply or DcPowerSupply()
        self.clock = clock or ClockGenerator()
        self.counter = ReadoutCounter(fref=self.clock.frequency)
        self.reads_per_sample = reads_per_sample
        self.sampling_overhead = sampling_overhead
        #: Chips that left the bench: fleet index -> the error.
        self.dropped: dict[int, Exception] = {}
        #: Per chip, readout bursts retried so far.
        self.retries_taken = [0] * fleet.n_chips
        self._last_good_count: list[int | None] = [None] * fleet.n_chips
        counter = self.tracer.counter
        self._samples = counter("lab.samples", "RO readout samples taken by testbenches")
        self._records = counter(
            "datalog.records", "measurement records appended to campaign logs"
        )
        self._evaluations = counter(
            "ro.evaluations", "counter readouts taken from ring oscillators"
        )
        self._cases = counter("campaign.cases", "test cases executed across campaigns")
        if retry is not None:
            self._retries = counter(
                "lab.sample_retries", "readout bursts retried after a transient fault"
            )

    # ------------------------------------------------------------------ #
    # per-chip hooks: delivered values and the readout fault path
    # ------------------------------------------------------------------ #

    def _delivered_temperature(self, index: int) -> float:
        """Chamber temperature (kelvin) chip ``index`` sees right now."""
        injector = self.injectors[index]
        if injector is None:
            return self.chamber.actual_temperature(self.rngs[index])
        now = float(self.fleet.elapsed[index])
        injector.check_dropout(now)
        return self.chamber.actual_temperature(self.rngs[index]) + injector.temperature_offset(now)

    def _delivered_voltage(self, index: int) -> float:
        """Supply voltage (volts) chip ``index`` sees right now."""
        injector = self.injectors[index]
        if injector is None:
            return self.supply.actual_voltage(self.rngs[index])
        now = float(self.fleet.elapsed[index])
        injector.check_dropout(now)
        voltage = self.supply.actual_voltage(self.rngs[index])
        if voltage > 0.0:
            # Droop only sags a driven positive rail; an open relay (0 V)
            # or the negative recovery rail is regulated differently.
            droop = injector.voltage_droop(now)
            if droop > 0.0:
                voltage = max(voltage - droop, 0.05)
        return voltage

    def _land_upset(self, index: int) -> None:
        """Land a due trap-state upset before the chip's next evolve, where
        the guard contract catches it (raise) or clamps it (clamp)."""
        injector = self.injectors[index]
        if injector is not None:
            upset = injector.pop_upset(float(self.fleet.elapsed[index]))
            if upset is not None:
                self.fleet.inject_trap_upset_chip(index, upset.magnitude)

    def _readout_fault(self, index: int):
        """The one-shot fault, if any, that hits chip ``index``'s next burst."""
        injector = self.injectors[index]
        if injector is None:
            return None
        now = float(self.fleet.elapsed[index])
        injector.check_dropout(now)
        return injector.pop_readout_fault(now)

    def _deliver(self, chips: list[int], phase_bias: bool) -> tuple[list[int], list, list]:
        """Each chip's delivered temperature (and, for the phase bias, its
        voltage, with any due upset landed); chips that drop out leave."""
        alive, temperatures, voltages = [], [], []
        for index in chips:
            try:
                temperature = self._delivered_temperature(index)
                voltage = self._delivered_voltage(index) if phase_bias else NOMINAL_RAIL
                if phase_bias:
                    self._land_upset(index)
            except ChipDropoutError as error:
                self.dropped[index] = error
                continue
            alive.append(index)
            temperatures.append(temperature)
            voltages.append(voltage)
        return alive, temperatures, voltages

    # ------------------------------------------------------------------ #
    # lock-step execution
    # ------------------------------------------------------------------ #

    def run_case(self, chips, case_names, phases, logs, sanitizer=NULL_SANITIZER) -> list[int]:
        """Run one case's phases on a lock-step group; returns the chips that finished.

        ``chips`` are sorted fleet indices, ``case_names`` one name per
        chip (baselines are per-chip names), and ``logs`` maps a fleet
        index to its record list.  The case span carries the group's
        ``samples`` and ``trap_updates`` counter deltas, from which
        :meth:`~repro.obs.query.TraceModel.throughput_table` derives the
        per-case throughput.
        """
        names = dict(zip(chips, case_names))
        first = chips[0]
        count = self.tracer.metrics.value
        samples, updates = count("lab.samples"), count("bti.trap_updates")
        with self.tracer.span(
            "case", case=case_names[0], chip_id=self.fleet.chip_ids[first], fleet=len(chips)
        ) as span:
            sim_start = float(self.fleet.elapsed[first])
            alive = list(chips)
            for phase in phases:
                starts = {index: len(logs[index]) for index in alive}
                alive = self.run_phase(phase, alive, [names[index] for index in alive], logs)
                for index in alive if sanitizer.enabled else ():
                    sanitizer.record_phase(
                        self.tracer, self.fleet.view(index), self.rngs[index].bit_generator.state,
                        names[index], phase, logs[index], starts[index],
                    )
                if not alive:
                    break
            span.set("sim_advanced", float(self.fleet.elapsed[first]) - sim_start)
            span.set("samples", count("lab.samples") - samples)
            span.set("trap_updates", count("bti.trap_updates") - updates)
        self._cases.inc(len(alive))
        return alive

    def run_phase(self, phase: TestPhase, chips, case_names, logs) -> list[int]:
        """One phase over a lock-step group, chunked at the sampling interval.

        A sample is taken at the start of the phase (time 0 — the paper's
        recovery figures anchor there) and after every sampling interval.
        Returns the chips still on the bench.
        """
        names = dict(zip(chips, case_names))
        first = chips[0]
        with self.tracer.span(
            "phase",
            chip_id=self.fleet.chip_ids[first],
            case=names[first],
            phase=phase.label,
            kind=phase.kind.value,
            temperature_c=phase.temperature_c,
            supply_voltage=phase.supply_voltage,
            fleet=len(chips),
        ) as span:
            sim_start = float(self.fleet.elapsed[first])
            self.chamber.set_temperature_celsius(phase.temperature_c)
            # Exact sentinel: 0.0 V comes straight from the schedule
            # grammar (case suffix "Z"), never from arithmetic.
            if phase.kind is PhaseKind.RECOVERY and phase.supply_voltage == 0.0:  # repro: noqa[RPR003]
                # Passive recovery power-gates the rail: the relay opens and
                # the chip sees exactly 0 V, not a noisy millivolt setpoint.
                self.supply.set_voltage(0.0)
                self.supply.disable_output()
            else:
                self.supply.enable_output()
                self.supply.set_voltage(phase.supply_voltage)
            alive = self._sample(phase, list(chips), names, logs, 0.0)
            elapsed = 0.0
            # Summing float chunks can stall a hair short of the duration
            # (e.g. ten 0.1 s intervals sum to 0.9999999999999999); without
            # a tolerance the loop would schedule a spurious near-zero
            # final chunk and log a duplicate sample.
            tolerance = 1e-9 * phase.duration
            while alive and phase.duration - elapsed > tolerance:
                chunk = min(phase.sampling_interval, phase.duration - elapsed)
                alive = self._chunk(phase, chunk, alive)
                elapsed += chunk
                if phase.duration - elapsed <= tolerance:
                    elapsed = phase.duration
                if alive:
                    alive = self._sample(phase, alive, names, logs, elapsed)
            span.set("sim_advanced", float(self.fleet.elapsed[first]) - sim_start)
        return alive

    def _chunk(self, phase: TestPhase, seconds: float, chips: list[int]) -> list[int]:
        """Advance the chips ``seconds`` under the phase bias at their delivered values."""
        alive, temperatures, voltages = self._deliver(chips, phase_bias=True)
        stress = phase.kind is PhaseKind.STRESS
        return self._evolve(stress, phase.mode, seconds, alive, temperatures, voltages)

    def _evolve(self, stress: bool, mode, seconds, chips, temperatures, voltages) -> list[int]:
        """One batched bias step over the chips' contiguous runs."""
        temperatures = np.asarray(temperatures, dtype=float)
        voltages = np.asarray(voltages, dtype=float)
        dropped: dict = {}
        for lo, hi, offset in chip_runs(chips):
            rows, span = slice(offset, offset + hi - lo), slice(lo, hi)
            try:
                if stress:
                    self.fleet.apply_stress(
                        seconds, temperatures[rows], voltages[rows], mode=mode, chips=span
                    )
                else:
                    self.fleet.apply_recovery(seconds, temperatures[rows], voltages[rows], span)
            except FleetDropoutError as error:
                dropped.update(error.errors)
        self.dropped.update(dropped)
        return [index for index in chips if index not in dropped] if dropped else chips

    def _sample(self, phase: TestPhase, chips, names, logs, phase_elapsed: float) -> list[int]:
        """One readout burst per chip; a failed burst is retried chip by chip."""
        failures = self.take_samples(phase.label, chips, names, logs, phase_elapsed)
        for index, error in failures.items():
            attempt = 1
            while error is not None:
                if self.retry is None:
                    raise error
                if attempt >= self.retry.max_attempts:
                    exhausted = RetryExhaustedError(
                        f"{self.fleet.chip_ids[index]} case {names[index]}: sample "
                        f"failed {attempt} times, last error: {error}"
                    )
                    exhausted.__cause__ = error
                    self.dropped[index] = exhausted
                    break
                self.retries_taken[index] += 1
                self._retries.inc()
                wait = self.retry.backoff(attempt)
                with self.tracer.span(
                    "sample_retry",
                    chip_id=self.fleet.chip_ids[index],
                    case=names[index],
                    phase=phase.label,
                    attempt=attempt,
                    backoff_s=wait,
                ) as span:
                    # The operator re-arms the readout while the phase bias
                    # stays applied: the chip keeps aging through the wait.
                    if not self._chunk(phase, wait, [index]):
                        break
                    span.set("sim_advanced", wait)
                retried = self.take_samples(phase.label, [index], names, logs, phase_elapsed)
                error = retried.get(index)
                attempt += 1
        return [index for index in chips if index not in self.dropped]

    def take_samples(self, label: str, chips, names, logs, phase_elapsed: float) -> dict:
        """One readout burst per chip of phase ``label``; returns the retryable failures.

        Each chip's record is appended to ``logs[index]`` under
        ``names[index]``; a burst that failed with a transient instrument
        or measurement error comes back in the ``index -> error`` map,
        and a chip that dropped out lands in :attr:`dropped`.  The burst
        applies ``sampling_overhead`` seconds of AC activity at nominal
        rail and chamber temperature — negligible aging, but modelled
        because hardware cannot measure for free.
        """
        failures: dict = {}
        if not chips:
            return failures
        with self.tracer.span(
            "measurement",
            chip_id=self.fleet.chip_ids[chips[0]],
            case=names[chips[0]],
            phase=label,
            fleet=len(chips),
        ) as span:
            alive = chips
            if self.sampling_overhead > 0.0:
                alive, temperatures, rails = self._deliver(chips, phase_bias=False)
                alive = self._evolve(
                    True, StressMode.AC, self.sampling_overhead, alive, temperatures, rails
                )
            readers, events = [], []
            for index in alive:
                try:
                    event = self._readout_fault(index)
                except ChipDropoutError as error:
                    self.dropped[index] = error
                    continue
                if event is None or event.kind is FaultKind.STUCK_BIT:
                    readers.append(index)
                    events.append(event)
                elif event.kind is FaultKind.DROPPED_READOUT:
                    dropped = MeasurementError("counter dropped the readout burst")
                    failures[index] = self._located(index, names, label, dropped)
                else:
                    failures[index] = InstrumentError("supply relay chatter during the readout burst")
            self._evaluations.inc(self.reads_per_sample * len(readers))
            frequencies = self._frequencies(readers)
            temperature_c = self.chamber.setpoint_celsius
            # A rail behind an open relay delivers 0 V no matter what the
            # setpoint register holds.
            supply_voltage = self.supply.setpoint if self.supply.output_enabled else 0.0
            for index, event in zip(readers, events):
                if index not in frequencies:
                    continue
                elapsed = float(self.fleet.elapsed[index])
                try:
                    count, frequency, delay = self._read(
                        index, frequencies[index], event, elapsed
                    )
                except MeasurementError as error:
                    failures[index] = self._located(index, names, label, error)
                    continue
                except ChipDropoutError as error:
                    self.dropped[index] = error
                    continue
                self._samples.inc()
                logs[index].append(
                    MeasurementRecord(
                        chip_id=self.fleet.chip_ids[index],
                        case=names[index],
                        phase=label,
                        timestamp=elapsed,
                        phase_elapsed=phase_elapsed,
                        count=count,
                        frequency=frequency,
                        delay=delay,
                        temperature_c=temperature_c,
                        supply_voltage=supply_voltage,
                    )
                )
                self._records.inc()
            span.set("sim_advanced", self.sampling_overhead)
        return failures

    def _located(self, index: int, names, label: str, error: MeasurementError):
        """``error`` restated with the chip, case and phase it happened in."""
        located = type(error)(
            f"{self.fleet.chip_ids[index]} case {names[index]} phase {label}: {error}"
        )
        located.__cause__ = error
        return located

    def _frequencies(self, chips: list[int]) -> dict[int, float]:
        """Noise-free RO frequency of each chip that did not drop out of the read."""
        frequencies: dict[int, float] = {}
        for lo, hi, _ in chip_runs(chips):
            try:
                values = self.fleet.frequencies(slice(lo, hi))
            except FleetDropoutError as error:
                self.dropped.update(error.errors)
                values = error.values
            for index, value in zip(range(lo, hi), values.tolist()):
                if index not in self.dropped:
                    frequencies[index] = value
        return frequencies

    def _read(
        self, index: int, frequency: float, event, elapsed: float
    ) -> tuple[int, float, float]:
        """``(count, frequency, delay)`` of one averaged readout burst.

        The burst is :func:`~repro.fpga.ring_oscillator.read_burst` at the
        checked frequency.  A ``STUCK_BIT`` event corrupts the real count:
        out of the counter's range or implausibly far from the last good
        count it is detected, within the band it goes unnoticed — the
        silent data error a real stuck LSB produces.
        """
        chip_id = self.fleet.chip_ids[index]
        frequency = checked_frequency(self.fleet.guards[index], frequency, chip_id, elapsed)
        mean_count = read_burst(
            self.counter, frequency, self.reads_per_sample, self.rngs[index], chip_id
        )
        if event is None:
            count = self._last_good_count[index] = int(round(mean_count))
            return count, self.counter.frequency(mean_count), self.counter.delay(mean_count)
        bit = int(event.magnitude)
        corrupted = int(round(mean_count)) | (1 << bit)
        if corrupted > self.counter.max_count:
            raise CounterOverflowError(
                f"count {corrupted} exceeds the counter range (stuck bit {bit})"
            )
        last = self._last_good_count[index]
        if last is not None and abs(corrupted - last) > PLAUSIBILITY_COUNTS:
            raise MeasurementError(
                f"implausible count jump {last} -> {corrupted} (stuck counter bit {bit}?)"
            )
        return corrupted, self.counter.frequency(corrupted), self.counter.delay(corrupted)


# ---------------------------------------------------------------------- #
# campaign results
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetChipSummary:
    """Distribution-ready digest of one chip's campaign.

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
class CampaignResult:
    """Everything a campaign produced — one shape for every path.

    ``log`` holds every measurement (in ``collect="summary"`` mode only
    each phase's first and last record per chip); ``chips`` the final
    :class:`~repro.fpga.chip.FpgaChip` views when the lot ran as one
    in-process batch (a larger lot keeps no chip state alive);
    ``fresh_delays`` and ``final_delays`` each chip's model CUT delay
    fresh and at the end of its schedule; ``summaries`` a per-chip
    digest covering the full record stream.  ``quarantined`` flags chips
    pulled from the bench mid-campaign (dropout, retries or guard budget
    exhausted) — their measurements up to the failure are kept, and the
    campaign completes on the survivors.  ``state_hashes`` is populated
    only under ``sanitize=True``: one digest per ``chip/seq`` phase end.
    """

    log: DataLog
    chips: dict = field(default_factory=dict)
    fresh_delays: dict[str, float] = field(default_factory=dict)
    quarantined: dict[str, QuarantineReport] = field(default_factory=dict)
    state_hashes: dict[str, str] = field(default_factory=dict)
    summaries: list[FleetChipSummary] = field(default_factory=list)
    final_delays: dict[str, float] = field(default_factory=dict)
    fidelity: str = "exact"
    total_measurements: int = 0
    shards: int = 1

    @property
    def complete(self) -> bool:
        """True when every chip finished its full schedule."""
        return not self.quarantined

    def _case_records(self, case: str, chip_no: int | None) -> DataLog:
        """Records of one case, disambiguated to a single chip.

        Several Table-1 chips run the same stress case name; a series must
        come from exactly one chip or the time axis interleaves.
        """
        records = self.log.filter(case=case)
        if chip_no is not None:
            records = records.filter(chip_id=f"chip-{chip_no}")
        if len(records) == 0:
            raise ScheduleError(f"no records for case {case!r} (chip_no={chip_no})")
        chip_ids = {record.chip_id for record in records}
        if len(chip_ids) > 1:
            raise ScheduleError(
                f"case {case!r} was run on chips {sorted(chip_ids)}; pass chip_no "
                "to select one"
            )
        return records

    def delay_change_series(
        self, case: str, chip_no: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(phase_elapsed, dTd) for a case, relative to the chip's fresh delay.

        For recovery cases the first sample (phase_elapsed 0) is the end of
        the preceding stress, so the series starts at the stressed level
        and falls — the paper's Fig. 8 view.
        """
        records = self._case_records(case, chip_no)
        times, delays = records.series("delay")
        chip_id = records.first().chip_id
        return times, delays - self.fresh_delays[chip_id]

    def degradation_percent_series(
        self, case: str, chip_no: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(phase_elapsed, frequency degradation %) — the paper's Fig. 4/5 view."""
        records = self._case_records(case, chip_no)
        times, freqs = records.series("frequency")
        chip_id = records.first().chip_id
        fresh_frequency = 1.0 / (2.0 * self.fresh_delays[chip_id])
        return times, 100.0 * (1.0 - freqs / fresh_frequency)


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


def _as_log(records) -> DataLog:
    log = DataLog()
    log.extend(records)
    return log


# ---------------------------------------------------------------------- #
# campaign assembly
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Options:
    """What a campaign runs with, shared by every batch and shard."""

    seed: int | None
    n_chips: int
    include_baseline: bool
    fidelity: str
    batch_size: int
    bins_per_decade: float
    sanitize: bool
    collect: str
    faults: FaultPlan | None
    retry: RetryPolicy | None
    guard: object
    store: CheckpointStore | None
    #: Per-case progress lines (the Table-1 entry point) or per-batch ones.
    case_progress: bool


@dataclass
class _Chip:
    """One chip's campaign, as its batch hands it back."""

    baseline: list
    cases: list
    #: Records taken, before summary-mode trimming.
    measurements: int
    summary: FleetChipSummary
    final_delay: float
    elapsed: float
    quarantine: QuarantineReport | None
    view: object = None


class _Progress:
    """Running campaign totals behind the per-case progress lines."""

    def __init__(self, reporter, options: _Options) -> None:
        # The Table-1 entry point reports every case, a lot every batch.
        self.reporter = reporter if options.case_progress else NULL_PROGRESS
        self.batches = NULL_PROGRESS if options.case_progress else reporter
        self.cases_total = sum(
            len(CHIP_SEQUENCES[fleet_chip_no(index)]) for index in range(options.n_chips)
        )
        self.chips_total = options.n_chips
        self.cases_done = self.chips_done = self.quarantined = 0
        #: Retries of finished batches, and the running batch's bench.
        self.retries_done = 0
        self.bench: FleetBench | None = None

    def case_done(self, chip_id: str, case: str) -> None:
        """Report one finished Table-1 case."""
        self.cases_done += 1
        retries = self.retries_done + sum(self.bench.retries_taken)
        self.reporter.case_done(
            chip_id, case, self.cases_done, self.cases_total, self.chips_done,
            self.chips_total, retries=retries, quarantined=self.quarantined,
        )

    def chip_finished(self, quarantine: QuarantineReport | None) -> None:
        """Count one chip off the bench, with its quarantine line."""
        self.chips_done += 1
        if quarantine is not None:
            self.quarantined += 1
            self.reporter.line(
                f"{quarantine.chip_id:<8} QUARANTINED during {quarantine.case}: "
                f"{quarantine.reason}"
            )


def _run_batch(options: _Options, batch, streams, tracer, progress, keep_chips):
    """Simulate one memory-bounded batch of fleet positions.

    Returns ``(index -> _Chip, sanitizer hashes)``.
    """
    # Lock-step groups must be contiguous in fleet order: arrange the
    # batch by schedule row.  Results only depend on per-chip streams and
    # the final chip-order merge, never on group layout.
    order = sorted(batch, key=lambda index: (fleet_chip_no(index), index))
    chip_ids = [f"chip-{index + 1}" for index in order]
    guards = None
    if options.guard is not None:
        guards = [Guard(options.guard, tracer=tracer, owner=chip_id) for chip_id in chip_ids]
    fleet = FleetChip(
        chip_ids, [streams[index][0] for index in order], fidelity=options.fidelity,
        bins_per_decade=options.bins_per_decade, guard=guards, tracer=tracer,
    )
    rngs = [streams[index][1] for index in order]
    positions = range(len(order))
    baselines = {position: [] for position in positions}
    logs = {position: [] for position in positions}
    completed = {position: [] for position in positions}
    taken = dict.fromkeys(positions, 0)
    quarantined: dict[int, QuarantineReport] = {}
    last_counts: dict[int, int | None] = {}
    store = options.store
    for position in positions if store is not None else ():
        # Resume: the chip was rebuilt from its seed; its trap state and
        # bench stream are rewound, so only its unfinished tail runs.
        restored = store.load_chip(fleet.view(position), rngs[position])
        if restored is not None:
            baseline, cases, saved = restored
            baselines[position], logs[position] = list(baseline), list(cases)
            completed[position], taken[position] = saved.completed, saved.measurements
            last_counts[position] = saved.last_good_count
            if guards is not None:
                guards[position].violations = saved.guard_violations
            if saved.quarantine is not None:
                quarantined[position] = saved.quarantine
    injectors = None
    if options.faults is not None:
        injectors = [
            FaultInjector(options.faults, chip_id, float(fleet.elapsed[position]), tracer)
            for position, chip_id in enumerate(chip_ids)
        ]
    bench = FleetBench(fleet, rngs, tracer=tracer, injectors=injectors, retry=options.retry)
    for position, count in last_counts.items():
        bench._last_good_count[position] = count
    sanitizer = DeterminismSanitizer() if options.sanitize else NULL_SANITIZER
    quarantines = tracer.counter("campaign.quarantines", "chips pulled from the bench mid-campaign")
    offset = 1 if options.include_baseline else 0
    steps = [offset + len(CHIP_SEQUENCES[fleet_chip_no(index)]) for index in order]
    progress.bench = bench
    for position in positions:
        if position in quarantined or len(completed[position]) == steps[position]:
            progress.chip_finished(quarantined.get(position))

    def run_step(group: list[int], step: int, names: dict[int, str], phases, target) -> None:
        for position in group:
            done = completed[position]
            if step < len(done) and done[step] != names[position]:
                raise CheckpointError(
                    f"checkpoint for {chip_ids[position]} completed {done[step]!r} "
                    f"at position {step}, but the schedule says {names[position]!r}"
                )
        runners = [p for p in group if p not in quarantined and step >= len(completed[p])]
        if not runners:
            return
        starts = {position: len(target[position]) for position in runners}
        bench.run_case(runners, [names[p] for p in runners], phases, target, sanitizer)
        for position in runners:
            taken[position] += len(target[position]) - starts[position]
            if options.collect == "summary" and len(target[position]) - starts[position] > 2:
                # Keep the phase's first and last record.
                del target[position][starts[position] + 1 : -1]
            error = bench.dropped.pop(position, None)
            if error is not None:
                # Graceful degradation: keep the records taken so far,
                # flag the chip, and let the rest of the campaign finish.
                quarantined[position] = QuarantineReport(
                    chip_id=chip_ids[position],
                    case=names[position],
                    sim_time=float(fleet.elapsed[position]),
                    reason=str(error),
                )
                quarantines.inc()
            else:
                completed[position].append(names[position])
            if store is not None:
                store.save_chip(
                    fleet.view(position), rngs[position], _as_log(baselines[position]),
                    _as_log(logs[position]),
                    ChipProgress(
                        completed[position], quarantined.get(position),
                        bench._last_good_count[position], taken[position],
                        guards[position].violations if guards is not None else 0,
                    ),
                )
            if position in quarantined:
                progress.chip_finished(quarantined[position])
                continue
            if target is baselines:
                progress.reporter.line(f"{chip_ids[position]:<8} baseline burn-in done")
            else:
                progress.case_done(chip_ids[position], names[position])
            if len(completed[position]) == steps[position]:
                progress.chip_finished(None)

    if options.include_baseline:
        every = list(positions)
        names = {position: f"BASELINE-{chip_ids[position]}" for position in every}
        run_step(every, 0, names, [baseline_phase()], baselines)
    for row in sorted({fleet_chip_no(index) for index in order}):
        group = [position for position in positions if fleet_chip_no(order[position]) == row]
        for step, name in enumerate(CHIP_SEQUENCES[row]):
            case = standard_case(name, row)
            run_step(group, offset + step, dict.fromkeys(group, case.name), case.phases, logs)
    progress.retries_done += sum(bench.retries_taken)
    # Each chip's model delay at the end of its schedule, read under a
    # tracer-less, budget-less guard: the read adds no counts to the
    # trace, and a quarantined chip's leftover state cannot drop it twice.
    finals = fleet.path_delays(guard=Guard(replace(fleet.guard.config, violation_budget=None)))
    chips = {
        index: _Chip(
            baselines[position],
            logs[position],
            taken[position],
            _chip_summary(
                chip_ids[position], fleet_chip_no(index),
                float(fleet.fresh_path_delays[position]),
                baselines[position] + logs[position],
            ),
            float(finals[position]),
            float(fleet.elapsed[position]),
            quarantined.get(position),
            fleet.view(position) if keep_chips else None,
        )
        for position, index in enumerate(order)
    }
    return chips, sanitizer.hashes


def _run_fleet_range(options: _Options, chip_lo: int, chip_hi: int, tracer, progress,
                     keep_chips: bool) -> tuple[dict, dict]:
    """Simulate fleet positions ``[chip_lo, chip_hi)`` of the lot.

    Every range re-derives the complete per-chip stream table from the
    master seed — streams never depend on the shard cut — then runs in
    memory-bounded batches.  Returns ``(index -> _Chip, sanitizer
    hashes)``; with ``keep_chips`` a range that fits one batch hands its
    chips' views out.
    """
    keep_chips = keep_chips and chip_hi - chip_lo <= options.batch_size
    master = np.random.default_rng(options.seed)
    streams: dict[int, tuple[int, np.random.Generator]] = {}
    for index in range(options.n_chips):
        chip_stream, bench_stream = master.spawn(2)
        if chip_lo <= index < chip_hi:
            streams[index] = (int(chip_stream.integers(2**31)), bench_stream)
    chips: dict = {}
    hashes: dict = {}
    for batch_lo in range(chip_lo, chip_hi, options.batch_size):
        batch = range(batch_lo, min(batch_lo + options.batch_size, chip_hi))
        batch_chips, batch_hashes = _run_batch(
            options, batch, streams, tracer, progress, keep_chips
        )
        chips.update(batch_chips)
        hashes.update(batch_hashes)
        progress.batches.line(
            f"fleet chips {batch[0] + 1}-{batch[-1] + 1}/{options.n_chips} done "
            f"({options.fidelity})"
        )
    return chips, hashes


def _run_campaign(
    seed, n_chips, include_baseline, fidelity, batch_size, shards, sanitize, collect,
    bins_per_decade, tracer, progress, faults, retry, checkpoint, resume, guard,
    case_progress,
) -> CampaignResult:
    """The one campaign driver behind both public entry points."""
    if n_chips <= 0:
        raise ScheduleError(f"n_chips must be positive, got {n_chips}")
    if shards < 1:
        raise ScheduleError(f"shards must be at least 1, got {shards}")
    if collect not in ("records", "summary"):
        raise ConfigurationError(f"collect must be 'records' or 'summary', got {collect!r}")
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be at least 1, got {batch_size}")
    if fidelity == "auto":
        fidelity = "exact" if n_chips <= AUTO_EXACT_LIMIT else "binned"
    if fidelity not in ("exact", "binned"):
        raise ConfigurationError(f"unknown fleet fidelity {fidelity!r}")
    shards = min(shards, n_chips)
    store = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        if store.read_manifest() is not None and not resume:
            raise CheckpointError(
                f"{checkpoint} already holds a campaign checkpoint; pass "
                "resume=True (--resume) to continue it or use a fresh directory"
            )
        store.init_manifest(
            seed=seed, n_chips=n_chips, include_baseline=include_baseline, fidelity=fidelity,
            bins_per_decade=bins_per_decade, collect=collect,
        )
    elif resume:
        raise ConfigurationError("resume requires a checkpoint directory")
    tracer = tracer if tracer is not None else get_tracer()
    options = _Options(
        seed, n_chips, include_baseline, fidelity, batch_size or DEFAULT_BATCH[fidelity],
        bins_per_decade, sanitize, collect, faults,
        # Retries only guard a faulted bench, as on hardware.
        (retry or RetryPolicy()) if faults is not None else None,
        guard, store, case_progress,
    )

    span_fields = {"seed": seed, "n_chips": n_chips}
    if not case_progress:
        span_fields.update(fleet=True, fidelity=fidelity, shards=shards)
    with tracer.span("campaign", **span_fields) as span:
        if shards == 1:
            reporter = progress if progress is not None else NULL_PROGRESS
            parts = [_run_fleet_range(
                options, 0, n_chips, tracer, _Progress(reporter, options), keep_chips=True
            )]
        else:
            bounds = np.linspace(0, n_chips, shards + 1).astype(int).tolist()
            ranges = list(zip(bounds[:-1], bounds[1:]))
            shard_progress = _Progress(NULL_PROGRESS, options)
            outcomes = run_isolated([
                partial(_run_fleet_range, options, lo, hi, progress=shard_progress,
                        keep_chips=False)
                for lo, hi in ranges
            ], tracer)
            parts = []
            for (lo, hi), (kind, value) in zip(ranges, outcomes):
                if kind == "error":
                    raise value
                if kind == "died":
                    raise SimulationError(
                        f"fleet shard chip-{lo + 1}..chip-{hi} died without reporting "
                        f"(exit code {value})"
                    )
                parts.append(value)
            (progress or NULL_PROGRESS).line(f"{len(ranges)} fleet shards merged")
        chips: dict[int, _Chip] = {}
        hashes: dict[str, str] = {}
        for part_chips, part_hashes in parts:
            chips.update(part_chips)
            hashes.update(part_hashes)
        ordered = [(f"chip-{index + 1}", chips[index]) for index in sorted(chips)]
        sim_total = float(sum(chip.elapsed for _, chip in ordered))
        span.set("sim_advanced", sim_total)
    result = CampaignResult(
        log=DataLog.merge(
            [_as_log(chip.baseline) for _, chip in ordered]
            + [_as_log(chip.cases) for _, chip in ordered]
        ),
        chips={chip_id: chip.view for chip_id, chip in ordered if chip.view is not None},
        fresh_delays={chip_id: chip.summary.fresh_delay for chip_id, chip in ordered},
        quarantined={
            chip_id: chip.quarantine for chip_id, chip in ordered if chip.quarantine is not None
        },
        state_hashes=hashes,
        summaries=[chip.summary for _, chip in ordered],
        final_delays={chip_id: chip.final_delay for chip_id, chip in ordered},
        fidelity=fidelity,
        total_measurements=sum(chip.measurements for _, chip in ordered),
        shards=shards,
    )
    if span.duration > 0.0:
        tracer.gauge(
            "campaign.sim_seconds_per_wall_second",
            "simulated time advanced per wall-clock second",
        ).set(sim_total / span.duration)
        if not case_progress:
            tracer.gauge(
                "campaign.fleet_measurements_per_second",
                "fleet campaign measurement throughput",
            ).set(result.total_measurements / span.duration)
    return result


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
) -> CampaignResult:
    """Run Table 1 over an ``n_chips`` lot.

    ``fidelity="auto"`` picks ``"exact"`` (per-trap state, identical to
    :func:`~repro.lab.campaign.run_table1_campaign`) up to
    :data:`AUTO_EXACT_LIMIT` chips and ``"binned"`` above.  ``shards >
    1`` forks one child process per contiguous chip range, with the
    same result and counters as one shard.  ``collect="summary"`` keeps
    only phase-boundary records per chip; summaries and hashes always
    cover the full stream.  ``faults``, ``retry``, ``guard``,
    ``checkpoint`` / ``resume`` and ``sanitize`` work as for
    ``run_table1_campaign`` at any fidelity and shard count; a resume may
    use another shard count or ``batch_size`` than the run it continues.
    """
    return _run_campaign(
        seed, n_chips, include_baseline, fidelity, batch_size, shards, sanitize, collect,
        bins_per_decade, tracer, progress, faults, retry, checkpoint, resume, guard,
        case_progress=False,
    )
