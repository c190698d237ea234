"""Layer spans for the traced benchmark run.

The traced run wraps the public functions of each ``repro`` layer from
here, outside the program: every wrapped call records one span ``(id,
parent, layer, start, end, op)`` into an in-memory list, and the list is
written out once the run ends.  The current span lives in a
:class:`contextvars.ContextVar`, and the campaign's
``ThreadPoolExecutor`` is swapped for one that runs each task in a copy
of the submitting context, so spans opened in pool workers name the
campaign span as their parent instead of floating free.

A layer's self time is its spans' duration minus the part of that
interval covered by child spans (the union, since children running in
pool threads may overlap).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)

#: Layer name -> the program functions its spans cover, as
#: ``(module, qualified name)``.  Module-level functions are replaced in
#: every loaded ``repro`` module that imported them.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "bti.evolve": (
        ("repro.bti.traps", "TrapPopulation.evolve"),
        ("repro.bti.traps", "TrapPopulation.evolve_cycles"),
    ),
    "bti.delta_vth": (("repro.bti.traps", "TrapPopulation.delta_vth"),),
    "bti.fleet_evolve": (
        ("repro.bti.fleet", "FleetTraps.evolve"),
        ("repro.bti.fleet", "FleetTraps.evolve_cycles"),
        ("repro.bti.fleet", "BinnedFleetTraps.evolve"),
    ),
    "bti.lot_setup": (
        ("repro.bti.fleet", "draw_population"),
        ("repro.bti.fleet", "TrapGrid.cell_ids"),
        ("repro.bti.fleet", "BinnedFleetTraps.add_chip"),
    ),
    "fpga.path_delay": (("repro.fpga.chip", "FpgaChip.path_delay"),),
    "fpga.counter_read": (("repro.fpga.counter", "ReadoutCounter.read_many"),),
    "fpga.chip_init": (("repro.fpga.chip", "FpgaChip.__init__"),),
    "fpga.fleet_frequencies": (("repro.fpga.fleet", "FleetChip.frequencies"),),
    "fpga.fleet_init": (("repro.fpga.fleet", "FleetChip.__init__"),),
    "guard.check": (
        ("repro.guard.contracts", "Guard.check_array"),
        ("repro.guard.contracts", "Guard.check_scalar"),
        ("repro.guard.contracts", "Guard.positive_scalar"),
    ),
    "lab.phase": (("repro.lab.measurement", "VirtualTestbench.run_phase"),),
    "lab.fleet_phase": (
        ("repro.lab.fleet", "FleetBench.run_phase"),
        ("repro.lab.fleet", "FleetBench.run_case"),
    ),
    "lab.instrument_draw": (
        ("repro.lab.thermal_chamber", "ThermalChamber.actual_temperature"),
        ("repro.lab.power_supply", "DcPowerSupply.actual_voltage"),
    ),
    "lab.campaign": (("repro.lab.campaign", "run_table1_campaign"),),
    "lab.fleet_campaign": (("repro.lab.fleet", "run_fleet_campaign"),),
    "core.lifetime": (("repro.core.lifetime", "project_lifetime"),),
    "dependability.sweep": (("repro.dependability.runner", "SweepRunner.run"),),
    "dependability.store_write": (("repro.dependability.store", "SweepStore.write_cell"),),
    "dependability.analyze": (
        ("repro.dependability.analyzer", "analyze_sweep"),
        ("repro.dependability.pareto", "pareto_frontier"),
    ),
    "report.build": (
        ("repro.report.dependability", "build_dependability_report"),
        ("repro.report.builder", "CampaignHealthReport.write"),
    ),
}

#: Program counters (read from the live ``repro.obs.Tracer`` a campaign
#: was handed) that the per-layer table reports.
PROGRAM_COUNTERS = (
    "bti.rate_cache.hits",
    "bti.rate_cache.partial_hits",
    "bti.rate_cache.misses",
    "lab.sample_retries",
    "lab.faults.injected",
    "campaign.quarantines",
)


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context.

    The time the submitting thread spends in ``shutdown`` counts as
    waiting on the pool.
    """

    recorder: "SpanRecorder"

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        start = time.perf_counter()
        try:
            super().shutdown(wait, cancel_futures=cancel_futures)
        finally:
            self.recorder.counts["lab.campaign.wait_s"] += time.perf_counter() - start


class SpanRecorder:
    """Wraps the layer functions while installed and keeps their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, after=None):
        spans, ids, current = self.spans, self._ids, _CURRENT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((span_id, parent, layer, start, end, self.op))
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _after_evolve(self, args, kwargs) -> None:
        self.counts["bti.trap_updates"] += args[0].n_traps

    def _after_campaign(self, args, kwargs) -> None:
        metrics = getattr(kwargs.get("tracer"), "metrics", None)
        if metrics is None:
            return
        for name, value in metrics.snapshot().items():
            if name in PROGRAM_COUNTERS or name.startswith("guard.violations."):
                self.counts[name] += value

    def install(self) -> None:
        """Replace every layer function, the campaign pool and its wait."""
        for targets in LAYERS.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        loaded = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = sys.modules[module_name]
                after = None
                if layer == "bti.evolve":
                    after = self._after_evolve
                elif layer in ("lab.campaign", "lab.fleet_campaign"):
                    after = self._after_campaign
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    self._replace(owner, attr, self._wrap(owner.__dict__[attr], layer, after))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(original, layer, after)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, attr, wrapped)

        campaign = sys.modules["repro.lab.campaign"]
        pool = type("ContextPool", (_ContextPool,), {"recorder": self})
        self._replace(campaign, "ThreadPoolExecutor", pool)
        self._replace(campaign, "as_completed", self._timed_as_completed(campaign.as_completed))

    def _timed_as_completed(self, as_completed):
        counts = self.counts

        def timed(*args, **kwargs):
            iterator = as_completed(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    future = next(iterator)
                except StopIteration:
                    return
                finally:
                    counts["lab.campaign.wait_s"] += time.perf_counter() - start
                yield future

        return timed

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Layer -> (calls, self seconds) over every recorded span."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, _, layer, start, end, _ in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, reach)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            entry = totals[layer]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}

    def write(self, path: Path) -> None:
        """Write the spans as a tab-separated table, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id\tparent_id\tlayer\tstart_s\tend_s\top\n")
            for span_id, parent, layer, start, end, op in self.spans:
                handle.write(f"{span_id}\t{parent}\t{layer}\t{start:.9f}\t{end:.9f}\t{op}\n")
