"""The benchmark's three workloads: their inputs, one operation, its checks.

Every workload drives a public ``repro`` entry point once per operation,
one operation at a time, from one process:

* ``table1``: ``run_table1_campaign`` with 5 chips, sequential;
* ``lot200``: ``run_fleet_campaign`` over a 200-chip binned lot, 1 shard;
* ``sweep``: the DEPEND demo grid through ``SweepRunner`` (forked cells,
  ``cell_retries=2``), then ``analyze_sweep``, ``pareto_frontier`` and
  ``build_dependability_report`` with its HTML and JSON written out.

Operation ``i`` of a run with workload seed ``s`` uses the derived seed
``derive_seed(workload, s, i)``, so no two operations share inputs.
Program entry points are looked up through their modules at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
from pathlib import Path

#: The paper's AR110N6 margin-relaxed parameter, in percent.
PAPER_AR110N6_MARGIN_PCT = 72.4


def derive_seed(workload: str, seed: int, index: int | str) -> int:
    """A non-negative 31-bit seed for operation ``index`` of a run."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _digest(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()[:16]


class Workload:
    """One operation type; subclasses fill in the program calls."""

    name = ""
    #: Most operations one run makes; the committed reference digests
    #: cover this many operations of the default seed.
    max_ops = 0
    #: Run variants of the traced run: ``plain`` is the end-to-end
    #: operation, ``traced`` the same operation under the span recorder.
    variants = ("plain", "traced")
    #: The variant a ``traced`` operation's wall time is compared with.
    trace_baseline = "plain"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def inputs(self) -> list:
        """The inputs of every operation a run may make, in order."""
        return [derive_seed(self.name, self.seed, index) for index in range(self.max_ops)]

    def warm_up(self, variant: str = "plain") -> None:
        """Run the operation once on inputs no timed operation uses."""
        self.check(self.run(derive_seed(self.name, self.seed, "warm-up"), variant))

    def clear(self, op_input) -> None:
        """Undo what an earlier operation left behind (not timed)."""

    def run(self, op_input, variant: str):
        raise NotImplementedError

    def check(self, output) -> dict:
        """``measurements``, ``digest`` and ``problems`` of one output."""
        raise NotImplementedError

    def extras(self, output) -> dict:
        """Per-operation figures computed outside the timed region."""
        return {}

    def _tracer(self, variant: str):
        # A live program tracer in the traced variant, so its counters
        # (rate cache, retries, faults, guard violations) can be read.
        if variant != "traced":
            return None
        from repro.obs import Tracer

        return Tracer(keep_spans=False)


class Table1(Workload):
    """The paper's 5-chip stress/recovery campaign (Table 1)."""

    name = "table1"
    max_ops = 40
    records = 622

    def run(self, op_input, variant):
        import repro.lab.campaign as campaign

        return campaign.run_table1_campaign(seed=op_input, tracer=self._tracer(variant))

    def check(self, output):
        problems = []
        if len(output.log) != self.records:
            problems.append(f"{len(output.log)} records, expected {self.records}")
        return {
            "measurements": len(output.log),
            "digest": _digest(repr(record) for record in output.log),
            "problems": problems,
        }

    def extras(self, output):
        # The margin_relaxed_percent of experiments._recovery.extract(output,
        # "AR110N6"), without the recovery-model fit extract also makes.
        from repro.core.metrics import margin_relaxed_parameter

        times, shifts = output.delay_change_series("AR110N6", chip_no=5)
        return {"ar110n6_margin_pct": margin_relaxed_parameter(times, shifts)}


class Lot200(Workload):
    """A 200-chip binned-fidelity lot through the fleet engine."""

    name = "lot200"
    max_ops = 20
    chips = 200
    measurements = 24_880

    def run(self, op_input, variant):
        import repro.lab.fleet as fleet

        return fleet.run_fleet_campaign(
            seed=op_input,
            n_chips=self.chips,
            fidelity="binned",
            collect="summary",
            shards=1,
            tracer=self._tracer(variant),
        )

    def check(self, output):
        problems = []
        if output.total_measurements != self.measurements:
            problems.append(
                f"{output.total_measurements} measurements, expected {self.measurements}"
            )
        if len(output.summaries) != self.chips:
            problems.append(f"{len(output.summaries)} chip summaries, expected {self.chips}")
        return {
            "measurements": output.total_measurements,
            "digest": _digest(repr(summary) for summary in output.summaries),
            "problems": problems,
        }


class Sweep(Workload):
    """The DEPEND demo dependability sweep plus its analysis and report.

    The traced variant runs the cells inline, because forked cells would
    record their spans in a child process; ``inline`` is the same sweep
    untraced, the baseline for both the tracing overhead and the cost of
    process isolation.
    """

    name = "sweep"
    max_ops = 6
    cells = 12
    variants = ("plain", "inline", "traced")
    trace_baseline = "inline"

    def inputs(self):
        from repro.dependability import SweepSpec, demo_spec

        base = demo_spec().to_dict()
        specs = []
        for index in range(self.max_ops):
            spec = SweepSpec.from_dict({**base, "seeds": [derive_seed(self.name, self.seed, index)]})
            spec.expand()
            specs.append((spec, self.out_dir / f"op-{index}"))
        return specs

    def warm_up(self, variant="plain"):
        # One guarded cell with faults, then the analysis and the report:
        # every code path of the variant at a twelfth the cost.
        from repro.dependability import SweepSpec, demo_spec

        spec = SweepSpec.from_dict(
            {
                **demo_spec().to_dict(),
                "fault_rates": [24.0],
                "guard_modes": ["clamp"],
                "alphas": [4.0],
                "seeds": [derive_seed(self.name, self.seed, "warm-up")],
            }
        )
        directory = self.out_dir / "warm-up"
        self.clear((spec, directory))
        self.run((spec, directory), variant)
        # analyze_sweep bootstraps a lifetime interval once two cells report
        # a lifetime, which one cell cannot; its first call imports parts of
        # numpy (about 3 MB) that would otherwise land in a timed op and in
        # peak_rss_mb on some seeds only.
        from repro.analysis.stats import bootstrap_ci

        bootstrap_ci([0.0, 1.0])

    def clear(self, op_input):
        shutil.rmtree(op_input[1], ignore_errors=True)

    def run(self, op_input, variant):
        import repro.dependability as dependability
        import repro.report as report

        spec, directory = op_input
        runner = dependability.SweepRunner(
            spec,
            directory / "cells",
            cell_retries=2,
            isolation="process" if variant == "plain" else "inline",
        )
        result = runner.run()
        analysis = dependability.analyze_sweep(result)
        frontier = dependability.pareto_frontier(analysis)
        report.build_dependability_report(analysis).write(directory / "report.html")
        return spec, result, frontier

    def check(self, output):
        spec, result, frontier = output
        problems = []
        if len(result.outcomes) != self.cells:
            problems.append(f"{len(result.outcomes)} cells, expected {self.cells}")
        guard_modes = {cell.cell_id: cell.guard_mode for cell in result.cells}
        for outcome in result.degraded_cells:
            # Only an unguarded cell whose injected trap upset trips the
            # physics contract may degrade.
            if (
                outcome.status != "failed"
                or not outcome.error.startswith("PhysicsViolationError")
                or guard_modes.get(outcome.cell_id) != "off"
            ):
                problems.append(f"{outcome.cell_id} degraded: {outcome.status} {outcome.error}")
        if not frontier:
            problems.append("empty Pareto frontier")
        return {
            "measurements": sum(int(o.stats["measurements"]) for o in result.ok_cells),
            "digest": _digest(f"{o.cell_id} {o.status} {o.digest}" for o in result.outcomes),
            "problems": problems,
        }

    def extras(self, output):
        _, result, _ = output
        return {
            "cell_wall_s": [outcome.wall_s for outcome in result.outcomes],
            "cell_attempts": sum(outcome.attempts for outcome in result.outcomes),
            "cells_ok": len(result.ok_cells),
            "cells_degraded": len(result.degraded_cells),
        }


WORKLOADS = {workload.name: workload for workload in (Table1, Lot200, Sweep)}


def paper_error_points(margins: list[float]) -> float:
    """Median gap, in percentage points, to the paper's AR110N6 value."""
    return statistics.median(abs(m - PAPER_AR110N6_MARGIN_PCT) for m in margins)
