"""One benchmark worker process: set up a workload, then time it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object as its last line of standard output.  Modes:

* ``import``: import the workload's modules and exit (warms the bytecode
  cache, not measured);
* ``measure``: set up, then run untraced operations one after another
  until ``--seconds`` have passed, taking every ``--stride``-th input
  from ``--offset`` on (so the workers of one run never share inputs);
* ``trace``: set up, then run rounds of the workload's variants (the
  plain operation, the same inputs under the span recorder and, for
  ``sweep``, the inline baseline) until ``--seconds`` have passed, and
  report the per-layer metrics.  Each variant gets its own untimed
  warm-up before its first timed run.

Set-up time runs from ``--spawned`` (the parent's ``time.monotonic()``
just before it started this process) to the first timed operation: the
``repro`` import, building the inputs, and one discarded warm-up
operation on inputs no timed operation uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _import_repro(root: Path) -> None:
    import repro

    source = (root / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {source}")
    import repro.dependability  # noqa: F401
    import repro.lab.campaign  # noqa: F401
    import repro.lab.fleet  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.report  # noqa: F401


def _timed(workload, op_input, variant: str, index: int, recorder=None) -> dict:
    """One operation, its checks and extras; only the call is timed."""
    workload.clear(op_input)
    gc.collect()
    record = {"index": index, "variant": variant, "problems": []}
    if recorder is not None:
        recorder.op = index
        recorder.install()
    start = time.perf_counter()
    try:
        output = workload.run(op_input, variant)
    except Exception as exc:  # an escaping exception is a failed operation
        record["wall_s"] = time.perf_counter() - start
        record["problems"].append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return record
    finally:
        if recorder is not None:
            recorder.uninstall()
    record["wall_s"] = time.perf_counter() - start
    try:
        record.update(workload.check(output))
        record.update(workload.extras(output))
    except Exception as exc:  # a check that cannot run fails the operation
        record["problems"].append(f"check failed: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    return record


def _layer_metrics(recorder, workload, records: list[dict]) -> dict[str, float]:
    """Per-operation layer figures from the traced variant's spans."""
    from tracing import LAYERS

    traced = [r for r in records if r["variant"] == "traced"]
    n_ops = max(len(traced), 1)
    totals = recorder.layer_totals()
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls / n_ops
        metrics[f"{layer}.self_s"] = self_s / n_ops
    counts = recorder.counts
    lookups = sum(counts[f"bti.rate_cache.{kind}"] for kind in ("hits", "partial_hits", "misses"))
    reused = counts["bti.rate_cache.hits"] + counts["bti.rate_cache.partial_hits"]
    metrics["bti.rate_cache.hit_ratio"] = reused / lookups if lookups else 0.0
    metrics["bti.trap_updates"] = counts["bti.trap_updates"] / n_ops
    metrics["guard.violations"] = (
        sum(v for k, v in counts.items() if k.startswith("guard.violations.")) / n_ops
    )
    for name in ("lab.sample_retries", "lab.faults.injected", "campaign.quarantines",
                 "lab.campaign.wait_s"):
        metrics[name] = counts[name] / n_ops

    def median_wall(variant):
        walls = [r["wall_s"] for r in records if r["variant"] == variant]
        return statistics.median(walls) if walls else 0.0

    baseline = median_wall(workload.trace_baseline)
    metrics["trace.overhead_frac"] = (
        median_wall("traced") / baseline - 1.0 if baseline > 0.0 else 0.0
    )
    # Only the first round counts: once an inline sweep has imported what
    # the cells need into this process, later forked cells inherit it.
    first = {r["variant"]: r["wall_s"] for r in records if r["index"] == records[0]["index"]}
    metrics["dependability.isolation_s"] = (
        first["plain"] - first["inline"] if "inline" in first else 0.0
    )
    attempts = sum(r.get("cell_attempts", 0) for r in traced)
    ok = sum(r.get("cells_ok", 0) for r in traced)
    metrics["dependability.cell_attempts"] = attempts / n_ops
    metrics["dependability.cells_ok"] = ok / n_ops
    metrics["dependability.cells_degraded"] = (
        sum(r.get("cells_degraded", 0) for r in traced) / n_ops
    )
    metrics["dependability.cell_yield"] = ok / attempts if attempts else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("import", "measure", "trace"), required=True)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    _import_repro(root)
    if args.mode == "import":
        print(json.dumps({}))
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out / args.workload)
    inputs = workload.inputs()
    workload.warm_up()
    gc.collect()
    setup_s = time.monotonic() - args.spawned

    recorder = None
    variants = ("plain",)
    if args.mode == "trace":
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        variants = workload.variants
    records = []
    warmed = {"plain"}
    started = time.monotonic()
    for index in range(args.offset, len(inputs), args.stride):
        if records and time.monotonic() - started >= args.seconds:
            break
        for variant in variants:
            # Warm each variant before its first timed run, but only after
            # the first plain run: an inline sweep imports into this process
            # what forked cells would otherwise import for themselves.
            if variant not in warmed:
                workload.warm_up(variant)
                warmed.add(variant)
            records.append(
                _timed(workload, inputs[index], variant, index,
                       recorder if variant == "traced" else None)
            )
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
    }
    if recorder is not None:
        result["layers"] = _layer_metrics(recorder, workload, records)
        spans_path = args.out / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        recorder.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["spans"] = len(recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
