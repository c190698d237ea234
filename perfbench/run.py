"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(measured with tracing off) and ``--trace 1`` the per-layer metrics of a
separate traced run, with its tracing overhead.  Every operation's output
is checked: record counts, and a digest that must match the committed
reference (default seed) or the first run of the same seed in this
checkout.  Human-readable lines go first; the last line of standard
output is one JSON object.  The exit code is 0 only when every check
passed.  Outputs (per-run results with every operation's wall time, sweep
cells and reports, spans, digests) go under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DIGEST_STORE = OUT_DIR / "digests.json"

#: Measuring workers per untraced run, one after another, each with its
#: own set-up and a share of ``--seconds``: the median ``setup_s`` comes
#: from several set-ups, and ``wall_s`` pools operations of several
#: processes.
WORKERS = 3
#: Wall-clock budget for the whole run, in seconds.
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def _worker(mode: str, args, deadline: float, seconds: float = 0.0, offset: int = 0,
            stride: int = 1) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--offset", str(offset),
        "--stride", str(stride),
        "--out", str(OUT_DIR),
        "--spawned", repr(time.monotonic()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the {DEADLINE_S:g} s deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def _check_digests(workload: str, seed: int, ops: list[dict]) -> None:
    """Mark ops whose digest differs from the reference or the first run."""
    reference = json.loads(REFERENCE_PATH.read_text())
    committed = reference[workload] if seed == reference["seed"] else []
    store = json.loads(DIGEST_STORE.read_text()) if DIGEST_STORE.exists() else {}
    seen = store.setdefault(f"{workload}:{seed}", {})
    for op in ops:
        digest = op.get("digest")
        if digest is None:
            continue
        index = op["index"]
        if index < len(committed):
            expected, source = committed[index], "the committed reference"
        else:
            expected, source = seen.setdefault(str(index), digest), "the first run of this seed"
        if digest != expected:
            op["problems"].append(f"digest {digest} differs from {source} ({expected})")
    DIGEST_STORE.parent.mkdir(parents=True, exist_ok=True)
    scratch = DIGEST_STORE.with_suffix(".tmp")
    scratch.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    scratch.replace(DIGEST_STORE)


def _tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    percentile = math.floor(100.0 * (n - 10) / n)
    rank = max(math.ceil(percentile / 100.0 * n) - 1, 0)
    return f"wall_s_p{percentile}", ordered[rank]


def _end_to_end(workload: str, results: list[dict], ops: list[dict]) -> tuple[dict, dict]:
    """The ``BENCHMARK.json`` metrics, and the figures printed beside them.

    The JSON line carries only the first: the others are zero on a healthy
    run, apply to one workload, or depend on how many operations fit in a
    run.  Both map a name to its value; the second to ``(value, unit)``.
    """
    from workloads import paper_error_points

    walls = [op["wall_s"] for op in ops]
    metrics = {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "wall_s": statistics.median(walls),
        "measurements_per_s": sum(op.get("measurements", 0) for op in ops) / sum(walls),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
    }
    shown = {"wall_s_n": (len(walls), "count")}
    tail = _tail(walls)
    if tail is not None:
        shown[tail[0]] = (tail[1], "s")
    failed = sum(1 for op in ops if op["problems"])
    shown["failed_frac"] = (failed / len(ops), "1")
    cell_walls = [wall for op in ops for wall in op.get("cell_wall_s", [])]
    if cell_walls:
        shown["cell_wall_s"] = (statistics.median(cell_walls), "s")
    margins = [op["ar110n6_margin_pct"] for op in ops if "ar110n6_margin_pct" in op]
    if margins:
        shown["paper_err_pts"] = (paper_error_points(margins), "pp")
    return metrics, shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    try:
        _worker("import", args, deadline)
        if args.trace:
            results = [_worker("trace", args, deadline, args.seconds)]
        else:
            results = [
                _worker("measure", args, deadline, args.seconds / WORKERS, offset, WORKERS)
                for offset in range(WORKERS)
            ]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for result in results for op in result["ops"]]
    _check_digests(args.workload, args.seed, ops)
    if args.trace:
        declared = spec["per_layer"]
        values = results[0]["layers"]
        shown = {"spans": (results[0]["spans"], "count")}
        print(f"# {args.workload}: traced run, spans in {results[0]['spans_file']}")
        if args.workload == "sweep":
            print("# sweep: traced cells run inline (forked cells would hide the wrappers)")
    else:
        declared = spec["end_to_end"]
        values, shown = _end_to_end(args.workload, results, ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for op in ops:
        for problem in op["problems"]:
            print(f"# FAILED {args.workload} op {op['index']} ({op['variant']}): {problem}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")

    failed = sum(1 for op in ops if op["problems"])
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    details = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.parent.mkdir(parents=True, exist_ok=True)
    details.write_text(json.dumps({**summary, "shown": shown, "workers": results}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
