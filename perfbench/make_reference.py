"""Regenerate ``reference.json``: the output digests of the default seed.

Runs every operation a benchmark run of seed 0 may make, untraced, and
records each output digest in order.  Run it from the root of the
repository, only when a change to the program is meant to change its
outputs::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import WORKLOADS  # noqa: E402

SEED = 0


def main() -> int:
    reference = {"seed": SEED}
    for name, workload_type in WORKLOADS.items():
        workload = workload_type(SEED, BENCH_DIR / "out" / "reference" / name)
        digests = []
        for index, op_input in enumerate(workload.inputs()):
            workload.clear(op_input)
            checked = workload.check(workload.run(op_input, "plain"))
            if checked["problems"]:
                print(f"error: {name} op {index}: {checked['problems']}", file=sys.stderr)
                return 1
            digests.append(checked["digest"])
            print(f"{name} op {index}: {checked['digest']}", file=sys.stderr)
        reference[name] = digests
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
