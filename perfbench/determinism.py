"""Determinism check of the traced benchmark run.

    python3 perfbench/determinism.py --workload NAME [--seed N]

Runs ``run.py --trace 1`` twice with one seed and once with the next seed,
each in a fresh process (``--seconds`` is ``run_seconds`` from
BENCHMARK.json; a traced run makes one round whatever its value), and
checks that

* the two same-seed runs report identical per-layer counts (every metric
  that is not a time) and bitwise-identical gradients (equal digests);
* the other seed draws different inputs.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced_run(workload: str, seed: int):
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=600).stdout.splitlines()
    digests = dict(line.split()[1:3] for line in out if line.startswith("digest "))
    result = json.loads(out[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] != "s" and name != "trace.overhead_share"}
    return result, counts, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.seed + 1)

    problems = []
    for result, _, _ in (first, second, other):
        if not result["correct"]:
            problems.append(f"a traced run failed {result['failed']} of "
                            f"{result['attempted']} requests")
    for name, value in first[1].items():
        if second[1].get(name) != value:
            problems.append(f"{name}: {value!r} then {second[1].get(name)!r}")
    if first[2]["gradients"] != second[2]["gradients"]:
        problems.append("gradients differ between runs with the same seed")
    if first[2]["inputs"] != second[2]["inputs"]:
        problems.append("inputs differ between runs with the same seed")
    if first[2]["inputs"] == other[2]["inputs"]:
        problems.append(f"seeds {args.seed} and {args.seed + 1} draw the same inputs")

    for line in problems:
        print(f"FAIL {args.workload}: {line}")
    if not problems:
        print(f"ok {args.workload}: {len(first[1])} counts and the gradient digest "
              f"repeat for seed {args.seed}; seed {args.seed + 1} draws other inputs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
