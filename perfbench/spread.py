"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed, each in a fresh process, with
``run_seconds`` from BENCHMARK.json, and prints for every end-to-end metric
its median and its quartile spread, (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound.  Exits 1 if a run fails or any spread exceeds its bound.  Each run's
output is kept in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=600).stdout
        (BENCH / "out" / f"spread-{args.workload}-{seed}.txt").write_text(out)
        result = json.loads(out.splitlines()[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    over = []
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{m['name']:<16} median {med:<12.6g} spread {share:.4f} "
              f"bound {m['bound']} ({share / m['bound']:.2f} of it)")
        if share > m["bound"]:
            over.append(m["name"])
    if failed:
        print(f"{failed} failed requests")
    if over:
        print(f"spread over bound: {', '.join(over)}")
    return 1 if failed or over else 0


if __name__ == "__main__":
    sys.exit(main())
