"""hybridsens benchmark: gradient-request latency, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hybridsens is imported from ``src/``.
Workloads: ``fivebar-penalty``, ``fivebar-dae``, ``impacts-cli`` (see
``workloads.py`` and ``BENCHMARK.json``); ``all`` runs each in turn.

``--trace 0`` measures end to end.  It times the fresh-process set-up
several times, warms up, then runs max(1, round(seconds / round_s)) whole
rounds of requests (``workloads.py``): a fixed amount of work that lasts
about ``--seconds`` on the reference machine.  Per pass it reports the
median over requests; each metric line gives the number of rounds and of
requests and the highest percentile with at least ten requests beyond it.
Times are seconds at the reference host speed (``speed.py``); the raw wall
times are printed per round.

    simulate_s      one forward simulation
    adjoint_s       simulate plus propagate_adjoint (``hybridsens adjoint`` on
                    impacts-cli)
    direct_s        direct_gradient (``hybridsens direct``)
    fd_s            the finite-difference check: central difference of the
                    cost along a drawn direction on the five-bar workloads,
                    ``hybridsens fd-check`` on impacts-cli
    requests_per_s  requests completed per second spent in the passes, at
                    reference host speed (the benchmark's own checks and
                    host-speed samples are not counted)
    setup_s         fresh-process import of hybridsens and hybridsens.cli
                    plus the workload's gallery problems (median)
    peak_rss_mb     peak resident memory of this process
    success_rate    requests passing every check over requests attempted
                    (1 - error_rate; a metric here may never read 0)

``--trace 1`` runs one round, each request untraced and then with every layer
boundary wrapped (``spans.py``), and reports per-request layer metrics, the
tracing overhead, and digests of the drawn inputs and of every gradient.
A layer boundary the package no longer has makes the run not correct: its
counters would read 0, which looks like an improvement.
Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 7

SETUP_CODE = """
import statistics, sys, time
t = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import hybridsens, hybridsens.cli
import workloads
workloads.make({name!r}, 0, None)
setup = time.perf_counter() - t
import speed
print(setup, statistics.median(speed.kernel_seconds() for _ in range(3)))
"""


def measure_setup(name: str) -> list:
    """Seconds to import hybridsens and build the workload's problems, each
    in a fresh interpreter, scaled to the reference host speed by the
    reference kernel timed in the same interpreter right after."""
    from speed import REFERENCE_S

    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        setup, kernel = map(float, done.stdout.split()[-2:])
        times.append(setup * REFERENCE_S / kernel)
    return times


def run_rounds(workload, rounds: int, clock):
    """Requests 0 .. rounds * round_size - 1 as a list of rounds, each
    (results, wall seconds, seconds at reference host speed)."""
    from workloads import run_request

    out = []
    size = workload.round_size
    for k in range(rounds):
        raw, busy = clock.raw, clock.busy
        results = [run_request(workload, i, clock) for i in range(k * size, (k + 1) * size)]
        out.append((results, clock.raw - raw, clock.busy - busy))
    return out


def tail(values):
    """(percentile, value) for the highest of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            k = 1000
            q = statistics.quantiles(values, n=k, method="inclusive")[round(p * k / 100) - 1]
            return p, q
    return None


def report(metrics, name, value, unit, samples=None, rounds=None):
    """Print one metric line and, unless metrics is None, record it."""
    line = f"  {name:<34} {value:>14.6g} {unit:<6}"
    if rounds is not None:
        line += f" rounds={rounds},"
    if samples is not None:
        t = tail(samples)
        line += f" n={len(samples)}"
        line += f", p{t[0]:g}={t[1]:.6g}" if t else ", no percentile with >=10 samples beyond it"
    print(line)
    if metrics is not None:
        metrics[name] = {"value": value, "unit": unit}


def end_to_end(args, workload):
    from speed import Clock
    from workloads import PASSES

    setup = measure_setup(args.workload)
    workload.warm_up()
    rounds = run_rounds(workload, max(1, round(args.seconds / workload.round_s)), Clock())
    results = [r for batch, _, _ in rounds for r in batch]
    failed = [r for r in results if r.error is not None]
    ok = [r for r in results if r.error is None]
    for k, (batch, raw, busy) in enumerate(rounds):
        print(f"  round {k}: {raw:.3f} s wall, {busy:.3f} s at reference host speed")
        for r in batch:
            print("    " + (f"FAILED: {r.error}" if r.error else
                            " ".join(f"{p}={t:.4f}" for p, t in r.times.items())))
    if not ok:
        raise SystemExit("no request completed; no metrics to report")

    metrics = {}

    def put(*args):
        report(metrics, *args)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(results)} requests, "
          f"{len(failed)} failed; seconds at reference host speed:")
    for key in PASSES:
        samples = [r.times[key] for r in ok]
        put(f"{key}_s", statistics.median(samples), "s", samples, len(rounds))
    put("requests_per_s", len(ok) / sum(busy for _, _, busy in rounds), "1/s")
    put("setup_s", statistics.median(setup), "s", setup)
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    put("success_rate", len(ok) / len(results), "ratio")
    report(None, "error_rate", len(failed) / len(results), "ratio")
    return results, metrics, True


@contextlib.contextmanager
def tracing(tracer, workload):
    """The tracer installed, with the workload's request and its own FD
    check wrapped too; everything restored on exit."""
    tracer.install()
    workload.request = tracer.span("bench.request", workload.request)
    if hasattr(workload, "fd_check"):
        workload.fd_check = tracer.span("oracle.fd_directional", workload.fd_check,
                                        pass_="fd")
    try:
        yield
    finally:
        tracer.uninstall()
        vars(workload).pop("request")
        vars(workload).pop("fd_check", None)


def traced(args, workload):
    """One round, each request run untraced and then traced, so that the
    overhead compares neighbouring runs of the same input."""
    from spans import Tracer
    from speed import Clock
    from workloads import run_request

    workload.warm_up()
    n = workload.round_size
    clock = Clock(calibrate=False)
    tracer = Tracer()
    plain, results = [], []
    plain_s = traced_s = 0.0
    for i in range(n):
        start = clock.raw
        plain.append(run_request(workload, i, clock))
        plain_s += clock.raw - start
        with tracing(tracer, workload):
            if i == 0:
                workload.build_problems()
            start = clock.raw
            results.append(run_request(workload, i, clock))
            traced_s += clock.raw - start
    for r in plain + results:
        if r.error is not None:
            print(f"  FAILED: {r.error}")
    if tracer.missing:
        print(f"  FAILED: layer boundaries not found, so the traced run is not correct: "
              f"{', '.join(tracer.missing)}")

    metrics = {}

    def put(*args):
        report(metrics, *args)

    counts = tracer.counts()

    def count(key, pass_=None):
        return sum(v for (p, k), v in counts.items()
                   if k == key and (pass_ is None or p == pass_))

    durations, selfs = {}, {}
    for rec, self_s in tracer.self_times():
        durations.setdefault(rec[0], []).append(rec[2] - rec[1])
        selfs.setdefault((rec[0], rec[5]), []).append(self_s)

    def busy(name):
        return sum(durations.get(name, ()))

    def self_time(name, pass_=None):
        return sum(sum(v) for (k, p), v in selfs.items()
                   if k == name and (pass_ is None or p == pass_))

    steps = {p: count("integrate.steps", p) for p in ("fwd", "tlm", "bwd")}
    accel, jac = count("dynamics.accel"), count("dynamics.jac")
    entry = "cli.main" if "cli.main" in durations else "bench.request"
    builds = durations.get("gallery.build", [])

    print(f"{args.workload} seed {args.seed}: traced round of {n} requests, "
          "per request:")
    put("integrate.steps_fwd", steps["fwd"] / n, "count")
    put("integrate.steps_tlm", steps["tlm"] / n, "count")
    put("integrate.steps_bwd", steps["bwd"] / n, "count")
    put("integrate.steps_rejected", count("integrate.steps_rejected") / n, "count")
    put("integrate.event_fn_evals", count("integrate.event_fn") / n, "count")
    put("integrate.dense_evals", count("integrate.dense_evals") / n, "count")
    put("integrate.self_s", self_time("integrate.integrate_segment") / n, "s")
    put("simulate.rhs_evals", count("direct.tlm_rhs", "fwd") / n, "count")
    put("direct.rhs_evals", count("direct.tlm_rhs", "tlm") / n, "count")
    put("direct.rhs_self_s", self_time("direct.tlm_rhs", "tlm") / n, "s")
    put("dynamics.accel_calls", accel / n, "count")
    put("dynamics.accel_s", busy("dynamics.accel") / n, "s")
    put("dynamics.jac_calls", jac / n, "count")
    put("dynamics.jac_s", busy("dynamics.jac") / n, "s")
    put("constrained.factorizations", count("constrained.factorizations") / n, "count")
    put("constrained.factorizations_per_eval",
        count("constrained.factorizations") / max(accel + jac, 1), "ratio")
    put("model.cost_grad_calls", count("model.cost_grad") / n, "count")
    put("model.cost_grad_s", busy("model.cost_grad") / n, "s")
    put("model.fd_fallback_calls", count("model.fd_fallback") / n, "count")
    put("hybrid.events", count("hybrid.state_jump") / n, "count")
    put("hybrid.jump_builds", count("hybrid.jump_build") / n, "count")
    put("hybrid.jump_s", busy("hybrid.jump_build") / n, "s")
    put("hybrid.state_jump_s", busy("hybrid.state_jump") / n, "s")
    put("adjoint.rhs_evals", count("adjoint.adjoint_rhs") / n, "count")
    put("adjoint.rhs_self_s", self_time("adjoint.adjoint_rhs") / n, "s")
    put("adjoint.step_ratio",
        steps["bwd"] / max(count("adjoint.fwd_steps_walked"), 1), "ratio")
    put("adjoint.grad_rel_diff", max(r.grad_rel_diff for r in results), "ratio")
    put("oracle.simulations", count("pass.simulate", "fd") / n, "count")
    put("oracle.s", (busy("oracle.fd_cost_sensitivity") + busy("oracle.fd_directional")) / n,
        "s")
    put("gallery.build_s", sum(builds) / max(len(builds), 1), "s")
    put("cli.self_s", self_time(entry) / n, "s")
    put("cli.bytes_written", sum(r.bytes_written for r in results) / n, "B")
    put("trace.overhead_s", (traced_s - plain_s) / n, "s")
    put("trace.overhead_share", traced_s / plain_s - 1.0, "ratio")

    digests = hashlib.sha256(b"".join(r.digest for r in results)).hexdigest()
    print(f"digest inputs {workload.input_digest(n).hex()}")
    print(f"digest gradients {digests}")
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
    return plain + results, metrics, not tracer.missing


def run_all(args, names) -> int:
    """Every workload, each in a fresh process; the JSON line names each
    metric ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                               text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hybridsens" / "__init__.py").is_file():
        print(f"error: hybridsens sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; "
              f"available: all, {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        results, metrics, complete = (traced if args.trace else end_to_end)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.error is not None for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
