"""Benchmark workloads: seeded inputs, one request, and its correctness checks.

A *request* is what an optimizer asks for at one parameter vector: a
forward simulation, the adjoint gradient (``propagate_adjoint`` over that
simulation), the direct gradient, and a finite-difference check of the
gradient.  Input ``i`` of a workload depends only on ``(seed, i)``, so a run
that stops early draws the same inputs as one that goes on.

Requests come in *rounds* of ``round_size``: the five-bar workloads rotate
their three costs, and ``impacts-cli`` draws its restitution from three
strata of its range, so every whole round covers the same mix.
``round_s`` is the wall time of one round on the reference machine at the
commit that defined the benchmark; it fixes how many rounds a run makes, so
every commit does the same work for the same ``--seconds``.

Library calls go through module attributes (``hd.simulate``, not a bound
name) so that the traced run sees them through its patches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-4          # acceptance criterion 1: direct/adjoint agreement
FD_H = 1e-6         # relative step of the finite-difference checks
PASSES = ("simulate", "adjoint", "direct", "fd")


class CheckFailed(Exception):
    """A request ran but its output failed a correctness check."""


@dataclass
class Result:
    times: dict = field(default_factory=dict)   # pass -> seconds
    error: str | None = None
    grad_rel_diff: float = 0.0
    bytes_written: int = 0
    digest: bytes = b""


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


def run_request(workload, i: int, clock) -> Result:
    """Run request i, timing its passes on clock (``speed.Clock``); a raised
    error or a failed check marks it failed."""
    res = Result()
    try:
        workload.request(i, res, clock)
    except Exception as exc:  # every failure is counted, none is dropped
        res.error = f"{type(exc).__name__}: {exc}"
    return res


class FiveBar:
    """Five-bar mechanism through the library API, one of three costs per
    request, parameters drawn within +-1% of nominal."""

    round_size = 3
    spread = 0.01

    def __init__(self, formulation: str, all_params: bool, round_s: float, seed: int):
        self.formulation = formulation
        self.round_s = round_s
        self.all_params = all_params
        self.seed = seed
        self.build_problems()

    def build_problems(self):
        from hybridsens import gallery

        names = gallery.FIVE_BAR_PARAMS if self.all_params else ("k1", "k2")
        self.problem = gallery.five_bar(names, formulation=self.formulation)
        self.costs = [self.problem.cost(name) for name in sorted(self.problem.costs)]

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        rho0 = self.problem.rho0.rho
        rho = rho0 * (1.0 + rng.uniform(-self.spread, self.spread, rho0.size))
        d = rng.standard_normal(rho0.size)
        d *= np.maximum(1.0, np.abs(rho)) / np.linalg.norm(d)
        return self.costs[i % len(self.costs)], rho, d

    def input_digest(self, n: int) -> bytes:
        return _digest(*(self.inputs(i)[1] for i in range(n)))

    def request(self, i: int, res: Result, clock):
        import hybridsens.adjoint as ha
        import hybridsens.direct as hd

        pb = self.problem
        cost, rho, d = self.inputs(i)
        args = (pb.dynamics, cost, pb.events, rho, pb.t_span, pb.config)
        traj, t_sim = clock.time(hd.simulate, *args)
        sol, t_adj = clock.time(ha.propagate_adjoint, traj, cost)
        (grad, traj_d, _), t_dir = clock.time(hd.direct_gradient, *args)
        fd, t_fd = clock.time(self.fd_check, cost, rho, d)
        res.times = {"simulate": t_sim, "adjoint": t_sim + t_adj,
                     "direct": t_dir, "fd": t_fd}
        res.grad_rel_diff = _rel(sol.gradient, grad)
        res.digest = _digest(grad, sol.gradient, fd)
        if len(traj.events) != len(traj_d.events):
            raise CheckFailed(f"simulate found {len(traj.events)} events, "
                              f"direct {len(traj_d.events)}")
        if res.grad_rel_diff > TOL:
            raise CheckFailed(f"direct/adjoint rel diff {res.grad_rel_diff:.3e} > {TOL}")
        fd_rel = _rel(fd, grad @ d)
        if fd_rel > TOL:
            raise CheckFailed(f"directional FD rel diff {fd_rel:.3e} > {TOL}")

    def warm_up(self):
        """Every cost over a short horizon holding the first ground contact,
        so first-call costs are paid before timing."""
        import hybridsens.adjoint as ha
        import hybridsens.direct as hd

        pb = self.problem
        horizon = (pb.t_span[0], 0.35)
        for cost in self.costs:
            traj = hd.simulate(pb.dynamics, cost, pb.events, pb.rho0.rho, horizon, pb.config)
            ha.propagate_adjoint(traj, cost)
            hd.direct_gradient(pb.dynamics, cost, pb.events, pb.rho0.rho, horizon, pb.config)

    def fd_check(self, cost, rho, d):
        """Central difference of the total cost along direction d: two
        forward simulations, the finite-difference referee of grad @ d."""
        import hybridsens.direct as hd
        from hybridsens.model import terminal_cost_gradients

        pb = self.problem
        psi = []
        for sign in (1.0, -1.0):
            r = rho + sign * FD_H * d
            traj = hd.simulate(pb.dynamics, cost, pb.events, r, pb.t_span, pb.config)
            qF, vF, zF = traj.state_at(traj.tF)
            w = terminal_cost_gradients(cost, traj.segments[-1].dynamics, traj.tF,
                                        qF, vF, r)[0]
            psi.append(zF + w)
        return (psi[0] - psi[1]) / (2.0 * FD_H)


def bounce_horizon(h0: float, e: float, g: float, share: float = 0.9):
    """Closed-form impacts of a mass dropped from h0 with restitution e.

    Impact k (k >= 1) happens at t1 (1 + 2 e (1 - e^(k-1)) / (1 - e)) with
    t1 = sqrt(2 h0 / g); they accumulate at t1 (1 + e) / (1 - e).  Returns
    (tf, n): tf midway between the last impact before ``share`` of the
    accumulation time and the next one, and n, the impacts before tf.
    """
    t1 = np.sqrt(2.0 * h0 / g)
    t_inf = t1 * (1.0 + e) / (1.0 - e)

    def t_impact(k):
        return t1 * (1.0 + 2.0 * e * (1.0 - e ** (k - 1)) / (1.0 - e))

    n = 1
    while t_impact(n + 1) < share * t_inf:
        n += 1
    return float(0.5 * (t_impact(n) + t_impact(n + 1))), n


class ImpactsCli:
    """bouncing-mass and pendulum through ``hybridsens.cli.main``, in
    process, artifacts in a scratch directory of the checkout."""

    round_size = 3
    round_s = 5.3
    commands = (("simulate", "simulate"), ("direct", "direct"),
                ("adjoint", "adjoint"), ("fd", "fd-check"))
    e_range = (0.85, 0.90)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.build_problems()

    def build_problems(self):
        """Every CLI command builds its own problem; building both here is
        what ``setup_s`` counts for this workload."""
        from hybridsens import gallery

        self.gravity = gallery.GRAVITY
        gallery.bouncing_mass()
        gallery.pendulum()

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        lo, hi = self.e_range
        stratum = i % self.round_size
        e = lo + (hi - lo) * (stratum + rng.uniform()) / self.round_size
        h0 = rng.uniform(0.8, 1.2)
        tf, impacts = bounce_horizon(h0, e, self.gravity)
        x0, vy0, m = (float(x) for x in
                      np.array([0.15, -1.0, 1.0]) * (1.0 + rng.uniform(-0.1, 0.1, 3)))
        return [
            ("bouncing-mass", ["--tf", repr(tf), "--params", f"h0={h0!r}",
                               "--params", f"e={e!r}"], impacts),
            ("pendulum", ["--params", f"x0={x0!r}", "--params", f"vy0={vy0!r}",
                          "--params", f"m={m!r}"], None),
        ]

    def input_digest(self, n: int) -> bytes:
        return hashlib.sha256(repr([self.inputs(i) for i in range(n)]).encode()).digest()

    @staticmethod
    def _main(argv):
        """hybridsens.cli.main(argv) with its output captured: (rc, output)."""
        import hybridsens.cli as cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, sink.getvalue()

    def warm_up(self):
        """Every command on both models at their default horizons."""
        out = self.workdir / "warm-up"
        try:
            for model in ("bouncing-mass", "pendulum"):
                for _, cmd in self.commands:
                    self._main([cmd, "--model", model, "--out", str(out)])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def request(self, i: int, res: Result, clock):
        times = dict.fromkeys(PASSES, 0.0)
        root = self.workdir / f"request-{i}"
        failures = []
        digests = []
        try:
            for model, flags, impacts in self.inputs(i):
                out = {}
                for key, cmd in self.commands:
                    out[key] = root / f"{model}-{cmd}"
                    (rc, text), dt = clock.time(self._main, [cmd, "--model", model, *flags,
                                                             "--out", str(out[key])])
                    times[key] += dt
                    if rc != 0:
                        raise CheckFailed(f"{model} {cmd} exited {rc}: {text.strip()[-300:]}")
                    res.bytes_written += sum(p.stat().st_size for p in out[key].iterdir())
                failures += self._check(model, out, impacts, res, digests)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        res.times = times
        res.digest = _digest(*digests)
        if failures:
            raise CheckFailed("; ".join(failures))

    @staticmethod
    def _check(model, out, impacts, res, digests):
        def load(key, name):
            with open(out[key] / name) as fh:
                return json.load(fh)

        failures = []
        if impacts is not None:
            found = len(load("simulate", "events.json"))
            if found != impacts:
                failures.append(f"{model}: {found} events, closed form {impacts}")
        direct = np.array(load("direct", "gradient.json")["direct"])
        adjoint = np.array(load("adjoint", "gradient.json")["adjoint"])
        rel = _rel(adjoint, direct)
        res.grad_rel_diff = max(res.grad_rel_diff, rel)
        if rel > TOL:
            failures.append(f"{model}: direct/adjoint rel diff {rel:.3e} > {TOL}")
        table = load("fd", "fd_check.json")["table"]
        worst = max(row["max_rel_diff"] for row in table)
        if worst > TOL:
            failures.append(f"{model}: fd-check worst max_rel_diff {worst:.3e} > {TOL}")
        digests += [direct, adjoint] + [row["fd"] for row in table]
        return failures


def make(name: str, seed: int, workdir: Path):
    if name == "fivebar-penalty":
        return FiveBar("penalty", True, 23.0, seed)
    if name == "fivebar-dae":
        return FiveBar("dae", False, 22.0, seed)
    if name == "impacts-cli":
        return ImpactsCli(seed, workdir)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("fivebar-penalty", "fivebar-dae", "impacts-cli")
