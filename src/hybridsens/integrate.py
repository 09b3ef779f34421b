"""Smooth-segment integration with dense output and event localization.

Stepping comes from scipy's embedded Runge-Kutta 4(5) pair (non-stiff
dynamics between events).  Each accepted step keeps its stage derivatives,
which give both the continuous extension (what the event root-finder and
the state queries interpolate) and the stage states the discrete tangent
and adjoint of the step are evaluated at (``DenseSegment.step_stages``).  Everything event-related is implemented
here: sign-change detection on the dense output, bracketed bisection
refined by secant steps, masking of the event function that just fired,
and the guards that turn grazing or simultaneous crossings into explicit
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45


class IntegrationError(RuntimeError):
    pass


class GrazingError(IntegrationError):
    """The trajectory touched an event surface without crossing it."""


class SimultaneousEventError(IntegrationError):
    """Two event functions crossed zero within the event time tolerance."""


class EventAccumulationError(IntegrationError):
    """An event function returned across its surface before leaving it on
    the departure side: events accumulate (Zeno behaviour)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for one integration run.

    ``event_tol`` is the absolute tolerance on the localized event time.
    Defaults are chosen to comfortably beat the residual levels the target
    problems require; halving them must reduce terminal error (tested).
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    h0: float | None = None
    hmax: float = np.inf
    event_tol: float = 1e-9
    max_steps: int = 1_000_000

    def __post_init__(self):
        # comparisons with NaN are false, so each test is written to fail on it
        if not all(np.isfinite(x) and x > 0 for x in (self.rtol, self.atol, self.event_tol)):
            raise ValueError("rtol, atol and event_tol must be finite and positive")
        if self.h0 is not None and not (np.isfinite(self.h0) and self.h0 > 0):
            raise ValueError("h0 must be None or finite and positive")
        if not self.hmax > 0:
            raise ValueError("hmax must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


# scipy's Dormand-Prince stage coefficients, with a seventh row for the
# derivative at the step end (formed from the full-step weights B): the
# continuous extension weighs it, the full step does not.
RK_A = np.zeros((7, 7))
RK_A[:6, :5] = RK45.A
RK_A[6, :6] = RK45.B
RK_C = np.append(RK45.C, 1.0)


def _rk_dense(t_old, y_old, h, K, t) -> np.ndarray:
    """Continuous extension y_old + h (K^T P) [x, x^2, x^3, x^4] inside one
    step, x = (t - t_old) / h, computed exactly as scipy's RkDenseOutput."""
    P = RK45.P
    x = (t - t_old) / h
    y = h * np.dot(K.T.dot(P), np.cumprod(np.tile(x, P.shape[1])))
    y += y_old
    return y


@dataclass
class DenseSegment:
    """Accepted Runge-Kutta steps of one smooth segment.

    Step k runs from node k with signed length ``steps[k]`` (scipy's
    ``h_previous``) and stage derivatives ``stages[k]`` (a copy of scipy's
    ``K``: six stages plus the derivative at the step end).  A hybrid run
    also records ``multipliers``, the (6 * len(steps) + 1, m) multipliers of
    the dynamics' saddle solve at every stage: row 6k + i is stage i of
    step k, so row 6k is also stage 6 of step k - 1.  Inside a step
    the continuous extension is evaluated bitwise as scipy's dense output;
    at a stored node the stored state is returned verbatim.  ``truncated``
    marks a segment whose last node is an event root inside its last step,
    reached by the continuous extension rather than by the full step.
    """

    t_start: float
    t_end: float
    node_times: np.ndarray
    node_states: np.ndarray  # shape (len(node_times), dim)
    stages: list
    steps: np.ndarray
    truncated: bool = False
    forward: bool = True
    multipliers: np.ndarray | None = None

    _BOUNDARY_SLACK = 1e-12

    def __post_init__(self):
        if self.multipliers is not None:
            self.multipliers = np.array(self.multipliers, dtype=float)
            self.multipliers.flags.writeable = False

    def __len__(self) -> int:
        return len(self.stages)

    def evaluate(self, t: float) -> np.ndarray:
        lo, hi = (self.t_start, self.t_end) if self.forward else (self.t_end, self.t_start)
        span = max(abs(self.t_end - self.t_start), 1.0)
        if t < lo - self._BOUNDARY_SLACK * span or t > hi + self._BOUNDARY_SLACK * span:
            raise IntegrationError(
                f"t={t!r} outside segment [{self.t_start!r}, {self.t_end!r}]"
            )
        t = min(max(t, lo), hi)
        times = self.node_times if self.forward else -self.node_times
        tt = t if self.forward else -t
        k = np.searchsorted(times, tt)
        if k < len(times) and times[k] == tt:
            return self.node_states[k].copy()
        k = min(max(k - 1, 0), len(self.stages) - 1)
        return _rk_dense(self.node_times[k], self.node_states[k], self.steps[k],
                         self.stages[k], t)

    def step_stages(self, k: int, n: int):
        """(h, w, times, states, vdot, mu) of step k, for the discrete
        tangent and adjoint sweeps over a state [q (n); v (n); ...].

        w weighs the stages in the step's end node: B on six for a full
        step, P [x, x^2, x^3, x^4] on all seven for the last step of a
        segment cut at an event (reached by the continuous extension).  The
        seven stage times and states Y_i = y_k + h sum_{j<i} a_ij K_j are
        rebuilt as the forward step formed them; their accelerations (v
        block of K) and multipliers (rows 6k..6k+6 of ``multipliers``) are
        bitwise what the dynamics returned there."""
        t_old, y_old = self.node_times[k], self.node_states[k]
        h, K = self.steps[k], self.stages[k]
        if self.truncated and k == len(self) - 1:
            x = (self.node_times[k + 1] - t_old) / h
            w = RK45.P @ np.cumprod(np.tile(x, RK45.P.shape[1]))
        else:
            w = RK45.B
        states = [y_old + np.dot(K[:i].T, RK_A[i, :i]) * h for i in range(len(RK_C))]
        mu = self.multipliers[RK45.n_stages * k:RK45.n_stages * (k + 1) + 1]
        return h, w, t_old + RK_C * h, states, K[:, n:2 * n], mu


@dataclass
class EventHit:
    index: int
    t: float
    y: np.ndarray
    r_residual: float


def _refine_root(rfun: Callable[[float], float], ta: float, ra: float,
                 tb: float, rb: float, t_tol: float) -> float:
    """Bracketed root of rfun on [ta, tb] with sign(ra) != sign(rb).

    Bisection step refined by one secant step per iteration: the bracket
    always shrinks, the secant accelerates local convergence.
    """
    if ra == 0.0:
        return ta
    if rb == 0.0:
        return tb
    for _ in range(200):
        if abs(tb - ta) <= t_tol:
            break
        tm = 0.5 * (ta + tb)
        rm = rfun(tm)
        if rm == 0.0:
            return tm
        if (ra < 0) != (rm < 0):
            tb, rb = tm, rm
        else:
            ta, ra = tm, rm
        # secant refinement inside the current bracket
        denom = rb - ra
        if denom != 0.0:
            ts = ta - ra * (tb - ta) / denom
            if ta < ts < tb:
                rs = rfun(ts)
                if rs == 0.0:
                    return ts
                if (ra < 0) != (rs < 0):
                    tb, rb = ts, rs
                else:
                    ta, ra = ts, rs
    # return the endpoint with the smaller event-function magnitude
    return ta if abs(ra) <= abs(rb) else tb


class EventMonitor:
    """Tracks event-function signs and masking during one hybrid run.

    After an event fires, its function is masked until the trajectory has
    moved a finite distance off the event surface; otherwise the restart at
    t_eve would re-trigger on the same root.  With a departure side (the
    sign of dr/dt just after the event) the function must clear that
    distance on that side; clearing it on the other side means the
    trajectory came back through the surface without a detectable crossing.
    """

    def __init__(self, n_events: int):
        self.masked = [False] * n_events
        self.depart_tol = [0.0] * n_events
        self.side = [0.0] * n_events

    def mask(self, index: int, depart_tol: float, side: float) -> None:
        """Mask event ``index``; ``side`` is +1 or -1, or 0 for no side."""
        self.masked[index] = True
        self.depart_tol[index] = depart_tol
        self.side[index] = side

    def update(self, values: Sequence[float]) -> None:
        for i, val in enumerate(values):
            if self.masked[i] and abs(val) > self.depart_tol[i]:
                if self.side[i] * val < 0.0:
                    raise EventAccumulationError(
                        f"event function {i} = {val:.3g} left its surface on the side "
                        f"opposite to its departure: event accumulation (Zeno) is not "
                        f"supported"
                    )
                self.masked[i] = False


_INTERIOR_CHECKS = 4  # dense-output samples per step scanned for sign changes


def integrate_segment(rhs, y0, t_span, config: IntegratorConfig,
                      event_fns: Sequence[Callable[[float, np.ndarray], float]] = (),
                      monitor: EventMonitor | None = None,
                      multipliers: Callable[[float, np.ndarray], np.ndarray] | None = None):
    """Integrate y' = rhs(t, y) over t_span, stopping at the first event root.

    event_fns are scalar functions of (t, y); the segment ends either at
    t_span[1] or at the first localized sign change of an unmasked event
    function.  Returns (DenseSegment, (t_end, y_end), EventHit | None).

    Crossings are detected on accepted steps, with interior dense-output
    samples scanned as well so that a fast double crossing inside one step
    is not silently skipped.  Two events localized within the event time
    tolerance of each other are reported as an error: there is no defined
    ordering for simultaneous events.

    ``multipliers(t, y)``, if given, is called right after every evaluation
    of rhs; the rows of the accepted stages become the segment's
    ``multipliers``.  The solver evaluates f(t0, y0) first (stage 0 of the
    first step), may probe once more for its initial step, and spends
    n_stages evaluations per attempt, so the last n_stages rows after a
    step are stages 1..6 of the accepted attempt; stage 0 of every later
    step is the previous step's stage 6 (FSAL).
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise IntegrationError(f"non-finite initial state at t={t0}")
    if tf == t0:
        raise IntegrationError("empty integration span")
    forward = tf > t0
    if monitor is None:
        monitor = EventMonitor(len(event_fns))

    kwargs = dict(rtol=config.rtol, atol=config.atol, max_step=config.hmax)
    if config.h0 is not None:
        kwargs["first_step"] = config.h0
    fun, mu_rows, evaluated = rhs, None, []  # evaluated: rows since the last step
    if multipliers is not None:
        def fun(t, y):
            f = rhs(t, y)
            evaluated.append(multipliers(t, y))
            return f
    solver = RK45(fun, t0, y0, tf, **kwargs)
    if multipliers is not None:
        mu_rows = evaluated[:1]

    node_times = [t0]
    node_states = [y0.copy()]
    stages: list = []
    hs: list = []
    vals_old = [fn(t0, y0) for fn in event_fns]
    monitor.update(vals_old)
    t_tol = max(config.event_tol, 1e-10 * abs(tf - t0))

    while solver.status == "running":
        if len(stages) >= config.max_steps:
            raise IntegrationError(
                f"max_steps={config.max_steps} exceeded at t={solver.t:.6g}"
            )
        msg = solver.step()
        if solver.status == "failed":
            near = [i for i, v in enumerate(vals_old)
                    if np.isfinite(v) and abs(v) < 1e-6 * max(1.0, float(np.abs(y0).max()))]
            if near:
                raise GrazingError(
                    f"step underflow at t={solver.t:.6g} with event function(s) "
                    f"{near} near zero: grazing not supported"
                )
            raise IntegrationError(f"integration failed at t={solver.t:.6g}: {msg}")

        t_old, y_old = node_times[-1], node_states[-1]
        h, K = solver.h_previous, solver.K.copy()
        stages.append(K)
        hs.append(h)
        if mu_rows is not None:
            mu_rows += evaluated[-solver.n_stages:]
            evaluated.clear()
        t_new, y_new = solver.t, solver.y.copy()

        def dense(s):
            return _rk_dense(t_old, y_old, h, K, s)

        hit = None
        if event_fns:
            # sample times within the step: interior checkpoints + endpoint
            taus = np.linspace(t_old, t_new, _INTERIOR_CHECKS + 2)[1:]
            candidates = []
            for i, fn in enumerate(event_fns):
                if monitor.masked[i]:
                    continue
                va = vals_old[i]
                ta = t_old
                for tau in taus:
                    ytau = y_new if tau == t_new else dense(tau)
                    vb = fn(tau, ytau)
                    if va == 0.0 or (va < 0) != (vb < 0):
                        root = _refine_root(
                            lambda s, fn=fn: fn(s, dense(s)),
                            ta, va, tau, vb, t_tol)
                        candidates.append((root, i))
                        break
                    ta, va = tau, vb
            if candidates:
                candidates.sort()
                if len(candidates) > 1 and abs(candidates[1][0] - candidates[0][0]) <= t_tol:
                    raise SimultaneousEventError(
                        f"events {candidates[0][1]} and {candidates[1][1]} fire within "
                        f"{t_tol:.3g} of each other at t={candidates[0][0]:.6g}"
                    )
                root, idx = candidates[0]
                y_eve = dense(root)
                r_res = event_fns[idx](root, y_eve)
                hit = EventHit(index=idx, t=root, y=y_eve, r_residual=float(r_res))

        if hit is not None:
            node_times.append(hit.t)
            node_states.append(hit.y.copy())
            seg = DenseSegment(t0, hit.t, np.asarray(node_times), np.asarray(node_states),
                               stages, np.asarray(hs), truncated=True, forward=forward,
                               multipliers=mu_rows)
            return seg, (hit.t, hit.y.copy()), hit

        node_times.append(t_new)
        node_states.append(y_new)
        vals_new = [fn(t_new, y_new) for fn in event_fns]
        monitor.update(vals_new)
        vals_old = vals_new

    seg = DenseSegment(t0, node_times[-1], np.asarray(node_times), np.asarray(node_states),
                       stages, np.asarray(hs), forward=forward,
                       multipliers=mu_rows)
    return seg, (node_times[-1], node_states[-1].copy()), None
