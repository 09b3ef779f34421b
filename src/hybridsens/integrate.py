"""Smooth-segment integration with dense output and event localization.

Stepping is the embedded Dormand-Prince Runge-Kutta 4(5) pair (non-stiff
dynamics between events), ``RK45`` below: a port of scipy's stepper of the
same name that keeps its arithmetic order, so every step is bitwise what
scipy's would be, without importing ``scipy.integrate``.  Each accepted
step keeps its stage derivatives, which give both the continuous extension
(what the event root-finder and the state queries interpolate) and the
stage states the discrete tangent and adjoint of the step are evaluated at
(``DenseSegment.step_stages``).  Everything event-related is implemented
here: sign-change detection on the dense output, bracketed bisection
refined by secant steps, masking of the event function that just fired,
and the guards that turn grazing or simultaneous crossings into explicit
errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class IntegrationError(RuntimeError):
    pass


class GrazingError(IntegrationError):
    """The trajectory touched an event surface without crossing it."""


class SimultaneousEventError(IntegrationError):
    """Two event functions crossed zero within the event time tolerance."""


class EventAccumulationError(IntegrationError):
    """An event function returned across its surface before leaving it on
    the departure side: events accumulate (Zeno behaviour)."""


class InadmissibleStartError(RuntimeError):
    """A run started on the side of an event surface that its event
    function does not admit, as a mass below its floor or outside its
    tether: the events that bound the model would never fire."""


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


EPS = np.finfo(float).eps
SAFETY = 0.9  # multiplies the step the asymptotic error behaviour asks for
MIN_FACTOR = 0.2  # largest decrease of the step size per rejection
MAX_FACTOR = 10  # largest increase of the step size per accepted step


def _rms(x):
    """RMS norm of a 1-D float array: bitwise ``np.linalg.norm(x) /
    x.size ** 0.5``, an np.float64, whose 1-D path is the square root of
    ``x.dot(x)`` (both roots are IEEE correctly rounded), without that
    function's wrapper cost."""
    return np.float64(math.sqrt(x.dot(x)) / x.size ** 0.5)


def _rk_step(fun, t, y, f, h, A, B, C, K):
    """One explicit Runge-Kutta step from (t, y) with f = fun(t, y): fills
    the stage rows of K, the derivative at the step end in its last row,
    and returns (y_new, f_new)."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)

    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)

    K[-1] = f_new

    return y_new, f_new


class RK45:
    """Explicit Runge-Kutta 5(4) pair of Dormand and Prince with adaptive
    steps (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer,
    Norsett & Wanner, Solving ODEs I, Sec. II.4) and Shampine's quartic
    continuous extension (``P``).

    A port of scipy's ``RK45`` (scipy 1.17, ``scipy/integrate/_ivp/rk.py``,
    ``common.py`` and ``base.py``; BSD-3-Clause licence, "Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers").  The tableau, the
    initial-step heuristic, the error norm and the step control do their
    arithmetic in scipy's order, so every step, stage and status is bitwise
    scipy's.  It takes real non-empty 1-D states and scalar tolerances; it
    has no dense-output object (``_rk_dense`` evaluates the extension) and
    no ``t_old``.  Where scipy refuses a ``first_step`` longer than the
    span, this class starts with the whole span, as its own initial-step
    choice would.

    Like ``OdeSolver.step``, ``step()`` advances one accepted step (or
    fails) and moves ``status`` from "running" to "finished" or "failed".
    ``nfev`` counts the right-hand-side evaluations: one at (t0, y0), one
    probe for the initial step unless ``first_step`` is given, and
    ``n_stages`` per step attempt (the derivative at a step's end is the
    next step's first stage).
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    error_estimator_order = 4
    n_stages = 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
    # Corresponds to the optimum value of c_6 in Shampine (Math. Comp. 46, 1986).
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

    def __init__(self, fun, t0, y0, t_bound, max_step=np.inf,
                 rtol=1e-3, atol=1e-6, first_step=None):
        self.t = t0
        self._fun = fun
        self.y = np.asarray(y0).astype(float, copy=False)
        self.t_bound = t_bound
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.status = "running"
        self.nfev = 0
        self.max_step = max_step
        if rtol < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=2)
            rtol = np.maximum(rtol, 100 * EPS)
        self.rtol, self.atol = rtol, np.asarray(atol)
        self.f = self.fun(self.t, self.y)
        if first_step is None:
            self.h_abs = self._select_initial_step()
        else:
            self.h_abs = min(first_step, abs(t_bound - t0))
        self.K = np.empty((self.n_stages + 1, self.y.size), dtype=self.y.dtype)
        self.error_exponent = -1 / (self.error_estimator_order + 1)
        self.h_previous = None

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=float)

    def _select_initial_step(self):
        """Hairer, Norsett & Wanner's empirical first step (Sec. II.4),
        capped at the span and at max_step; costs one evaluation."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0

        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        # the probe may not step past t_bound
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * direction * f0
        f1 = self.fun(t0 + h0 * direction, y1)
        d2 = _rms((f1 - f0) / scale) / h0

        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self.error_estimator_order + 1))

        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self):
        """Take one accepted step; returns None or the failure message."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished "
                               "solver.")
        if self.t == self.t_bound:
            self.t = self.t_bound
            message = None
            self.status = "finished"
        else:
            success, message = self._step_impl()
            if not success:
                self.status = "failed"
            elif self.direction * (self.t - self.t_bound) >= 0:
                self.status = "finished"
        return message

    def _estimate_error_norm(self, K, h, scale):
        return _rms(np.dot(K.T, self.E) * h / scale)

    def _step_impl(self):
        t = self.t
        y = self.y

        max_step = self.max_step
        rtol = self.rtol
        atol = self.atol

        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)

        if self.h_abs > max_step:
            h_abs = max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = False
        step_rejected = False

        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            h = h_abs * self.direction
            t_new = t + h

            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound

            h = t_new - t
            h_abs = np.abs(h)

            y_new, f_new = _rk_step(self.fun, t, y, self.f, h, self.A,
                                    self.B, self.C, self.K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = self._estimate_error_norm(self.K, h, scale)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)

                if step_rejected:
                    factor = min(1, factor)

                h_abs *= factor

                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

        self.h_previous = h

        self.t = t_new
        self.y = y_new

        self.h_abs = h_abs
        self.f = f_new

        return True, None


# Dormand-Prince stage coefficients, with a seventh row for the
# derivative at the step end (formed from the full-step weights B): the
# continuous extension weighs it, the full step does not.
RK_A = np.zeros((7, 7))
RK_A[:6, :5] = RK45.A
RK_A[6, :6] = RK45.B
RK_C = np.append(RK45.C, 1.0)


def _rk_dense(t_old, y_old, h, Q, t) -> np.ndarray:
    """Continuous extension y_old + h Q [x, x^2, x^3, x^4] inside one step,
    x = (t - t_old) / h, with Q = K^T P from the step's stages K: bitwise
    scipy's RkDenseOutput, whose powers np.cumprod forms by the same
    sequential products."""
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    y = h * np.dot(Q, np.array([x, x2, x3, x3 * x]))
    y += y_old
    return y


@dataclass
class DenseSegment:
    """Accepted Runge-Kutta steps of one smooth segment.

    Time runs forward.  Step k runs from node k with length ``steps[k]``
    (the stepper's ``h_previous``) and stage derivatives ``stages[k]`` (a
    copy of its ``K``: six stages plus the derivative at the step end).  A
    hybrid run also records ``multipliers``, the (6 * len(steps) + 1, m)
    multipliers of the dynamics' saddle solve at every stage: row 6k + i is
    stage i of step k, so row 6k is also stage 6 of step k - 1.  Inside a step
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
    multipliers: np.ndarray | None = None

    _BOUNDARY_SLACK = 1e-12

    def __post_init__(self):
        if self.multipliers is not None:
            self.multipliers = np.array(self.multipliers, dtype=float)
            self.multipliers.flags.writeable = False

    def __len__(self) -> int:
        return len(self.stages)

    def evaluate(self, t: float) -> np.ndarray:
        lo, hi = self.t_start, self.t_end
        span = max(hi - lo, 1.0)
        if t < lo - self._BOUNDARY_SLACK * span or t > hi + self._BOUNDARY_SLACK * span:
            raise IntegrationError(f"t={t!r} outside segment [{lo!r}, {hi!r}]")
        t = min(max(t, lo), hi)
        k = np.searchsorted(self.node_times, t)
        if k < len(self.node_times) and self.node_times[k] == t:
            return self.node_states[k].copy()
        k = min(max(k - 1, 0), len(self.stages) - 1)
        return _rk_dense(self.node_times[k], self.node_states[k], self.steps[k],
                         self.stages[k].T.dot(RK45.P), t)

    def step_stages(self, k: int, n: int):
        """(h, w, times, states, vdot, mu) of step k, for the discrete
        tangent and adjoint sweeps over a state [q (n); v (n); ...].

        w weighs the stages in the step's end node: B on six for a full
        step, P [x, x^2, x^3, x^4] on all seven for the last step of a
        segment cut at an event (reached by the continuous extension).  The
        seven stage states Y_i = y_k + h sum_{j<i} a_ij K_j are the states
        the forward step evaluated: stage 0 is node k and, on a full step,
        stage 6 is node k + 1, both read as stored; stages 1..5, and stage 6
        of a truncated step, are rebuilt in the forward step's arithmetic.
        The stage times are rebuilt likewise.  Their accelerations (v block
        of K) and multipliers (rows 6k..6k+6 of ``multipliers``) are
        bitwise what the dynamics returned there."""
        t_old, y_old = self.node_times[k], self.node_states[k]
        h, K = self.steps[k], self.stages[k]
        states = [y_old]
        states += [y_old + np.dot(K[:i].T, RK_A[i, :i]) * h for i in range(1, RK45.n_stages)]
        if self.truncated and k == len(self) - 1:
            x = (self.node_times[k + 1] - t_old) / h
            w = RK45.P @ np.cumprod(np.tile(x, RK45.P.shape[1]))
            states.append(y_old + h * np.dot(K[:-1].T, RK45.B))
        else:
            w = RK45.B
            states.append(self.node_states[k + 1])
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

    ``admissible`` gives per function the sign (+1 or -1) it must have
    where the run starts, or 0 for either side: the first values the
    monitor takes, those at the run's start, are checked against it.
    """

    def __init__(self, n_events: int, admissible: Sequence[float] = ()):
        self.masked = [False] * n_events
        self.depart_tol = [0.0] * n_events
        self.side = [0.0] * n_events
        self.admissible = tuple(admissible)
        self.started = False

    def mask(self, index: int, depart_tol: float, side: float) -> None:
        """Mask event ``index``; ``side`` is +1 or -1, or 0 for no side."""
        self.masked[index] = True
        self.depart_tol[index] = depart_tol
        self.side[index] = side

    def update(self, values: Sequence[float]) -> None:
        if not self.started:
            self.started = True
            for i, (val, sign) in enumerate(zip(values, self.admissible)):
                if sign * val < 0.0:
                    raise InadmissibleStartError(
                        f"event function {i} = {val:.3g} at the start of the run, where "
                        f"its sign must be {sign:+g}: the run starts on the wrong side "
                        f"of the event surface"
                    )
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


def _sample_times(t_old, t_new) -> list:
    """The scan's sample times in a step, the interior checkpoints and the
    end: ``np.linspace(t_old, t_new, _INTERIOR_CHECKS + 2)[1:]`` bitwise,
    by numpy's own formula (i step + t_old, with (i / div) delta + t_old
    when the step underflows to zero, and the end exactly), as floats."""
    div = _INTERIOR_CHECKS + 1
    delta = t_new - t_old
    step = delta / div
    if step == 0.0:
        return [i / div * delta + t_old for i in range(1, div)] + [t_new]
    return [i * step + t_old for i in range(1, div)] + [t_new]


def integrate_segment(rhs, y0, t_span, config: IntegratorConfig,
                      event_fns: Sequence[Callable[[float, np.ndarray], float]] = (),
                      monitor: EventMonitor | None = None,
                      multipliers: Callable[[float, np.ndarray], np.ndarray] | None = None,
                      start: tuple | None = None):
    """Integrate y' = rhs(t, y) forward over t_span, stopping at the first
    event root; a span with t_span[1] <= t_span[0] is refused.

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

    ``start = (f, mu)``, if given, is f(t0, y0) with its multipliers row,
    as a caller that has evaluated them hands them in (a hybrid run at the
    post-event state): the solver's first evaluation takes them instead of
    calling rhs and ``multipliers``, and is checked and counted as any.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise IntegrationError(f"non-finite initial state at t={t0}")
    if not tf > t0:
        raise IntegrationError("empty or reversed integration span")
    if monitor is None:
        monitor = EventMonitor(len(event_fns))

    kwargs = dict(rtol=config.rtol, atol=config.atol, max_step=config.hmax)
    if config.h0 is not None:
        kwargs["first_step"] = config.h0
    mu_rows, evaluated, first = None, [], True  # evaluated: rows since the last step

    def fun(t, y):
        nonlocal first, start
        if start is None:
            f = rhs(t, y)
            mu = None if multipliers is None else multipliers(t, y)
        else:
            (f, mu), start = start, None
        if first:
            # f(t0, y0), refused before the stepper probes a step with it: its step
            # loop never ends on a non-finite derivative
            if not np.isfinite(f).all():
                raise IntegrationError(f"non-finite right-hand side at t={t0}")
            first = False
        if multipliers is not None:
            evaluated.append(mu)
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
    t_tol = max(config.event_tol, 1e-10 * (tf - t0))

    hit = None
    while hit is None and solver.status == "running":
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

        Q = K.T.dot(RK45.P)

        def dense(s):
            return _rk_dense(t_old, y_old, h, Q, s)

        # every function at the step end, once: the scan reads them there and
        # the monitor takes them after a step without an event
        vals_new = [fn(t_new, y_new) for fn in event_fns]
        # sample times within the step: interior checkpoints + endpoint
        taus = _sample_times(t_old, t_new)
        candidates = []
        for i, fn in enumerate(event_fns):
            if monitor.masked[i]:
                continue
            va = vals_old[i]
            ta = t_old
            for tau in taus:
                vb = vals_new[i] if tau == t_new else fn(tau, dense(tau))
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
            hit = EventHit(index=idx, t=root, y=y_eve,
                           r_residual=float(event_fns[idx](root, y_eve)))
            t_new, y_new = root, y_eve.copy()
        else:
            monitor.update(vals_new)
            vals_old = vals_new
        node_times.append(t_new)
        node_states.append(y_new)

    seg = DenseSegment(t0, node_times[-1], np.asarray(node_times), np.asarray(node_states),
                       stages, np.asarray(hs), truncated=hit is not None,
                       multipliers=mu_rows)
    return seg, (node_times[-1], node_states[-1].copy()), hit
