"""Smooth-segment integration with dense output and event localization.

Stepping is the embedded Dormand-Prince Runge-Kutta 4(5) pair (non-stiff
dynamics between events), ``RK45`` below: a port of scipy's stepper of the
same name that keeps its arithmetic order, so every step is bitwise what
scipy's would be, without importing ``scipy.integrate``.  Each accepted
step keeps the time, the leading state components and the derivative of
each stage it evaluated: the derivatives give the continuous extension
(what the event root-finder and the state queries interpolate), and all
of them the stages at which ``DenseSegment.tangent_step`` and
``adjoint_step`` differentiate and transpose the step on the stage right
sides the sweeps hand in; no other module reads the tableau or the record
layout.  Everything event-related is implemented here: sign-change
detection on the dense output, bracketed root refinement (Illinois regula
falsi with bisection safeguards and a closing secant step), masking of the
event function that just fired, and the guards that turn grazing or
simultaneous crossings into explicit errors.
"""

from __future__ import annotations

import math
import numbers
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
    """Tolerances and limits of an integration run, ``max_steps`` per segment.

    ``event_tol`` is the absolute tolerance on the localized event time,
    whatever the segment's span: the root's bracket closes to it, and two
    events within it of each other are simultaneous.
    Defaults are chosen to comfortably beat the residual levels the target
    problems require; halving them must reduce terminal error (tested).
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    event_tol: float = 1e-9
    max_steps: int = 1_000_000

    def __post_init__(self):
        # comparisons with NaN are false, so each test is written to fail on it
        if not all(np.isfinite(x) and x > 0 for x in (self.rtol, self.atol, self.event_tol)):
            raise ValueError("rtol, atol and event_tol must be finite and positive")
        if not (isinstance(self.max_steps, numbers.Integral)
                and not isinstance(self.max_steps, bool) and self.max_steps >= 1):
            raise ValueError("max_steps must be an integer of at least 1")


EPS = np.finfo(float).eps
RTOL_FLOOR = 100 * EPS  # scipy's smallest rtol; a smaller one is raised to it
RTOL_FLOOR_WARNING = ("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {RTOL_FLOOR})`.")
SAFETY = 0.9  # multiplies the step the asymptotic error behaviour asks for
MIN_FACTOR = 0.2  # largest decrease of the step size per rejection
MAX_FACTOR = 10  # largest increase of the step size per accepted step


def _rms(x):
    """RMS norm of a 1-D float array: bitwise ``np.linalg.norm(x) /
    x.size ** 0.5``, an np.float64, whose 1-D path is the square root of
    ``x.dot(x)`` (both roots are IEEE correctly rounded), without that
    function's wrapper cost."""
    return np.float64(math.sqrt(x.dot(x)) / x.size ** 0.5)


def _rk_step(fun, t, y, f, h, K):
    """One explicit Runge-Kutta step from (t, y) with f = fun(t, y): fills
    the stage rows of K, the derivative at the step end in its last row,
    and returns (y_new, f_new)."""
    K[0] = f
    for s, a, c in _RK_STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t + c * h, y + dy)

    y_new = y + h * np.dot(K[:-1].T, RK45.B)
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
    scipy's.  It is the subset of scipy's stepper that the package uses:
    it steps forward only (``t_bound > t0``), from its own initial-step
    choice or a given ``first_step`` and with no cap on the step, and it
    takes real non-empty 1-D states and scalar tolerances; it has no
    dense-output object (``_rk_dense`` evaluates the extension) and no
    ``t_old``.  Nothing in the package steps backward: the adjoint
    transposes the forward steps as taken, and ``AdjointSolution.lam_at``
    integrates forward in the reversed time s = -t.

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

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6, first_step=None):
        self.t = t0
        self._fun = fun
        self.y = np.asarray(y0).astype(float, copy=False)
        self.t_bound = t_bound
        self.status = "running"
        self.nfev = 0
        if rtol < RTOL_FLOOR:
            warnings.warn(RTOL_FLOOR_WARNING, stacklevel=2)
            rtol = np.maximum(rtol, RTOL_FLOOR)
        self.rtol, self.atol = rtol, np.asarray(atol)
        self.f = self.fun(self.t, self.y)
        if first_step is None:
            self.h_abs = self._select_initial_step()
        elif first_step <= 0:
            raise ValueError("`first_step` must be positive.")
        elif first_step > np.abs(t_bound - t0):
            raise ValueError("`first_step` exceeds bounds.")
        else:
            self.h_abs = first_step
        self.K = np.empty((self.n_stages + 1, self.y.size), dtype=self.y.dtype)
        self.error_exponent = -1 / (self.error_estimator_order + 1)
        self.h_previous = None

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=float)

    def _select_initial_step(self):
        """Hairer, Norsett & Wanner's empirical first step (Sec. II.4),
        capped at the span; costs one evaluation."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = self.t_bound - t0

        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        # the probe may not step past t_bound
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * f0
        f1 = self.fun(t0 + h0, y1)
        d2 = _rms((f1 - f0) / scale) / h0

        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self.error_estimator_order + 1))

        return min(100 * h0, h1, interval_length)

    def step(self):
        """Take one accepted step; returns None or the failure message."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished "
                               "solver.")
        success, message = self._step_impl()
        if not success:
            self.status = "failed"
        elif self.t - self.t_bound >= 0:
            self.status = "finished"
        return message

    def _estimate_error_norm(self, K, h, scale):
        return _rms(np.dot(K.T, self.E) * h / scale)

    def _step_impl(self):
        t = self.t
        y = self.y

        rtol = self.rtol
        atol = self.atol

        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)

        if self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = False
        step_rejected = False

        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            # an np.float64, as scipy's h_abs * direction is, also where h_abs
            # is still the initial-step choice's Python float
            h = np.float64(h_abs)
            t_new = t + h

            if t_new - self.t_bound > 0:
                t_new = self.t_bound

            h = t_new - t
            h_abs = np.abs(h)

            y_new, f_new = _rk_step(self.fun, t, y, self.f, h, self.K)
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
# (stage, its row of A up to the diagonal, c) for stages 1..5, the slices
# scipy's rk_step takes at every stage
_RK_STAGES = tuple((s, RK45.A[s, :s], RK45.C[s]) for s in range(1, RK45.n_stages))


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class DenseSegment:
    """Accepted Runge-Kutta steps of one smooth segment.

    Time runs forward.  Step k runs from node k with length ``steps[k]``
    (the stepper's ``h_previous``); the span is that of ``node_times``, in
    which ``locate`` finds a time.  ``stages`` is the stage record, the
    stepper's stage derivatives ``K`` as one (6 * len(steps) + 1, dim)
    array: row 6k + i is stage i of step k, so row 6k + 6 is both the
    derivative at the end of step k and stage 0 of step k + 1 (FSAL), and
    step k's seven rows are the view ``stages[6k:6k + 7]``.  A forward run
    also records, in the same layout, the time each stage was evaluated at
    (``stage_times``), the leading components of its state
    (``stage_states``: the positions q of a hybrid run, whose velocities
    are the leading rows of ``stages``, else the whole state) and, for a
    hybrid run, the multipliers of the dynamics' saddle solve there
    (``multipliers``).  The nodes and every record are read-only.  Inside
    a step the continuous extension is evaluated bitwise as scipy's dense
    output; at a stored node the stored state is returned verbatim.
    ``truncated`` marks a segment whose last node is an event root inside
    its last step, reached by the continuous extension rather than by the
    full step.
    """

    node_times: np.ndarray
    node_states: np.ndarray  # shape (len(node_times), dim)
    stages: np.ndarray  # shape (6 * len(steps) + 1, dim)
    steps: np.ndarray
    truncated: bool = False
    multipliers: np.ndarray | None = None
    stage_times: np.ndarray | None = None
    stage_states: np.ndarray | None = None

    _BOUNDARY_SLACK = 1e-12

    def __post_init__(self):
        for name in ("node_times", "node_states", "stages", "multipliers", "stage_times",
                     "stage_states"):
            if getattr(self, name) is not None:
                setattr(self, name, _read_only(np.asarray(getattr(self, name), dtype=float)))

    def __len__(self) -> int:
        return len(self.steps)

    def locate(self, t) -> tuple:
        """(k, on_node, t): t clamped to the span, and the node k it sits on
        (on_node) or else the step k whose interior holds it; for a 1-D
        array of times, the three as arrays, an entry per time, found by
        one ``np.searchsorted``.  A t outside the span by more than a
        relative 1e-12, or NaN, raises an IntegrationError."""
        times = np.asarray(t, dtype=float)
        lo, hi = self.node_times[0], self.node_times[-1]
        slack = self._BOUNDARY_SLACK * max(hi - lo, 1.0)
        inside = (lo - slack <= times) & (times <= hi + slack)
        if not inside.all():
            bad = float(np.extract(~inside, times)[0])
            raise IntegrationError(f"t={bad!r} outside segment [{lo!r}, {hi!r}]")
        times = np.minimum(np.maximum(times, lo), hi)
        k = np.searchsorted(self.node_times, times)
        on_node = self.node_times[k] == times
        k = k - ~on_node
        if times.ndim:
            return k, on_node, times
        return int(k), bool(on_node), float(times)

    def step_rows(self, k: int) -> slice:
        """The slice of step k's seven rows in the records, 6k to 6k + 6."""
        return slice(6 * k, 6 * k + 7)

    def extension(self, k: int, x_k: np.ndarray, K: np.ndarray, t: float) -> np.ndarray:
        """The continuous extension at t inside step k of any quantity swept
        over the steps, from x_k at node k and its seven stage rows K."""
        return _rk_dense(self.node_times[k], x_k, self.steps[k], K.T.dot(RK45.P), t)

    def evaluate(self, t) -> np.ndarray:
        """The state at t, or one row per time of a 1-D array of times,
        each t found by ``locate``: a time on a node reads the stored state
        verbatim, one inside step k the continuous extension, bitwise
        scipy's dense output there (``_rk_dense``).  The times are located
        at once, and step k's coefficients Q = K^T P are formed once for
        all the times inside it.  Each time keeps its own product of Q with
        [x, x^2, x^3, x^4]: one matrix product per step could sum in
        another order.  The powers and h (...) + y_k are taken elementwise
        across the times, the operations ``_rk_dense`` does for one."""
        times = np.asarray(t, dtype=float)
        k, on_node, s = self.locate(times.reshape(-1))
        rows = self.node_states[k]
        inner = np.flatnonzero(~on_node)
        if inner.size:
            k, s = k[inner], s[inner]
            h = self.steps[k]
            x = (s - self.node_times[k]) / h
            x2 = x * x
            x3 = x2 * x
            powers = np.column_stack([x, x2, x3, x3 * x])
            poly = np.empty((inner.size, rows.shape[1]))
            coefficients = {}
            for i, step in enumerate(k.tolist()):
                Q = coefficients.get(step)
                if Q is None:
                    Q = coefficients[step] = self.stages[self.step_rows(step)].T.dot(RK45.P)
                poly[i] = np.dot(Q, powers[i])
            rows[inner] = h[:, None] * poly + rows[inner]
        return rows.reshape(times.shape + rows.shape[1:])

    def step_stages(self, k: int, n: int):
        """(h, w, times, q, v, vdot, mu) of step k, for the discrete
        tangent and adjoint sweeps over a state [q (n); v (n); ...]: step
        k's seven rows of the records as stored, the times, positions
        (``stage_states``), velocities and accelerations (the q and v
        blocks of ``stages``) and multipliers the forward step evaluated.
        w weighs the stages in the step's end node: B on six for a full
        step, P [x, x^2, x^3, x^4] on all seven for the last step of a
        segment cut at an event (reached by the continuous extension)."""
        rows, w = self.step_rows(k), RK45.B
        if self.truncated and k == len(self) - 1:
            x = (self.node_times[k + 1] - self.node_times[k]) / self.steps[k]
            w = RK45.P @ np.cumprod(np.tile(x, RK45.P.shape[1]))
        return (self.steps[k], w, self.stage_times[rows], self.stage_states[rows, :n],
                self.stages[rows, :n], self.stages[rows, n:2 * n], self.multipliers[rows])

    def tangent_step(self, k: int, n: int, X: np.ndarray, stage_rhs, KX0=None) -> tuple:
        """Tangent at node k + 1 from the tangent X at node k: the derivative
        of step k at its fixed step size,

            X_i = X + h sum_{j<i} a_ij KX_j,
            KX_i = stage_rhs(t_i, q_i, v_i, X_i, vdot_i, mu_i),
            X_k+1 = X + h sum_i w_i KX_i,

        on the forward step's stage times, positions, velocities,
        accelerations and multipliers (``step_stages``), so nothing is
        solved or rebuilt.
        Returns X_k+1 and all seven stages KX, the tangent's continuous
        extension (``extension``).  Stage 6 sits at the full step's end, so
        it is the next step's stage 0 (``KX0``), as in the forward step;
        without it stage 0 is evaluated at that stage's time and state, to
        the same bytes.
        """
        h, w, times, q, v, vdot, mu = self.step_stages(k, n)
        KX = np.empty((len(times), X.size))
        if KX0 is not None:
            KX[0] = KX0
        for i in range(KX0 is not None, len(times)):
            X_i = X + np.dot(KX[:i].T, RK_A[i, :i]) * h
            KX[i] = stage_rhs(times[i], q[i], v[i], X_i, vdot[i], mu[i])
        return X + np.dot(KX[:len(w)].T, w) * h, KX

    def adjoint_step(self, k: int, n: int, lam: np.ndarray, stage_rhs) -> np.ndarray:
        """Adjoint at node k from the adjoint ``lam`` at node k + 1: the
        transpose of step k,

            theta_i = h w_i lam + h sum_{j>i} a_ji mu_j
            mu_i    = J(Y_i)^T theta_i + h w_i g_y(Y_i)^T
            lam_k   = lam + sum_i mu_i

        (the rho block accumulating f_rho^T theta_i + h w_i g_rho^T), where
        mu_i = stage_rhs(t_i, q_i, v_i, theta_i, vdot_i, saddle_i, h w_i),
        the reversed-time derivative, taken as returned, at the stage state
        Y_i = [q_i; v_i; ...].  The stage times, positions, velocities,
        accelerations and saddle multipliers are step k's rows of the
        records (``step_stages``), bitwise what the forward step evaluated.
        A full step has the weights w = B on six stages; the last step of a
        segment cut at an event reaches its end node through the continuous
        extension, with w = P [x, x^2, x^3, x^4] on all seven.
        """
        h, w, times, q, v, vdot, saddle = self.step_stages(k, n)
        s = len(w)
        mu = np.zeros((s, lam.size))
        for i in range(s - 1, -1, -1):
            theta = h * (w[i] * lam + RK_A[i + 1:s, i] @ mu[i + 1:s])
            mu[i] = stage_rhs(times[i], q[i], v[i], theta, vdot[i], saddle[i], h * w[i])
        return lam + mu.sum(axis=0)


@dataclass
class EventHit:
    index: int
    t: float
    r_residual: float


def _refine_root(rfun: Callable[[float], float], ta: float, ra: float,
                 tb: float, rb: float, t_tol: float) -> tuple:
    """Bracketed root of rfun on [ta, tb], ta < tb, with sign(ra) != sign(rb):
    (t, r), the root and rfun's value there, the value handed in where the
    root is an end of the bracket it was handed.

    Illinois-weighted regula falsi (Dowell and Jarratt, BIT 11, 1971): each
    end's value carries a weight, and when a trial moves the same end as
    the move before it, the weight of the end kept is halved, so the
    bracket closes from both ends where plain regula falsi on a convex r
    moves one end only.  The bracket comes from a forward scan, whose last
    move was ta's.  Whenever two trials leave more than half of the bracket
    the next is a bisection, so three evaluations at least halve it; an end
    a bisection moves keeps the weight the trials before built up (reset,
    a steep far end stalls regula falsi again).  A trial within t_tol / 2 of an end is moved to
    t_tol / 2 from it: once one end is at the root, the next trial closes
    the bracket.  Once the bracket is within t_tol, one secant step on its
    true end values puts the root at round-off: the evaluated point with
    the smallest |r| is returned.  A bracket of two adjacent floats, which
    no bisection can split (an event_tol below t's spacing), ends the
    refinement at once.
    """
    if ra == 0.0:
        return ta, ra
    if rb == 0.0:
        return tb, rb
    wa = wb = 1.0  # the Illinois weights of ra and rb
    moved = -1  # the end the last move moved: -1 for ta, +1 for tb
    width, trials = tb - ta, 0  # the bracket two trials ago, trials since
    for _ in range(200):
        if tb - ta <= t_tol:
            break
        fa, fb = wa * ra, wb * rb
        tm = ta - fa * (tb - ta) / (fb - fa)
        tm = min(max(tm, ta + 0.5 * t_tol), tb - 0.5 * t_tol)
        bisect = not ta < tm < tb  # an overflow, or t_tol / 2 below t's spacing
        if trials == 2:
            bisect = bisect or tb - ta > 0.5 * width
            width, trials = tb - ta, 0
        if bisect:
            tm = 0.5 * (ta + tb)
            if not ta < tm < tb:  # ta and tb are adjacent floats
                break
        rm = rfun(tm)
        trials += 1
        if rm == 0.0:
            return tm, rm
        if (ra < 0) == (rm < 0):
            ta, ra = tm, rm
            wa = wa if bisect else 1.0
            if moved < 0:
                wb *= 0.5
            moved = -1
        else:
            tb, rb = tm, rm
            wb = wb if bisect else 1.0
            if moved > 0:
                wa *= 0.5
            moved = 1
    t, r = (ta, ra) if abs(ra) <= abs(rb) else (tb, rb)
    ts = ta - ra * (tb - ta) / (rb - ra)
    if ta < ts < tb:
        rs = rfun(ts)
        if abs(rs) <= abs(r):
            return ts, rs
    return t, r


class EventMonitor:
    """Tracks event-function masking during one hybrid run.

    After an event fires, its function is masked, or the restart at t_eve
    would re-trigger on the same root.  With a departure side (the sign of
    dr/dt just after the event) a scan sample past the departure distance
    unmasks it on that side (``depart``); on the other, the trajectory came
    back through the surface undetected.  A mask without a side (a capture)
    holds for the rest of the run, and the function is not evaluated: the
    surface is the constraint manifold the post-event dynamics enforces,
    and only a release of that constraint, not yet modelled, could lift it.

    ``admissible`` gives per function the sign (+1 or -1) it must have
    where the run starts, or 0 for either side; ``check_start`` checks the
    run's first values against it.
    """

    def __init__(self, n_events: int, admissible: Sequence[float] = ()):
        self.masked = [False] * n_events
        self.depart_tol = [0.0] * n_events
        self.side = [0.0] * n_events
        self.admissible = tuple(admissible)

    def mask(self, index: int, depart_tol: float, side: float) -> None:
        """Mask event ``index``; ``side`` is +1 or -1, or 0 for no side."""
        self.masked[index] = True
        self.depart_tol[index] = depart_tol
        self.side[index] = side

    def check_start(self, values: dict) -> None:
        """Check the run's first values {index: value} against ``admissible``,
        strictly (0 and NaN are refused); later segments start on a surface and pass."""
        for i, val in values.items():
            sign = self.admissible[i] if self.admissible else 0.0
            if sign and not sign * val > 0.0:
                raise InadmissibleStartError(
                    f"event function {i} = {val:.3g} at the start of the run, where "
                    f"its sign must be {sign:+g}: the run starts on or past the surface "
                    f"(on it, or on its wrong side)"
                )
        self.admissible = ()

    def depart(self, index: int, val: float) -> None:
        """Unmask function ``index``, whose value ``val`` is past its
        departure tolerance; on the side opposite to its departure, raise an
        EventAccumulationError instead."""
        if self.side[index] * val < 0.0:
            raise EventAccumulationError(
                f"event function {index} = {val:.3g} left its surface on the side "
                f"opposite to its departure: event accumulation (Zeno) is not supported"
            )
        self.masked[index] = False


_INTERIOR_CHECKS = 4  # dense-output samples per step scanned for sign changes


def _event_value(i, fn, t, y):
    """fn(t, y), event function i's value; a non-finite one raises an
    IntegrationError, as the scan's sign tests would read a NaN as positive."""
    r = fn(t, y)
    if not math.isfinite(r):
        raise IntegrationError(f"event function {i} = {r} at t={float(t)!r}: not finite")
    return r


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


class _StageRecord:
    """One segment's stage records as its steps are accepted.  ``add``
    takes an accepted step's rows (t, y, f, mu), the evaluations' own
    arrays, and each ``_FLUSH_ROWS`` rows copies those held into one block
    per record, of y the leading ``width`` components (all for None), so
    that no evaluation's arrays outlive the few steps after it; ``stacked``
    joins each record's blocks once, when the segment ends (a segment of
    one block is not copied again).  mu is not recorded where the first
    row's is None."""

    # eight steps: a five-bar segment's record in a few blocks, and the
    # arrays of at most eight steps' evaluations held at once
    _FLUSH_ROWS = 8 * RK45.n_stages

    def __init__(self, first: tuple, width: int | None):
        self.width, self.has_mu = width, first[3] is not None
        self.rows, self.blocks = [first], []

    def add(self, rows: list) -> None:
        self.rows += rows
        if len(self.rows) >= self._FLUSH_ROWS:
            self._flush()

    def _flush(self) -> None:
        t, y, f, mu = zip(*self.rows)
        self.blocks.append((np.asarray(t, dtype=float),
                            np.asarray(y, dtype=float)[:, :self.width].copy(),
                            np.asarray(f, dtype=float),
                            np.asarray(mu, dtype=float) if self.has_mu else None))
        self.rows = []

    def stacked(self) -> tuple:
        """(times, states, stages, multipliers) as arrays, multipliers None
        where the first mu is."""
        if self.rows:
            self._flush()
        if len(self.blocks) == 1:
            return self.blocks[0]
        return tuple(None if b[0] is None else np.concatenate(b) for b in zip(*self.blocks))


def integrate_segment(rhs, y0, t_span, config: IntegratorConfig,
                      event_fns: Sequence[Callable[[float, np.ndarray], float]] = (),
                      monitor: EventMonitor | None = None,
                      start: tuple | None = None, first_step: float | None = None,
                      stage_width: int | None = None):
    """Integrate y' = f(t, y) forward over t_span, stopping at the first
    event root; a span with t_span[1] <= t_span[0] is refused.

    ``rhs(t, y)`` returns ``(f, mu)``: the stepper integrates f, and mu is
    the evaluation's multipliers row, or None for a caller with nothing to
    record.  A first evaluation whose f is not finite or not of y0's shape
    (a right side returning f alone) raises an IntegrationError.

    event_fns are scalar functions of (t, y); the segment ends either at
    t_span[1] or at the first localized sign change of an unmasked event
    function.  Returns (DenseSegment, EventHit | None); the segment's last
    node is its end, the event state (the continuous extension at the
    root) when there is a hit.  The hit's residual is the value the root
    refinement returns: its own evaluation at the root, or the scan's
    value where the root is a scan sample (at a step end, read at the
    stepper's state).  A non-finite event-function value raises an
    IntegrationError.

    Crossings are detected on accepted steps at four interior dense-output
    samples and the step's end.  A pair of crossings between two samples
    leaves both with one sign and is not seen: a flight that rises through
    a surface and falls back in less than a fifth of a step can pass it
    unreported.  A
    masked function with a departure side
    (``EventMonitor``) is checked at every sample, not only at step ends,
    so one step can hold the lift-off from its surface and the next
    crossing of it.  A function masked without a side is held: only a
    caller masks, between segments, so it is never evaluated in the
    segment and stays masked.  Two events localized within the event time
    tolerance of each other are reported as an error: there is no defined
    ordering for simultaneous events.

    The segment's records (``stage_times``, ``stage_states``, ``stages``
    and ``multipliers``, None where mu is) hold the (t, y[:stage_width],
    f, mu) of the evaluation at (t0, y0), then of each accepted step's
    last n_stages evaluations (stages 1..6 of the accepted attempt),
    copied in every eight accepted steps (``_StageRecord``); those of the
    initial-step probe and of rejected attempts are never kept.  ``stage_width``, if given, is
    how many leading state components a stage keeps (a hybrid run keeps
    its positions, whose velocities are the leading rows of f); by default
    the whole state.  The states ``rhs`` is handed, and so the node states
    and the states the scan hands the event functions at the nodes, are
    read-only.

    ``first_step``, if given, is the solver's first step
    (``RK45(first_step=...)``), as a hybrid run restarts after an event
    with the step the event cut short: a warm start skips the initial-step
    probe, so each post-event segment costs one evaluation fewer.

    ``start``, if given, is rhs(t0, y0), as a caller that has evaluated it
    hands it in (a hybrid run at the post-event state): the solver's first
    evaluation takes it instead of calling rhs, checked and counted as any.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    y0 = _read_only(np.array(y0, dtype=float))
    if not np.isfinite(y0).all():
        raise IntegrationError(f"non-finite initial state at t={t0}")
    if not tf > t0:
        raise IntegrationError("empty or reversed integration span")
    if monitor is None:
        monitor = EventMonitor(len(event_fns))

    start = rhs(t0, y0) if start is None else start
    # f alone is refused, and a non-finite f before the stepper probes a step
    # with it: its step loop never ends on a non-finite derivative
    f0 = start[0] if isinstance(start, tuple) and len(start) == 2 else None
    if np.shape(f0) != y0.shape or not np.isfinite(f0).all():
        raise IntegrationError(f"right-hand side at t={t0}: expected (f, mu) with f finite "
                               f"and of the state's shape {y0.shape}")

    evaluated = []  # (t, y, f, mu) of each evaluation since the last accepted step

    def fun(t, y):
        nonlocal start
        # the stage state is recorded and may be the next step's: a callback
        # writing into it raises
        y = _read_only(y)
        (f, mu), start = start or rhs(t, y), None  # the first call takes start
        evaluated.append((t, y, f, mu))
        return f
    solver = RK45(fun, t0, y0, tf, rtol=config.rtol, atol=config.atol, first_step=first_step)
    record = _StageRecord(evaluated[0], stage_width)

    node_times = [t0]
    node_states = [y0]
    hs: list = []
    # fixed per segment: a function is held only between segments
    watched = [(i, fn) for i, fn in enumerate(event_fns)
               if not monitor.masked[i] or monitor.side[i]]
    vals_old = {i: _event_value(i, fn, t0, y0) for i, fn in watched}
    monitor.check_start(vals_old)
    t_tol = config.event_tol

    hit = None
    while hit is None and solver.status == "running":
        if len(hs) >= config.max_steps:
            raise IntegrationError(
                f"max_steps={config.max_steps} exceeded at t={solver.t:.6g}"
            )
        msg = solver.step()
        if solver.status == "failed":
            near = [i for i, v in vals_old.items()
                    if abs(v) < 1e-6 * max(1.0, float(np.abs(y0).max()))]
            if near:
                raise GrazingError(
                    f"step underflow at t={solver.t:.6g} with event function(s) "
                    f"{near} near zero: grazing not supported"
                )
            raise IntegrationError(f"integration failed at t={solver.t:.6g}: {msg}")

        t_old, y_old = node_times[-1], node_states[-1]
        h = solver.h_previous
        hs.append(h)
        record.add(evaluated[-solver.n_stages:])
        evaluated.clear()
        t_new, y_new = solver.t, solver.y  # read-only: fun evaluated it

        Q = solver.K.T.dot(RK45.P)

        def dense(s):
            return _rk_dense(t_old, y_old, h, Q, s)

        # every watched function at the step end, once: the scan reads them
        # there, and the next step's scan starts from them
        vals_new = {i: _event_value(i, fn, t_new, y_new) for i, fn in watched}
        # sample times within the step: interior checkpoints + endpoint
        taus = _sample_times(t_old, t_new)
        candidates, departures = [], []
        for i, fn in watched:
            masked = monitor.masked[i]
            va = vals_old[i]
            ta = t_old
            for tau in taus:
                vb = vals_new[i] if tau == t_new else _event_value(i, fn, tau, dense(tau))
                if masked:
                    # the first sample past the departure tolerance: on the
                    # departure side it unmasks the function and the rest of the
                    # step is scanned for its crossing (a lift-off and the next
                    # impact can share one step); on the other side it raises
                    if abs(vb) <= monitor.depart_tol[i]:
                        continue
                    departures.append((tau, i, vb))
                    if monitor.side[i] * vb < 0.0:
                        break
                    masked = False
                elif va == 0.0 or (va < 0) != (vb < 0):
                    root, r = _refine_root(lambda s: _event_value(i, fn, s, dense(s)),
                                           ta, va, tau, vb, t_tol)
                    candidates.append((root, i, r))
                    break
                ta, va = tau, vb
        candidates.sort()
        # departures up to where the segment ends count, those past an event do not
        for tau, i, vb in departures:
            if not candidates or tau <= candidates[0][0]:
                monitor.depart(i, vb)
        if candidates:
            if len(candidates) > 1 and abs(candidates[1][0] - candidates[0][0]) <= t_tol:
                raise SimultaneousEventError(
                    f"events {candidates[0][1]} and {candidates[1][1]} fire within "
                    f"{t_tol:.3g} of each other at t={candidates[0][0]:.6g}"
                )
            root, idx, r = candidates[0]
            hit = EventHit(index=idx, t=root, r_residual=float(r))
            t_new, y_new = root, dense(root)
        vals_old = vals_new
        node_times.append(t_new)
        node_states.append(y_new)

    times, states, stages, mu = record.stacked()
    seg = DenseSegment(np.asarray(node_times), np.asarray(node_states), stages, np.asarray(hs),
                       truncated=hit is not None, multipliers=mu,
                       stage_times=times, stage_states=states)
    return seg, hit
