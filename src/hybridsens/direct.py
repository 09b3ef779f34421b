"""Forward propagation: the hybrid run and its tangent-linear sweep.

``simulate`` runs the state [q (n); v (n); z (nc)], nc being the cost's
number of outputs (one zero output without a cost): integrate a smooth
segment until an event function changes sign, localize the event on the
dense output, apply the velocity jump, build the sensitivity jump matrix,
restart.  The run records its start (``HybridTrajectory.initial``), its
cost and, per segment, the time, positions, derivative [v; vdot; g] and
saddle multipliers of every accepted stage (``DenseSegment.step_stages``),
which is all both sensitivity sweeps read.

``propagate_direct(traj)``, the forward mirror of
``adjoint.propagate_adjoint(traj)``, is the discrete tangent of those steps:
``DenseSegment.tangent_step`` in integrate.py differentiates each stored
step on its own step size and stage states with the stage right side
``tangent_rhs``, with no step control (sensitivities stay out of the
error test, as CVODES does by default), and at each event the tangent
jumps through S (``JumpMatrix.direct``).  The tangent [Q; V; Z]
is stored per segment at the state's nodes only (``SegmentTangent``),
with the rows the caller asked to sample during the sweep;
``HybridTrajectory.sensitivity_at`` sweeps the one step covering any
other t again from its node.  The Gamma block is the constant identity
and is never propagated."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import DimensionError, Dimensions, SensitivityState
from .model import (ZERO_COST, CostFunctional, InitialConditions, cost_density_gradients,
                    terminal_cost_gradients)
from .integrate import (DenseSegment, EventAccumulationError, EventMonitor, IntegratorConfig,
                        _read_only, integrate_segment)
from .hybrid import (
    EventRecord,
    EventSpec,
    apply_state_jump,
    build_jump_matrix,
    check_departure,
)
from .constrained import ConstraintResiduals, check_one_sided


@dataclass(frozen=True)
class SegmentTangent:
    """The flattened tangent [Q; V; Z] of one segment as the sweep leaves
    it: its value at every node of the segment's dense output, and the rows
    sampled at ``sample_times`` (``propagate_direct(traj, at=...)``)."""

    node_states: np.ndarray  # shape (len(dense.node_times), (2n + nc) p)
    sample_times: np.ndarray
    samples: np.ndarray  # shape (len(sample_times), (2n + nc) p)


@dataclass
class TrajectorySegment:
    """One smooth piece of a hybrid run with its active dynamics."""

    dense: DenseSegment
    dynamics: object
    tangent: SegmentTangent | None = None

    @property
    def t_start(self) -> float:
        return self.dense.node_times[0]

    @property
    def t_end(self) -> float:
        return self.dense.node_times[-1]


@dataclass
class HybridTrajectory:
    """Piecewise-smooth forward solution with dense output and event records."""

    dims: Dimensions
    rho: np.ndarray
    t0: float
    tF: float
    segments: list
    events: list
    cost: CostFunctional | None
    config: IntegratorConfig
    initial: InitialConditions  # the start both sensitivity sweeps read

    def segment_at(self, t: float) -> TrajectorySegment:
        """The segment whose span holds t: an event time belongs to the one it
        ends, any later t, however close, to the next.  A t more than 1e-12
        past the run's two ends raises a ValueError."""
        segs = self.segments
        if not segs[0].t_start - 1e-12 <= t <= segs[-1].t_end + 1e-12:
            raise ValueError(f"t={t} outside trajectory [{self.t0}, {self.tF}]")
        return segs[bisect_left([seg.t_end for seg in segs[:-1]], t)]

    def state_at(self, t: float):
        """(q, v, z) interpolated from the covering segment."""
        y = self.segment_at(t).dense.evaluate(t)
        n = self.dims.n
        return y[:n], y[n:2 * n], y[2 * n:]

    def split_at(self, times) -> list:
        """The sorted ``times`` split by segment, one array each: a t goes to
        the segment ``segment_at`` picks, so a t at an event time goes to
        the pre-event segment and any later t to the post-event one.
        Unsorted times, or a t outside the run, raise a ValueError."""
        times = np.array(times, dtype=float).ravel()
        if times.size:
            if not (times[1:] >= times[:-1]).all():
                raise ValueError("sample times must be sorted")
            self.segment_at(times[0])
            self.segment_at(times[-1])
        return np.split(times, np.searchsorted(
            times, [seg.t_end for seg in self.segments[:-1]], side="right"))

    def sensitivity_at(self, t: float) -> SensitivityState:
        """Tangent at t from the covering segment's ``SegmentTangent``: a
        node row as stored, else the one step covering t swept again from
        its node, bitwise the sweep's continuous extension
        there.  At an event time it is the pre-event value."""
        seg = self.segment_at(t)
        if seg.tangent is None:
            raise ValueError("the run has no tangent yet: sweep it with propagate_direct(traj)")
        dense, nodes = seg.dense, seg.tangent.node_states
        k, on_node, t = dense.locate(t)
        if on_node:
            return _sensitivity(nodes[k].copy(), self.dims)
        rhs = partial(tangent_rhs, seg.dynamics, self.cost or ZERO_COST, self.dims, self.rho)
        _, KX = dense.tangent_step(k, self.dims.n, nodes[k], rhs)
        return _sensitivity(dense.extension(k, nodes[k], KX, t), self.dims)

    @property
    def final_state(self):
        return self.state_at(self.tF)

    def terminal_gradients(self, final_state=None):
        """(w, w_y) of the run's cost at its final state, w_y one block over
        the columns [q | v | rho], with the last segment's dynamics
        (``model.terminal_cost_gradients``).
        ``final_state``, if given, is what ``final_state`` returned, so that
        a caller holding it does not interpolate the end again.  The direct
        gradient of a swept run is
        ``assemble_cost_sensitivity_direct(propagate_direct(traj), traj.terminal_gradients())``."""
        if self.cost is None:
            raise ValueError("the run has no cost: simulate it with one to take its "
                             "terminal gradients")
        qF, vF, _ = self.final_state if final_state is None else final_state
        return terminal_cost_gradients(self.cost, self.segments[-1].dynamics, self.tF,
                                       qF, vF, self.rho)

    @property
    def residuals(self) -> ConstraintResiduals:
        """Constraint residuals (max |Phi|, max |phi_q v|) at every stored
        node, worked out from the nodes on each read; (0, 0) on a segment
        whose dynamics has no constraint set."""
        n, rows = self.dims.n, []
        for seg in self.segments:
            cons = seg.dynamics.model.constraints
            for t, y in zip(seg.dense.node_times.tolist(), seg.dense.node_states):
                rows.append((t, *((0.0, 0.0) if cons is None else
                                  cons.residuals(t, y[:n], y[n:2 * n], self.rho))))
        return ConstraintResiduals(*zip(*rows))


def tlm_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
            t: float, y: np.ndarray) -> tuple:
    """(f, mu): the right-hand side f = [v; vdot; g] of the integrated state
    y = [q; v; z] of every forward run, simulate's and the direct pass's
    alike, and the saddle multipliers mu of its solve (None for ODE
    dynamics)."""
    n = dims.n
    q, v = y[:n], y[n:2 * n]
    vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
    f = np.empty(y.shape)
    f[:n], f[n:2 * n], f[2 * n:] = v, vdot, cost.g_value(t, q, v, vdot, rho, mu=mu)
    return f, mu


def tangent_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
                t: float, q: np.ndarray, v: np.ndarray, X: np.ndarray, vdot: np.ndarray,
                mu: np.ndarray) -> np.ndarray:
    """Time derivative of the flattened tangent X = [Q; V; Z] at the forward
    positions q and velocities v with acceleration vdot and saddle
    multipliers mu:

        Q' = V;  V' = f_q Q + f_v V + f_rho;  Z' = g_q Q + g_v V + g_rho,

    with the Jacobian f_y of the active dynamics and the resolved cost
    gradient g_y, each read as its column blocks [q | v | rho].  The Z
    block of X does not enter.  X is read as one (2n + nc, p) view and the
    derivative written into one array of that layout, each product
    straight into its rows and the sums added in place, in the order
    f_q Q + f_v V + f_rho: one product of f_y[:, :2n] with [Q; V] would
    sum in another order.
    """
    n = dims.n
    X = X.reshape(-1, dims.p)
    Q, V = X[:n], X[n:2 * n]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    g_y = cost_density_gradients(cost, t, q, v, rho, jac)
    out = np.empty(X.shape)
    out[:n] = V
    for d, J in ((out[n:2 * n], jac[2]), (out[2 * n:], g_y)):
        np.matmul(J[:, :n], Q, out=d)
        d += J[:, n:2 * n] @ V
        d += J[:, 2 * n:]
    return out.ravel()


def _sensitivity(X: np.ndarray, dims: Dimensions) -> SensitivityState:
    """SensitivityState of a flattened tangent [Q; V; Z]."""
    n = dims.n
    X = X.reshape(-1, dims.p)
    return SensitivityState(X[:n], X[n:2 * n], np.eye(dims.p), X[2 * n:])


def _run_hybrid(dyn, cost, events, rho, t_span, config):
    """Forward hybrid run from the model's initial state at rho (checked before
    the span); the trajectory records that start and ``cost`` as given."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (dyn.dims.p,):
        raise DimensionError(f"model '{dyn.model.name}' has {dyn.dims.p} parameters, "
                             f"but rho has {rho.size} values (shape {rho.shape})")
    t0, tF = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(tF) and t0 < tF):
        # a run without a segment has no final state and no residuals
        raise ValueError(f"time span ({t0}, {tF}) is empty or reversed, or not finite")
    config = config or IntegratorConfig()
    initial = dyn.model.initial_state(rho)
    segments: list[TrajectorySegment] = []
    records: list[EventRecord] = []
    monitor = EventMonitor(len(events), [sp.admissible for sp in events])
    dims, integrand = dyn.dims, cost or ZERO_COST
    n = dims.n
    wrappers = [(lambda t, y, sp=sp: sp.r_value(y[:n])) for sp in events]
    y, t, active = np.concatenate([initial.q0, initial.v0, np.zeros(integrand.nc)]), t0, dyn
    start = None  # (f, mu) at a segment's start, if the event already evaluated them
    first_step = None  # a post-event segment's: the step its event cut short

    def rows(mu):
        return np.empty(0) if mu is None else mu  # ODE dynamics: empty rows

    def rhs(s, x, d):
        f, mu = tlm_rhs(d, integrand, dims, rho, s, x)
        return f, rows(mu)

    while t < tF - 1e-14 * max(1.0, abs(tF)):
        request = (lambda s, x, d=active: rhs(s, x, d), y, (t, tF), config,
                   wrappers, monitor, start)
        masked = list(monitor.masked)
        try:
            seg_dense, hit = integrate_segment(*request, first_step, stage_width=n)
        except EventAccumulationError:
            if first_step is None:
                raise
            # a warm step may pass over a short bounce that samples cannot
            # resolve; only a segment from the stepper's own first step may raise
            monitor.masked = masked
            seg_dense, hit = integrate_segment(*request, stage_width=n)
        segments.append(TrajectorySegment(seg_dense, active))
        check_one_sided(active, seg_dense)
        if hit is None:
            break

        spec: EventSpec = events[hit.index]
        y_end = seg_dense.node_states[-1]
        q, v_minus, z = y_end[:n], y_end[n:2 * n], y_end[2 * n:]
        t_eve = hit.t
        v_plus, delta_mu, dyn_plus, blocks = apply_state_jump(
            spec, t_eve, q, v_minus, rho, active)
        # the kind's array may be shared (a view, or the map's own array): the
        # callbacks below see a read-only copy, so none can write into the
        # record's v_plus or the next segment's start
        v_plus = _read_only(v_plus.copy())
        r_q = spec.r_jac(q)
        rdot_plus = check_departure(spec, r_q, v_minus, v_plus)
        vdot_minus, mu_m = active.accel_and_multipliers(t_eve, q, v_minus, rho)
        vdot_plus, mu_p = dyn_plus.accel_and_multipliers(t_eve, q, v_plus, rho)
        g_minus = integrand.g_value(t_eve, q, v_minus, vdot_minus, rho, mu=mu_m)
        g_plus = integrand.g_value(t_eve, q, v_plus, vdot_plus, rho, mu=mu_p)
        jump = build_jump_matrix(dims, r_q, v_minus, vdot_minus, vdot_plus, g_minus, g_plus,
                                 blocks)
        records.append(EventRecord(
            spec=spec, t_eve=t_eve, q=q.copy(), v_minus=v_minus.copy(),
            v_plus=v_plus, vdot_minus=vdot_minus, z=z.copy(), jump=jump,
            delta_mu=delta_mu,
        ))

        # positions and quadrature are continuous; restart just off the root,
        # where [v+; vdot+; g+] is tlm_rhs of the new dynamics, bitwise
        y = np.concatenate([q, v_plus, z])
        start = np.concatenate([v_plus, vdot_plus, g_plus]), rows(mu_p)
        depart = 10.0 * config.event_tol * max(1.0, abs(rdot_plus))
        depart = max(depart, 2.0 * abs(hit.r_residual))
        monitor.mask(hit.index, depart, float(np.sign(rdot_plus)) if spec.must_depart else 0.0)
        # warm restart where the equations of motion stay the same: the step
        # the event cut short, at its full length, suits the next segment better
        # than the initial-step heuristic, which starts near atol at a floor
        # contact.  Not the part before the event: that depends on where the
        # event falls in its step, and passing it on from segment to segment
        # amplifies a parameter perturbation into a different step sequence.
        # No longer than the segment before it, which bounds the next bounce
        first_step = min(seg_dense.steps[-1], t_eve - seg_dense.node_times[0], tF - t_eve)
        if dyn_plus is not active or not first_step > 0.0:
            first_step = None
        t = t_eve
        active = dyn_plus

    return HybridTrajectory(dims, rho, t0, tF, segments, records, cost, config, initial)


def simulate(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Forward hybrid run without sensitivities.  Returns a HybridTrajectory,
    which ``propagate_direct`` and ``adjoint.propagate_adjoint`` sweep."""
    return _run_hybrid(dyn, cost, events, rho, t_span, config)


def propagate_direct(traj: HybridTrajectory, at=()) -> SensitivityState:
    """Discrete tangent sweep over a stored hybrid trajectory, the forward
    mirror of ``adjoint.propagate_adjoint``: from the run's start
    (``traj.initial``), each segment's stored steps are swept with
    ``DenseSegment.tangent_step`` and at each event the tangent [Q; V; Z]
    jumps through its S as the array it is (``JumpMatrix.direct``), for the
    run's cost (``ZERO_COST`` for a cost-less run).  Fills each segment's
    ``tangent`` with its node tangents and each record's ``dteve_drho``
    and ``delta_mu_sens``, the same on every sweep; the steps' tangent
    stages are not kept.

    ``at`` are sorted sample times inside the run, split by segment as
    ``traj.split_at`` splits them (a t at an event time samples the
    pre-event segment).  A segment's times are evaluated once its steps
    are swept, by one ``DenseSegment.evaluate`` of the tangent's
    continuous extension on that segment's tangent stages (a record laid
    out as the forward stages, which is dropped right after), and stored
    on the segment's ``tangent`` (``samples``).  Returns X_tF."""
    dims, rho, ic = traj.dims, traj.rho, traj.initial
    cost = traj.cost or ZERO_COST
    n, p = dims.n, dims.p
    x = np.vstack([np.reshape(ic.dq0_drho, (n, p)), np.reshape(ic.dv0_drho, (n, p)),
                   np.zeros((cost.nc, p))])
    for k, (seg, times) in enumerate(zip(traj.segments, traj.split_at(at))):
        if k:
            rec = traj.events[k - 1]
            rec.dteve_drho = rec.jump.blocks["dt_row"] @ x[:n]
            rec.delta_mu_sens = rec.spec.delta_mu_sensitivity(rec, x[:n], x[n:2 * n])
            x = rec.jump.direct(x)
        d = seg.dense
        nodes = np.empty((len(d.node_times), x.size))
        nodes[0] = x.ravel()
        # held only while sampled
        stages = np.empty((d.stages.shape[0], x.size)) if times.size else None
        rhs, KX0 = partial(tangent_rhs, seg.dynamics, cost, dims, rho), None
        for j in range(len(d)):
            nodes[j + 1], KX = d.tangent_step(j, n, nodes[j], rhs, KX0)
            KX0 = KX[-1]
            if stages is not None:
                stages[d.step_rows(j)] = KX
        samples = np.empty((0, x.size))
        if stages is not None:
            extension = DenseSegment(d.node_times, nodes, stages, d.steps)
            samples = extension.evaluate(times)
        seg.tangent = SegmentTangent(nodes, times, samples)
        x = nodes[-1].reshape(-1, p)
    return _sensitivity(x.copy(), dims)


def assemble_cost_sensitivity_direct(X_tF: SensitivityState, w_grads) -> np.ndarray:
    """Total cost gradient from the forward pass and the terminal
    gradients ``w_grads = (w, w_y)``, w_y over the columns [q | v | rho]:

        dpsi/drho = Z(tF) + w_q Q(tF) + w_v V(tF) + w_rho.
    """
    w_y, n = w_grads[1], X_tF.Q.shape[0]
    return X_tF.Z + w_y[:, :n] @ X_tF.Q + w_y[:, n:2 * n] @ X_tF.V + w_y[:, 2 * n:]


def direct_gradient(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None,
                    at=None):
    """One-call direct gradient: the forward run, its tangent sweep
    (``propagate_direct``) and dpsi/drho.  ``at``, if given, is a function
    of the forward run returning the sorted times the sweep samples (see
    ``propagate_direct``).  Returns (gradient, trajectory, X_tF)."""
    if cost is None:
        raise ValueError("the direct gradient needs the cost functional")
    # not simulate, which perfbench/spans.py times as the forward pass
    traj = _run_hybrid(dyn, cost, events, rho, t_span, config)
    XF = propagate_direct(traj, () if at is None else at(traj))
    return assemble_cost_sensitivity_direct(XF, traj.terminal_gradients()), traj, XF
