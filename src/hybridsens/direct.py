"""Forward propagation: plain simulation and the tangent-linear direct pass.

Both run one hybrid-run loop over the state [q (n); v (n); z (nc)], nc
being the cost's number of outputs (one zero output without a cost):
integrate a smooth segment until an event function changes sign, localize
the event on the dense output, apply the velocity jump, build the
sensitivity jump matrix, restart.  Each segment records the dynamics'
saddle multipliers at every accepted stage (``DenseSegment.multipliers``),
which both sensitivity sweeps read instead of solving again.

The direct pass is the discrete tangent of those steps, the forward dual of
the adjoint sweep: each stored Runge-Kutta step is differentiated stage by
stage on its own step size and stage states, with no step control of its
own (sensitivities stay out of the error test, as CVODES does by default),
and at each event the sensitivities jump through S.  The tangent [Q; V; Z]
is stored per segment as a DenseSegment on the state's nodes and steps;
the Gamma block is the constant identity and is never propagated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, Dimensions, SensitivityState
from .model import ZERO_COST, CostFunctional, cost_density_gradients, terminal_cost_gradients
from .integrate import RK_A, DenseSegment, EventMonitor, IntegratorConfig, integrate_segment
from .hybrid import (
    EventRecord,
    EventSpec,
    apply_state_jump,
    build_jump_matrix,
    check_departure,
)
from .constrained import ConstraintResiduals, check_one_sided


@dataclass
class TrajectorySegment:
    """One smooth piece of a hybrid run with its active dynamics."""

    t_start: float
    t_end: float
    dense: DenseSegment
    dynamics: object
    tangent: DenseSegment | None = None


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

    def segment_at(self, t: float) -> TrajectorySegment:
        for seg in self.segments:
            if seg.t_start - 1e-12 <= t <= seg.t_end + 1e-12:
                return seg
        raise ValueError(f"t={t} outside trajectory [{self.t0}, {self.tF}]")

    def state_at(self, t: float):
        """(q, v, z) interpolated from the covering segment."""
        y = self.segment_at(t).dense.evaluate(t)
        n = self.dims.n
        return y[:n], y[n:2 * n], y[2 * n:]

    def sensitivity_at(self, t: float) -> SensitivityState:
        seg = self.segment_at(t)
        if seg.tangent is None:
            raise ValueError("trajectory was computed without sensitivities")
        return _sensitivity(seg.tangent.evaluate(t), self.dims)

    @property
    def final_state(self):
        return self.state_at(self.tF)

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
    return np.concatenate([v, vdot, cost.g_value(t, q, v, vdot, rho, mu=mu)]), mu


def tangent_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
                t: float, x: np.ndarray, X: np.ndarray, vdot: np.ndarray,
                mu: np.ndarray) -> np.ndarray:
    """Time derivative of the flattened tangent X = [Q; V; Z] at the forward
    state x = [q; v; ...] with acceleration vdot and saddle multipliers mu:

        Q' = V;  V' = f_q Q + f_v V + f_rho;  Z' = g_q Q + g_v V + g_rho,

    with the Jacobian blocks of the active dynamics and the resolved cost
    gradients.  The Z block of X does not enter.  X is read as one
    (2n + nc, p) view and the derivative written into one array of that
    layout.
    """
    n = dims.n
    q, v = x[:n], x[n:2 * n]
    X = X.reshape(-1, dims.p)
    Q, V = X[:n], X[n:2 * n]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    f_q, f_v, f_rho = jac[2]
    g_q, g_v, g_rho = cost_density_gradients(cost, t, q, v, rho, jac)
    out = np.empty(X.shape)
    out[:n] = V
    out[n:2 * n] = f_q @ Q + f_v @ V + f_rho
    out[2 * n:] = g_q @ Q + g_v @ V + g_rho
    return out.ravel()


def _step_tangent(dyn, cost, dims, rho, dense: DenseSegment, k: int,
                  X: np.ndarray, KX0: np.ndarray | None) -> tuple:
    """Tangent at node k + 1 from the tangent X at node k: the derivative
    of forward step k at its fixed step size,

        X_i = X + h sum_{j<i} a_ij KX_j,  KX_i = tangent_rhs(Y_i, X_i),
        X_k+1 = X + h sum_i w_i KX_i,

    on the forward step's stage states, accelerations and multipliers
    (``DenseSegment.step_stages``), so nothing is solved again.  Returns
    X_k+1 and all seven stages KX, the tangent's continuous extension.
    Stage 6 sits at the full step's end, so it is the next step's stage 0
    (``KX0``), as in the forward step.
    """
    h, w, times, states, vdot, mu = dense.step_stages(k, dims.n)
    KX = np.empty((len(times), X.size))
    first = 0
    if KX0 is not None:
        KX[0], first = KX0, 1
    for i in range(first, len(times)):
        X_i = X + np.dot(KX[:i].T, RK_A[i, :i]) * h
        KX[i] = tangent_rhs(dyn, cost, dims, rho, times[i], states[i], X_i, vdot[i], mu[i])
    return X + np.dot(KX[:len(w)].T, w) * h, KX


def _sensitivity(X: np.ndarray, dims: Dimensions) -> SensitivityState:
    """SensitivityState of a flattened tangent [Q; V; Z]."""
    n = dims.n
    X = X.reshape(-1, dims.p)
    return SensitivityState(X[:n], X[n:2 * n], np.eye(dims.p), X[2 * n:])


def _run_hybrid(dyn, cost, events, rho, t_span, config, y0, dims):
    """Forward hybrid run of the state [q; v; z] from y0 = (q0, v0); the
    trajectory records ``cost`` as given, None included."""
    t0, tF = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(tF) and t0 < tF):
        # a run without a segment has no final state and no residuals
        raise ValueError(f"time span ({t0}, {tF}) is empty or reversed, or not finite")
    segments: list[TrajectorySegment] = []
    records: list[EventRecord] = []
    monitor = EventMonitor(len(events), [sp.admissible for sp in events])
    n = dims.n
    integrand = cost or ZERO_COST
    wrappers = [(lambda t, y, sp=sp: sp.r_value(y[:n])) for sp in events]
    y, t, active = np.concatenate([y0[0], y0[1], np.zeros(integrand.nc)]), t0, dyn
    solved = [None]  # the multipliers of the last rhs evaluation

    def rhs(s, x, d):
        f, mu = tlm_rhs(d, integrand, dims, rho, s, x)
        solved[0] = np.empty(0) if mu is None else mu  # ODE dynamics: empty rows
        return f

    while t < tF - 1e-14 * max(1.0, abs(tF)):
        # integrate_segment asks for the multipliers right after each rhs
        # evaluation: they are that evaluation's
        seg_dense, (t_end, y_end), hit = integrate_segment(
            lambda s, x, d=active: rhs(s, x, d), y, (t, tF), config,
            wrappers, monitor, lambda s, x: solved[0])
        segments.append(TrajectorySegment(t, t_end, seg_dense, active))
        check_one_sided(active, seg_dense)
        if hit is None:
            break

        spec: EventSpec = events[hit.index]
        q, v_minus, z = y_end[:n], y_end[n:2 * n], y_end[2 * n:]
        t_eve = hit.t
        v_plus, delta_mu, dyn_plus, blocks = apply_state_jump(
            spec, t_eve, q, v_minus, rho, active)
        r_q = spec.r_jac(q)
        rdot_plus = check_departure(spec, r_q, v_minus, v_plus)
        vdot_minus, mu_m = active.accel_and_multipliers(t_eve, q, v_minus, rho)
        vdot_plus, mu_p = dyn_plus.accel_and_multipliers(t_eve, q, v_plus, rho)
        g_minus = integrand.g_value(t_eve, q, v_minus, vdot_minus, rho, mu=mu_m)
        g_plus = integrand.g_value(t_eve, q, v_plus, vdot_plus, rho, mu=mu_p)
        jump = build_jump_matrix(dims, r_q, v_minus, v_plus, vdot_minus, vdot_plus,
                                 g_minus, g_plus, blocks)
        records.append(EventRecord(
            spec=spec, t_eve=t_eve, q=q.copy(), v_minus=v_minus.copy(),
            v_plus=v_plus.copy(), vdot_minus=vdot_minus, z=z.copy(), jump=jump,
            delta_mu=delta_mu,
        ))

        # positions and quadrature are continuous; restart just off the root
        y = np.concatenate([q, v_plus, z])
        depart = 10.0 * config.event_tol * max(1.0, abs(rdot_plus))
        depart = max(depart, 2.0 * abs(hit.r_residual))
        monitor.mask(hit.index, depart, float(np.sign(rdot_plus)) if spec.must_depart else 0.0)
        t = t_eve
        active = dyn_plus

    return HybridTrajectory(dims, np.asarray(rho, dtype=float), t0, tF,
                            segments, records, cost, config)


def _start(dyn, rho, config):
    """(rho, config, initial conditions) of a run; rho is checked first."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (dyn.dims.p,):
        raise DimensionError(f"model '{dyn.model.name}' has {dyn.dims.p} parameters, "
                             f"but rho has {rho.size} values (shape {rho.shape})")
    return rho, config or IntegratorConfig(), dyn.model.initial_state(rho)


def simulate(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Forward hybrid run without sensitivities.  Returns a HybridTrajectory."""
    rho, config, ic = _start(dyn, rho, config)
    return _run_hybrid(dyn, cost, events, rho, t_span, config, (ic.q0, ic.v0), dyn.dims)


def propagate_direct(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Forward hybrid run and its discrete tangent.

    The state runs as in ``simulate``; then each segment's stored steps are
    swept forward with ``_step_tangent`` and each event's sensitivities
    jump through its matrix S.  Returns (trajectory, X_tF, event_records);
    every segment of the trajectory carries its tangent as a DenseSegment
    (``TrajectorySegment.tangent``), so sensitivities can be sampled at any
    time via ``trajectory.sensitivity_at``.
    """
    rho, config, ic = _start(dyn, rho, config)
    dims = dyn.dims
    traj = _run_hybrid(dyn, cost, events, rho, t_span, config, (ic.q0, ic.v0), dims)
    cost = cost or ZERO_COST
    X = SensitivityState.initial(dims, cost.nc, ic.dq0_drho, ic.dv0_drho)
    for k, seg in enumerate(traj.segments):
        if k:
            rec = traj.events[k - 1]
            rec.dteve_drho = rec.jump.blocks["dt_row"] @ X.Q
            rec.delta_mu_sens = rec.spec.delta_mu_sensitivity(rec, X)
            X = rec.jump.apply_direct(X)
        x, KX0 = np.vstack([X.Q, X.V, X.Z]).ravel(), None
        nodes, stages = [x], []
        for j in range(len(seg.dense)):
            x, KX = _step_tangent(seg.dynamics, cost, dims, rho, seg.dense, j, x, KX0)
            nodes.append(x)
            stages.append(KX)
            KX0 = KX[-1]
        d = seg.dense
        seg.tangent = DenseSegment(d.t_start, d.t_end, d.node_times, np.array(nodes),
                                   stages, d.steps, d.truncated)
        X = _sensitivity(x, dims)
    return traj, X, traj.events


def assemble_cost_sensitivity_direct(X_tF: SensitivityState, w_grads) -> np.ndarray:
    """Total cost gradient from the forward pass:

        dpsi/drho = Z(tF) + w_q Q(tF) + w_v V(tF) + w_rho.
    """
    _, wq, wv, wr = w_grads
    return X_tF.Z + wq @ X_tF.Q + wv @ X_tF.V + wr


def direct_gradient(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Convenience wrapper: run the direct pass and assemble dpsi/drho."""
    if cost is None:
        raise ValueError("the direct gradient needs the cost functional")
    traj, XF, _ = propagate_direct(dyn, cost, events, rho, t_span, config)
    qF, vF, _ = traj.final_state
    dyn_F = traj.segments[-1].dynamics
    w_grads = terminal_cost_gradients(cost, dyn_F, traj.tF, qF, vF, np.asarray(rho, dtype=float))
    return assemble_cost_sensitivity_direct(XF, w_grads), traj, XF
