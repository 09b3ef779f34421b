"""Forward propagation: plain simulation and the tangent-linear direct pass.

Both share one hybrid-run loop: integrate a smooth segment until an event
function changes sign, localize the event on the dense output, apply the
velocity jump, build the sensitivity jump matrix, restart.  The direct pass
augments the integrated vector with the stacked sensitivity blocks so that
the Jacobians of the tangent-linear right-hand side are evaluated on the
exact discrete trajectory (state and sensitivities share the step sequence).
Each segment also records the dynamics' saddle multipliers at every accepted
stage (``DenseSegment.multipliers``), which the adjoint sweep reads instead
of solving again.

Integrated layout per segment:  [q (n); v (n); z (nc)]  and, when carrying
sensitivities,  [...; Q.ravel; V.ravel; Z.ravel].  The parameter block and
the Gamma identity are constants and are never integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dimensions, SensitivityState
from .model import CostFunctional, cost_density_gradients
from .integrate import DenseSegment, EventMonitor, IntegratorConfig, integrate_segment
from .hybrid import (
    EventRecord,
    EventSpec,
    apply_state_jump,
    build_jump_matrix,
    check_departure,
)
from .constrained import ConstraintResiduals


@dataclass
class TrajectorySegment:
    """One smooth piece of a hybrid run with its active dynamics."""

    t_start: float
    t_end: float
    dense: DenseSegment
    dynamics: object
    augmented: bool


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
    residuals: ConstraintResiduals | None = None

    def segment_at(self, t: float) -> TrajectorySegment:
        for seg in self.segments:
            if seg.t_start - 1e-12 <= t <= seg.t_end + 1e-12:
                return seg
        raise ValueError(f"t={t} outside trajectory [{self.t0}, {self.tF}]")

    def state_at(self, t: float):
        """(q, v, z) interpolated from the covering segment."""
        seg = self.segment_at(t)
        y = seg.dense.evaluate(t)
        n, nc = self.dims.n, self.dims.nc
        return y[:n], y[n:2 * n], y[2 * n:2 * n + nc]

    def sensitivity_at(self, t: float) -> SensitivityState:
        seg = self.segment_at(t)
        if not seg.augmented:
            raise ValueError("trajectory was computed without sensitivities")
        y = seg.dense.evaluate(t)
        return _split_aug(y, self.dims)[1]

    @property
    def final_state(self):
        return self.state_at(self.tF)

    def sample(self, times):
        """Stack (q, v, z) rows for an array of query times."""
        rows = [np.concatenate(self.state_at(float(t))) for t in times]
        return np.asarray(rows)


# -- augmented-vector layout helpers ----------------------------------------


def _base_size(dims: Dimensions) -> int:
    return 2 * dims.n + dims.nc


def _join_aug(q, v, z, X: SensitivityState | None, dims: Dimensions) -> np.ndarray:
    parts = [q, v, z]
    if X is not None:
        parts += [X.Q.ravel(), X.V.ravel(), X.Z.ravel()]
    return np.concatenate(parts)


def _split_aug(y: np.ndarray, dims: Dimensions):
    n, p, nc = dims.n, dims.p, dims.nc
    q, v, z = y[:n], y[n:2 * n], y[2 * n:2 * n + nc]
    if y.size == _base_size(dims):
        return (q, v, z), None
    off = _base_size(dims)
    Q = y[off:off + n * p].reshape(n, p)
    off += n * p
    V = y[off:off + n * p].reshape(n, p)
    off += n * p
    Z = y[off:off + nc * p].reshape(nc, p)
    X = SensitivityState(Q, V, np.eye(p), Z)
    return (q, v, z), X


def tlm_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
            t: float, y: np.ndarray) -> np.ndarray:
    """Augmented right-hand side: state dynamics plus the tangent-linear model.

    Qdot = V;  Vdot = f_q Q + f_v V + f_rho;  Zdot = g_q Q + g_v V + g_rho,
    with the Jacobian blocks of the active dynamics and the resolved cost
    gradients evaluated at the interpolation-free integration states.
    """
    (q, v, z), X = _split_aug(y, dims)
    vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
    if X is None:
        gval = cost.g_value(t, q, v, vdot, rho, mu=mu) if cost is not None else np.zeros(dims.nc)
        return np.concatenate([v, vdot, gval])
    f_blocks = dyn.jacobians(t, q, v, rho, vdot=vdot)
    f_q, f_v, f_rho = f_blocks
    if cost is not None:
        gval, g_q, g_v, g_rho = cost_density_gradients(
            cost, dyn, t, q, v, rho, vdot=vdot, mu=mu, f_blocks=f_blocks)
    else:
        gval = np.zeros(dims.nc)
        g_q = g_v = np.zeros((dims.nc, dims.n))
        g_rho = np.zeros((dims.nc, dims.p))
    Qdot = X.V
    Vdot = f_q @ X.Q + f_v @ X.V + f_rho
    Zdot = g_q @ X.Q + g_v @ X.V + g_rho
    return np.concatenate([v, vdot, gval, Qdot.ravel(), Vdot.ravel(), Zdot.ravel()])


def _run_hybrid(dyn, cost, events, rho, t_span, config, y0, dims, X0):
    """Shared forward loop for simulate (X0 None) and the direct pass."""
    t0, tF = float(t_span[0]), float(t_span[1])
    segments: list[TrajectorySegment] = []
    records: list[EventRecord] = []
    residuals = ConstraintResiduals.empty()
    monitor = EventMonitor(len(events))
    carrying_X = X0 is not None

    def make_rhs(active_dyn):
        return lambda t, y: tlm_rhs(active_dyn, cost, dims, rho, t, y)

    def stage_multipliers(active_dyn):
        # keyed on the state tlm_rhs just solved at: a memo hit
        n = dims.n
        return lambda t, y: active_dyn.multipliers(t, y[:n], y[n:2 * n], rho)

    def event_wrappers():
        n = dims.n
        return [(lambda t, y, sp=sp: sp.r_value(y[:n])) for sp in events]

    y = _join_aug(y0[0], y0[1], np.zeros(dims.nc), X0, dims)
    t = t0
    active = dyn
    wrappers = event_wrappers()
    while t < tF - 1e-14 * max(1.0, abs(tF)):
        seg_dense, (t_end, y_end), hit = integrate_segment(
            make_rhs(active), y, (t, tF), config, wrappers, monitor,
            stage_multipliers(active))
        segments.append(TrajectorySegment(t, t_end, seg_dense, active, carrying_X))
        _record_residuals(residuals, active, seg_dense, rho, dims)
        if hit is None:
            t, y = t_end, y_end
            break

        spec: EventSpec = events[hit.index]
        (q, v_minus, z), X_minus = _split_aug(y_end, dims)
        t_eve = hit.t
        v_plus, delta_mu, dyn_plus = apply_state_jump(spec, t_eve, q, v_minus, rho, active)
        rdot_plus = check_departure(spec, spec.r_jac(q), v_minus, v_plus)
        vdot_minus, mu_m = active.accel_and_multipliers(t_eve, q, v_minus, rho)
        vdot_plus, mu_p = dyn_plus.accel_and_multipliers(t_eve, q, v_plus, rho)
        if cost is not None:
            g_minus = cost.g_value(t_eve, q, v_minus, vdot_minus, rho, mu=mu_m)
            g_plus = cost.g_value(t_eve, q, v_plus, vdot_plus, rho, mu=mu_p)
        else:
            g_minus = g_plus = np.zeros(dims.nc)
        jump = build_jump_matrix(spec, dims, t_eve, q, v_minus, v_plus,
                                 vdot_minus, vdot_plus, g_minus, g_plus,
                                 rho, active, dyn_plus)
        record = EventRecord(
            name=spec.name, kind=jump.kind, t_eve=t_eve, q=q.copy(),
            v_minus=v_minus.copy(), v_plus=v_plus.copy(),
            vdot_minus=vdot_minus, vdot_plus=vdot_plus,
            g_minus=g_minus, g_plus=g_plus, z=z.copy(),
            r_row=jump.blocks["dt_row"], jump=jump, delta_mu=delta_mu,
        )
        X_plus = None
        if carrying_X:
            record.dteve_drho = record.r_row @ X_minus.Q
            X_plus = jump.apply_direct(X_minus)
            record.delta_mu_sens = spec.delta_mu_sensitivity(record, X_minus)
        records.append(record)

        # positions and quadrature are continuous; restart just off the root
        y = _join_aug(q, v_plus, z, X_plus, dims)
        depart = 10.0 * config.event_tol * max(1.0, abs(rdot_plus))
        depart = max(depart, 2.0 * abs(hit.r_residual))
        monitor.mask(hit.index, depart, float(np.sign(rdot_plus)) if spec.must_depart else 0.0)
        t = t_eve
        active = dyn_plus

    traj = HybridTrajectory(dims, np.asarray(rho, dtype=float), t0, tF,
                            segments, records, cost, config, residuals)
    (qF, vF, zF), XF = _split_aug(y, dims)
    return traj, XF


def _record_residuals(res: ConstraintResiduals, dyn, dense: DenseSegment, rho, dims):
    if not hasattr(dyn, "residuals"):
        return
    n = dims.n
    for t, y in zip(dense.node_times, dense.node_states):
        pos, vel = dyn.residuals(float(t), y[:n], y[n:2 * n], rho)
        res.append(float(t), pos, vel)


def simulate(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Forward hybrid run without sensitivities.  Returns a HybridTrajectory."""
    config = config or IntegratorConfig()
    rho = np.asarray(rho, dtype=float)
    dims = dyn.dims
    ic = dyn.model.initial_state(rho)
    traj, _ = _run_hybrid(dyn, cost, events, rho, t_span, config,
                          (ic.q0, ic.v0), dims, None)
    return traj


def propagate_direct(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Forward hybrid run carrying the tangent-linear sensitivities.

    Returns (trajectory, X_tF, event_records); the trajectory's dense
    segments store the augmented vector, so sensitivities can be sampled at
    any time via ``trajectory.sensitivity_at``.
    """
    config = config or IntegratorConfig()
    rho = np.asarray(rho, dtype=float)
    dims = dyn.dims
    ic = dyn.model.initial_state(rho)
    X0 = SensitivityState.initial(dims, ic.dq0_drho, ic.dv0_drho)
    traj, XF = _run_hybrid(dyn, cost, events, rho, t_span, config,
                           (ic.q0, ic.v0), dims, X0)
    return traj, XF, traj.events


def assemble_cost_sensitivity_direct(X_tF: SensitivityState, w_grads) -> np.ndarray:
    """Total cost gradient from the forward pass:

        dpsi/drho = Z(tF) + w_q Q(tF) + w_v V(tF) + w_rho.
    """
    _, wq, wv, wr = w_grads
    return X_tF.Z + wq @ X_tF.Q + wv @ X_tF.V + wr


def direct_gradient(dyn, cost, events, rho, t_span, config: IntegratorConfig | None = None):
    """Convenience wrapper: run the direct pass and assemble dpsi/drho."""
    from .model import terminal_cost_gradients

    traj, XF, _ = propagate_direct(dyn, cost, events, rho, t_span, config)
    qF, vF, _ = traj.final_state
    dyn_F = traj.segments[-1].dynamics
    w_grads = terminal_cost_gradients(cost, dyn_F, traj.tF, qF, vF, np.asarray(rho, dtype=float))
    return assemble_cost_sensitivity_direct(XF, w_grads), traj, XF
