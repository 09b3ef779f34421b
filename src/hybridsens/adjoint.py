"""Backward (adjoint) propagation over a stored forward trajectory.

The adjoint ODE is integrated segment by segment from tF down to t0, with
forward states interpolated from the stored dense output (full-trajectory
storage; no recomputation checkpointing at these problem sizes).  At each
event the stored jump matrix acts through its transpose, lam- = S^T lam+,
and event times are taken from the forward records so both passes see
identical switching structure.

The quadrature adjoint lamZ is the identity for all time and the
constrained-formulation multiplier adjoint lamLambda is identically zero;
neither is integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AdjointState, Dimensions
from .model import CostFunctional, cost_density_gradients, terminal_cost_gradients
from .integrate import IntegratorConfig, integrate_segment
from .direct import HybridTrajectory
from .constrained import checked_lu, saddle_factor


def terminal_conditions(cost: CostFunctional, dyn, tF, q, v, rho) -> AdjointState:
    """Adjoint values at the final time: transposed terminal-cost gradients."""
    _, wq, wv, wr = terminal_cost_gradients(cost, dyn, tF, q, v, rho)
    nc = cost.nc
    m = dyn.n_multipliers
    return AdjointState(
        lamQ=wq.T.copy(),
        lamV=wv.T.copy(),
        lamGamma=wr.T.copy(),
        lamZ=np.eye(nc),
        lamLambda=np.zeros((m, nc)) if m else None,
    )


def _split_lam(y: np.ndarray, dims: Dimensions, nc: int):
    n, p = dims.n, dims.p
    lamQ = y[:n * nc].reshape(n, nc)
    lamV = y[n * nc:2 * n * nc].reshape(n, nc)
    lamG = y[2 * n * nc:].reshape(p, nc)
    return lamQ, lamV, lamG


def _join_lam(lamQ, lamV, lamG) -> np.ndarray:
    return np.concatenate([lamQ.ravel(), lamV.ravel(), lamG.ravel()])


def adjoint_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
                forward_eval, t: float, y: np.ndarray) -> np.ndarray:
    """Time derivative of the stacked adjoint along a smooth segment.

        lamQ' = -(f_q^T lamV + g_q^T lamZ)
        lamV' = -(lamQ + f_v^T lamV + g_v^T lamZ)
        lamG' = -(f_rho^T lamV + g_rho^T lamZ)

    with lamZ = I substituted exactly.  Forward states come from the stored
    dense output of the segment being traversed.
    """
    nc = cost.nc if cost is not None else dims.nc
    q, v = forward_eval(t)
    lamQ, lamV, lamG = _split_lam(y, dims, nc)
    vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
    f_blocks = dyn.jacobians(t, q, v, rho, vdot=vdot)
    f_q, f_v, f_rho = f_blocks
    if cost is not None and cost.g is not None:
        _, g_q, g_v, g_rho = cost_density_gradients(
            cost, dyn, t, q, v, rho, vdot=vdot, mu=mu, f_blocks=f_blocks)
    else:
        g_q = g_v = np.zeros((nc, dims.n))
        g_rho = np.zeros((nc, dims.p))
    dlamQ = -(f_q.T @ lamV + g_q.T)
    dlamV = -(lamQ + f_v.T @ lamV + g_v.T)
    dlamG = -(f_rho.T @ lamV + g_rho.T)
    return _join_lam(dlamQ, dlamV, dlamG)


@dataclass
class AdjointSolution:
    """Backward solve result: gradient, initial-time adjoint, node series."""

    gradient: np.ndarray
    lam_t0: AdjointState
    times: np.ndarray            # descending (backward order)
    series: np.ndarray           # rows: stacked [lamQ; lamV; lamGamma] per node
    lam_tF: AdjointState
    dims: Dimensions | None = None
    nc: int = 1
    chunks: list | None = None   # backward dense segments, one per smooth piece

    def forward_order(self):
        return self.times[::-1], self.series[::-1]

    def lam_at(self, t: float) -> AdjointState:
        """Adjoint interpolated inside the smooth segment covering t.

        At an event time the value is side-dependent; query strictly inside
        a segment to get an unambiguous answer.
        """
        if not self.chunks:
            raise ValueError("adjoint dense output not stored")
        for chunk in self.chunks:
            lo, hi = min(chunk.t_start, chunk.t_end), max(chunk.t_start, chunk.t_end)
            if lo <= t <= hi:
                lamQ, lamV, lamG = _split_lam(chunk.evaluate(t), self.dims, self.nc)
                return AdjointState(lamQ, lamV, lamG, np.eye(self.nc))
        raise ValueError(f"t={t} outside the adjoint solution span")


def propagate_adjoint(traj: HybridTrajectory, cost: CostFunctional | None = None,
                      config: IntegratorConfig | None = None) -> AdjointSolution:
    """Integrate the adjoint backward over a stored hybrid trajectory.

    Events are not re-detected: the stored records supply both the exact
    event times (segment boundaries) and the jump matrices whose transposes
    map the adjoint across each discontinuity.
    """
    cost = cost or traj.cost
    if cost is None:
        raise ValueError("adjoint propagation needs the cost functional")
    config = config or traj.config
    dims = traj.dims
    rho = traj.rho
    nc = cost.nc

    last = traj.segments[-1]
    qF, vF, _ = traj.state_at(traj.tF)
    lam = terminal_conditions(cost, last.dynamics, traj.tF, qF, vF, rho)
    lam_tF = lam.copy()

    times_acc = []
    series_acc = []
    chunks = []
    n = dims.n

    for k in range(len(traj.segments) - 1, -1, -1):
        seg = traj.segments[k]
        dense = seg.dense

        def forward_eval(t, dense=dense):
            y = dense.evaluate(t)
            return y[:n], y[n:2 * n]

        if abs(seg.t_end - seg.t_start) > 1e-14 * max(1.0, abs(seg.t_end)):
            rhs = lambda t, y, d=seg.dynamics, fe=forward_eval: adjoint_rhs(
                d, cost, dims, rho, fe, t, y)
            y0 = _join_lam(lam.lamQ, lam.lamV, lam.lamGamma)
            back_seg, (t_lo, y_lo), _ = integrate_segment(
                rhs, y0, (seg.t_end, seg.t_start), config, ())
            times_acc.append(back_seg.node_times)
            series_acc.append(back_seg.node_states)
            chunks.append(back_seg)
            lamQ, lamV, lamG = _split_lam(y_lo, dims, nc)
            lam = AdjointState(lamQ, lamV, lamG, np.eye(nc),
                               lamLambda=lam.lamLambda)

        if k > 0:
            record = traj.events[k - 1]
            lam = record.jump.apply_adjoint(lam)
            m = getattr(traj.segments[k - 1].dynamics, "n_multipliers", 0)
            lam.lamLambda = np.zeros((m, nc)) if m else None

    ic = traj.segments[0].dynamics.model.initial_state(rho)
    gradient = assemble_cost_sensitivity_adjoint(lam, ic.dq0_drho, ic.dv0_drho)

    times = np.concatenate(times_acc) if times_acc else np.array([traj.tF])
    series = np.vstack(series_acc) if series_acc else _join_lam(
        lam.lamQ, lam.lamV, lam.lamGamma)[None, :]
    return AdjointSolution(gradient=gradient, lam_t0=lam, times=times,
                           series=series, lam_tF=lam_tF, dims=dims, nc=nc,
                           chunks=chunks)


def assemble_cost_sensitivity_adjoint(lam_t0: AdjointState, dq0_drho, dv0_drho) -> np.ndarray:
    """Total cost gradient from the backward pass:

        dpsi/drho = lamQ(t0)^T dq0/drho + lamV(t0)^T dv0/drho + lamGamma(t0)^T.
    """
    dq0 = np.atleast_2d(np.asarray(dq0_drho, dtype=float))
    dv0 = np.atleast_2d(np.asarray(dv0_drho, dtype=float))
    return lam_t0.lamQ.T @ dq0 + lam_t0.lamV.T @ dv0 + lam_t0.lamGamma.T


# ---------------------------------------------------------------------------
# Representation map between the canonical adjoint and the multiplier-based
# adjoint of the constrained formulation.
# ---------------------------------------------------------------------------


def map_lambda_to_mu(model, t, q, rho, lamQ, lamV, lamLambda):
    """Convert canonical adjoint blocks to the multiplier representation.

    The two representations are related through the index-1 system matrix:

        [lamQ; lamV; lamLambda] = blkdiag(I, [[M, G^T], [G, 0]]) [muQ; muV; muGamma]

    so muQ = lamQ and (muV, muGamma) solve the KKT system with right side
    (lamV, lamLambda).
    """
    lamQ = np.atleast_2d(np.asarray(lamQ, dtype=float))
    lamV = np.atleast_2d(np.asarray(lamV, dtype=float))
    n = model.dims.n
    cons = model.constraints
    if cons is None or cons.m == 0:
        M = model.mass_at(t, q, rho)
        muV = checked_lu(M, "mass matrix")(lamV)
        return lamQ.copy(), muV, np.zeros((0, lamQ.shape[1]))
    if lamLambda is None:
        lamLambda = np.zeros((cons.m, lamQ.shape[1]))
    lamLambda = np.atleast_2d(np.asarray(lamLambda, dtype=float))
    factor = saddle_factor(model.mass_at(t, q, rho), cons.jac_q(t, q, rho), 0.0,
                           "adjoint KKT matrix")
    sol = factor(np.vstack([lamV, lamLambda]))
    return lamQ.copy(), sol[:n], sol[n:]


def map_mu_to_lambda(model, t, q, rho, muQ, muV, muGamma):
    """Inverse of map_lambda_to_mu (a plain block multiplication)."""
    muQ = np.atleast_2d(np.asarray(muQ, dtype=float))
    muV = np.atleast_2d(np.asarray(muV, dtype=float))
    M = model.mass_at(t, q, rho)
    cons = model.constraints
    if cons is None or cons.m == 0:
        return muQ.copy(), M @ muV, np.zeros((0, muQ.shape[1]))
    muGamma = np.atleast_2d(np.asarray(muGamma, dtype=float))
    G = cons.jac_q(t, q, rho)
    lamV = M @ muV + G.T @ muGamma
    lamLambda = G @ muV
    return muQ.copy(), lamV, lamLambda
