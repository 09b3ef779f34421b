"""Discrete adjoint of a stored forward trajectory, the backward mirror of
the tangent sweep ``direct.propagate_direct``.

Between events the backward pass is the exact transpose of the forward
Runge-Kutta steps: each segment's accepted steps are swept from the last
to the first with the transposed Dormand-Prince stage recursion, the
Jacobians evaluated at the stage states the forward step evaluated
(Sandu, "On the properties of Runge-Kutta discrete adjoints", ICCS 2006).
No step control runs backward and the forward state is never
interpolated.  Nothing is solved again either: each stage's acceleration
is read from the stored stage derivatives and its multipliers from the
forward pass's stage record, so the sweep calls only the Jacobians.  At
each event the stored jump matrix acts through its transpose,
lam- = S^T lam+, so the adjoint gradient equals the direct gradient
computed on the same steps to round-off.  The gradient folds the adjoint
at t0 into the run's recorded start (``HybridTrajectory.initial``).
Between nodes the adjoint is recovered by integrating the continuous
adjoint ODE from the nearest later node, in reversed time
(``AdjointSolution.lam_at``).

The quadrature adjoint lamZ is the identity for all time and is not
integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AdjointState, Dimensions
from .model import CostFunctional, cost_density_gradients, terminal_cost_gradients
from .integrate import RK_A, DenseSegment, integrate_segment
from .direct import HybridTrajectory
# unused here; perfbench/spans.py counts factorizations at this name
from .constrained import checked_lu  # noqa: F401


def terminal_conditions(cost: CostFunctional, dyn, tF, q, v, rho) -> AdjointState:
    """Adjoint values at the final state (q, v) of dynamics dyn."""
    return _transposed(terminal_cost_gradients(cost, dyn, tF, q, v, rho), cost.nc)


def _transposed(w_grads, nc: int) -> AdjointState:
    """The adjoint state of the terminal-cost gradients (w, w_q, w_v, w_rho):
    their transposes, and lamZ = I."""
    _, wq, wv, wr = w_grads
    return AdjointState(
        lamQ=wq.T.copy(),
        lamV=wv.T.copy(),
        lamGamma=wr.T.copy(),
        lamZ=np.eye(nc),
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
                t: float, x: np.ndarray, y: np.ndarray, vdot: np.ndarray | None = None,
                mu: np.ndarray | None = None, weight: float = 1.0) -> np.ndarray:
    """Derivative of the stacked adjoint y in the reversed time s = -t, at
    the forward state x = [q; v; ...] with acceleration vdot and saddle
    multipliers mu (``dyn.accel_and_multipliers``; without them the
    Jacobian call solves for them):

        dlamQ/ds = f_q^T lamV + w g_q^T
        dlamV/ds = lamQ + f_v^T lamV + w g_v^T
        dlamG/ds = f_rho^T lamV + w g_rho^T

    that is J^T lam + w g_y^T = -lam', with lamZ = I substituted exactly and
    weighted by w: 1 for the continuous adjoint ODE, the stage's quadrature
    weight h w_i inside a discrete step.  Both sweeps use it as returned:
    the discrete stage's mu_i and ``AdjointSolution.lam_at``'s right side.
    The lamGamma block of y does not enter.  y is read as one (2n + p, nc)
    view and the derivative written into one array of that layout, each
    product straight into its rows and the sums added in place, in the
    order lamQ + f_v^T lamV + w g_v^T.
    """
    n = dims.n
    q, v = x[:n], x[n:2 * n]
    lam = y.reshape(-1, cost.nc)  # rows [lamQ (n); lamV (n); lamGamma (p)]
    lamV = lam[n:2 * n]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    f_q, f_v, f_rho = jac[2]
    if weight and (cost.g is not None or cost.g_of_mu is not None):
        g_q, g_v, g_rho = cost_density_gradients(cost, t, q, v, rho, jac)
        gT_q, gT_v, gT_rho = (weight * g_q).T, (weight * g_v).T, (weight * g_rho).T
    else:  # a zero density: adding the scalar +0.0 is adding a zero block
        gT_q = gT_v = gT_rho = 0.0
    out = np.empty(lam.shape)
    dQ, dV, dG = out[:n], out[n:2 * n], out[2 * n:]
    np.matmul(f_q.T, lamV, out=dQ)
    dQ += gT_q
    np.matmul(f_v.T, lamV, out=dV)
    np.add(lam[:n], dV, out=dV)
    dV += gT_v
    np.matmul(f_rho.T, lamV, out=dG)
    dG += gT_rho
    return out.ravel()


def _step_adjoint(dyn, cost, dims, rho, dense: DenseSegment, k: int,
                  lam: np.ndarray) -> np.ndarray:
    """Adjoint at node k from the adjoint ``lam`` at node k + 1: the
    transpose of forward step k,

        theta_i = h w_i lam + h sum_{j>i} a_ji mu_j
        mu_i    = J(Y_i)^T theta_i + h w_i g_y(Y_i)^T
        lam_k   = lam + sum_i mu_i

    (the rho block accumulating f_rho^T theta_i + h w_i g_rho^T), where
    mu_i = adjoint_rhs(Y_i, theta_i, h w_i), the reversed-time derivative,
    taken as returned.  The stage states Y_i are those the forward step
    evaluated (``DenseSegment.step_stages``: the stored nodes where a stage
    sits on one, the others rebuilt from the stored stages).  The stage's
    acceleration is its stored derivative's v block and its saddle
    multipliers are row 6k + i of the segment's record, both bitwise what
    the dynamics returned at Y_i in the forward pass.  A full step has the
    weights w = B on six stages; the last step of a segment cut at an event
    reaches its end node through the continuous extension, with
    w = P [x, x^2, x^3, x^4] on all seven.
    """
    h, w, times, states, vdot, saddle = dense.step_stages(k, dims.n)
    s = len(w)
    mu = np.zeros((s, lam.size))
    for i in range(s - 1, -1, -1):
        theta = h * (w[i] * lam + RK_A[i + 1:s, i] @ mu[i + 1:s])
        mu[i] = adjoint_rhs(dyn, cost, dims, rho, times[i], states[i], theta,
                            vdot[i], saddle[i], h * w[i])
    return lam + mu.sum(axis=0)


@dataclass
class AdjointSolution:
    """Backward sweep result: gradient, initial-time adjoint, node series.

    ``times``/``series`` hold the adjoint at every forward node, in backward
    order; an event time appears twice, once per side.
    """

    gradient: np.ndarray
    lam_t0: AdjointState
    times: np.ndarray            # descending (backward order)
    series: np.ndarray           # rows: stacked [lamQ; lamV; lamGamma] per node
    traj: HybridTrajectory  # its cost is the one swept

    def lam_at(self, t: float) -> AdjointState:
        """Adjoint inside the smooth segment covering t: the stored value at
        a node, else the continuous adjoint ODE integrated from the first
        node after t back to t, over at most one forward step, as a forward
        integration in the reversed time s = -t, whose right side is
        ``adjoint_rhs`` as returned.

        At an event time the value is side-dependent; query strictly inside
        a segment to get an unambiguous answer.
        """
        dims, nc = self.traj.dims, self.traj.cost.nc
        row = 0
        for seg in reversed(self.traj.segments):
            nodes = seg.dense.node_times
            if seg.t_start <= t <= seg.t_end:
                i = int(np.searchsorted(nodes, t))
                y = self.series[row + len(nodes) - 1 - i].copy()
                if nodes[i] > t:
                    dyn, rho = seg.dynamics, self.traj.rho

                    def rhs(s, lam):
                        return adjoint_rhs(dyn, self.traj.cost, dims, rho, -s,
                                           seg.dense.evaluate(-s), lam)
                    _, (_, y), _ = integrate_segment(rhs, y, (-nodes[i], -t),
                                                     self.traj.config)
                lamQ, lamV, lamG = _split_lam(y, dims, nc)
                return AdjointState(lamQ, lamV, lamG, np.eye(nc))
            row += len(nodes)
        raise ValueError(f"t={t} outside the adjoint solution span")


def propagate_adjoint(traj: HybridTrajectory,
                      cost: CostFunctional | None = None) -> AdjointSolution:
    """Discrete adjoint sweep over a stored hybrid trajectory.

    Each segment's forward steps are transposed in reverse order
    (``_step_adjoint``).  Events are not re-detected: the stored records
    supply both the exact event times (segment boundaries) and the jump
    matrices whose transposes map the adjoint across each discontinuity.

    ``cost``, if given, must be the run's own cost object (``traj.cost``):
    the stored jump matrices carry that cost's quadrature rows, and its
    outputs are in the step-size control, so the adjoint of any other cost
    would be wrong.  It is refused with a ValueError.
    """
    if cost is not None and cost is not traj.cost:
        run_cost = "no cost" if traj.cost is None else f"cost '{traj.cost.name}'"
        raise ValueError(f"cost '{cost.name}' is not the run's own cost: the run was "
                         f"simulated with {run_cost}; simulate with '{cost.name}' "
                         "to take its adjoint")
    cost = traj.cost
    if cost is None:
        raise ValueError("adjoint propagation needs the cost functional")
    dims, rho, nc = traj.dims, traj.rho, cost.nc

    lam = _transposed(traj.terminal_gradients(), nc)

    times_acc = []
    series_acc = []
    for k in range(len(traj.segments) - 1, -1, -1):
        seg = traj.segments[k]
        y = _join_lam(lam.lamQ, lam.lamV, lam.lamGamma)
        nodes = [y]
        for j in range(len(seg.dense) - 1, -1, -1):
            y = _step_adjoint(seg.dynamics, cost, dims, rho, seg.dense, j, y)
            nodes.append(y)
        times_acc.append(seg.dense.node_times[::-1])
        series_acc.append(np.array(nodes))
        lamQ, lamV, lamG = _split_lam(y, dims, nc)
        lam = AdjointState(lamQ, lamV, lamG, np.eye(nc))

        if k > 0:
            lam = traj.events[k - 1].jump.apply_adjoint(lam)

    gradient = assemble_cost_sensitivity_adjoint(lam, traj.initial.dq0_drho,
                                                 traj.initial.dv0_drho)
    return AdjointSolution(gradient=gradient, lam_t0=lam, times=np.concatenate(times_acc),
                           series=np.vstack(series_acc), traj=traj)


def assemble_cost_sensitivity_adjoint(lam_t0: AdjointState, dq0_drho, dv0_drho) -> np.ndarray:
    """Total cost gradient from the backward pass:

        dpsi/drho = lamQ(t0)^T dq0/drho + lamV(t0)^T dv0/drho + lamGamma(t0)^T.
    """
    dq0 = np.atleast_2d(np.asarray(dq0_drho, dtype=float))
    dv0 = np.atleast_2d(np.asarray(dv0_drho, dtype=float))
    return lam_t0.lamQ.T @ dq0 + lam_t0.lamV.T @ dv0 + lam_t0.lamGamma.T
