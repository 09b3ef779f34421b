"""Discrete adjoint of a stored forward trajectory, the backward mirror of
the tangent sweep ``direct.propagate_direct``.

Between events the backward pass is the exact transpose of the forward
Runge-Kutta steps: each segment's accepted steps are swept from the last
to the first by integrate.py's ``DenseSegment.adjoint_step`` on the stage
right side ``adjoint_rhs``, at the stage states the forward step evaluated
(Sandu, "On the properties of Runge-Kutta discrete adjoints", ICCS 2006).
No step control runs backward and the forward state is never
interpolated.  Nothing is solved or rebuilt either: each stage's time,
positions, velocity, acceleration and multipliers are read from the
forward pass's stage records, so the sweep calls only the Jacobians.  At
each event the stored jump matrix acts through its transpose,
lam- = S^T lam+, on the sweep's array [lamQ; lamV; lamGamma] as it is
(``JumpMatrix.adjoint``), so the adjoint gradient equals the direct gradient
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
from functools import partial

import numpy as np

from .core import AdjointState, Dimensions
from .model import CostFunctional, cost_density_gradients
from .integrate import integrate_segment
from .direct import HybridTrajectory
# unused here; perfbench/spans.py counts factorizations at this name
from .constrained import checked_lu  # noqa: F401


def _adjoint_state(y: np.ndarray, dims: Dimensions, nc: int) -> AdjointState:
    """The AdjointState of a stacked adjoint y = [lamQ; lamV; lamGamma],
    one column per cost output, its blocks views of y."""
    n = dims.n
    lam = y.reshape(-1, nc)
    return AdjointState(lam[:n], lam[n:2 * n], lam[2 * n:], np.eye(nc))


def adjoint_rhs(dyn, cost: CostFunctional, dims: Dimensions, rho: np.ndarray,
                t: float, q: np.ndarray, v: np.ndarray, y: np.ndarray,
                vdot: np.ndarray | None = None, mu: np.ndarray | None = None,
                weight: float = 1.0) -> np.ndarray:
    """Derivative of the stacked adjoint y in the reversed time s = -t, at
    the forward positions q and velocities v with acceleration vdot and
    saddle multipliers mu (``dyn.accel_and_multipliers``; without them the
    Jacobian call solves for them):

        dlamQ/ds = f_q^T lamV + w g_q^T
        dlamV/ds = lamQ + f_v^T lamV + w g_v^T
        dlamG/ds = f_rho^T lamV + w g_rho^T

    that is J^T lam + w g_y^T = -lam', with lamZ = I substituted exactly and
    weighted by w: 1 for the continuous adjoint ODE, the stage's quadrature
    weight h w_i inside a discrete step.  Both sweeps use it as returned:
    the discrete stage's mu_i and ``AdjointSolution.lam_at``'s right side.
    The lamGamma block of y does not enter.  y is read as one (2n + p, nc)
    view.  The derivative is the one product f_y^T lamV, with lamQ added
    to its V rows and then w g_y^T to all its rows, in place: the V rows
    sum in the order lamQ + f_v^T lamV + w g_v^T.
    """
    n = dims.n
    lam = y.reshape(-1, cost.nc)  # rows [lamQ (n); lamV (n); lamGamma (p)]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    out = jac[2].T @ lam[n:2 * n]
    dV = out[n:2 * n]
    np.add(lam[:n], dV, out=dV)
    gT = 0.0  # a zero density: adding the scalar +0.0 is adding a zero block
    if weight and (cost.g is not None or cost.g_of_mu is not None):
        gT = (weight * cost_density_gradients(cost, t, q, v, rho, jac)).T
    out += gT
    return out.ravel()


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
        """Adjoint at t, found as ``HybridTrajectory.sensitivity_at`` finds
        the tangent (``segment_at``, then ``DenseSegment.locate``), so at an
        event time it is the pre-event value.  At a node it is the stored
        row; inside step k, the continuous adjoint ODE integrated from node
        k + 1 back to t, forward in the reversed time s = -t, whose right
        side is ``adjoint_rhs`` as returned."""
        traj = self.traj
        dims, nc, n = traj.dims, traj.cost.nc, traj.dims.n
        seg = traj.segment_at(t)
        dense = seg.dense
        k, on_node, t = dense.locate(t)
        y = self.series[np.count_nonzero(self.times >= t) - 1].copy()
        if not on_node:
            def rhs(s, lam):
                x = dense.evaluate(-s)
                return adjoint_rhs(seg.dynamics, traj.cost, dims, traj.rho, -s,
                                   x[:n], x[n:2 * n], lam), None
            y = integrate_segment(rhs, y, (-dense.node_times[k + 1], -t),
                                  traj.config)[0].node_states[-1]
        return _adjoint_state(y, dims, nc)


def propagate_adjoint(traj: HybridTrajectory,
                      cost: CostFunctional | None = None) -> AdjointSolution:
    """Discrete adjoint sweep over a stored hybrid trajectory.

    Each segment's forward steps are transposed in reverse order
    (``DenseSegment.adjoint_step``).  Events are not re-detected: the stored records
    supply both the exact event times (segment boundaries) and the jump
    matrices whose transposes map the adjoint across each discontinuity
    (``JumpMatrix.adjoint``).  The one ``AdjointState`` built is lam_t0.

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

    # terminal condition: w_y^T, whose rows are already [lamQ; lamV; lamGamma]
    y = traj.terminal_gradients()[1].T.flatten()

    times_acc = []
    series_acc = []
    for k in range(len(traj.segments) - 1, -1, -1):
        seg = traj.segments[k]
        nodes, rhs = [y], partial(adjoint_rhs, seg.dynamics, cost, dims, rho)
        for j in range(len(seg.dense) - 1, -1, -1):
            y = seg.dense.adjoint_step(j, dims.n, y, rhs)
            nodes.append(y)
        times_acc.append(seg.dense.node_times[::-1])
        series_acc.append(np.array(nodes))
        if k > 0:
            y = traj.events[k - 1].jump.adjoint(y.reshape(-1, nc)).ravel()

    lam = _adjoint_state(y, dims, nc)
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
