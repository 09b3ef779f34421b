"""Independent finite-difference sensitivity oracle.

Central differences of the total cost of the full hybrid simulation around
the nominal parameter vector, as ``hybridsens fd-check`` reports them.  The
oracle shares only the forward simulator with the tangent-linear and
adjoint pipelines; none of the Jacobian or jump-matrix machinery is touched
here, which is what makes it a meaningful referee.  (The pointwise referee
of ``HybridTrajectory.sensitivity_at`` is test code: ``tests/test_oracle.py``.)
"""

from __future__ import annotations

import numpy as np

from .direct import simulate
from .integrate import IntegratorConfig

DEFAULT_H_REL = 1e-6


class EventTopologyError(RuntimeError):
    """A perturbed run produced a different event sequence than the nominal."""


def _cost_value(traj):
    """Total cost psi = z(tF) + w(tF) of one run."""
    final = traj.final_state
    return final[2] + traj.terminal_gradients(final)[0]


def check_h_rel(h_rel):
    """Refuse a relative step that is not finite and positive: a zero step
    divides 0 by 0, and the difference quotient would read NaN."""
    if not (np.isfinite(h_rel) and h_rel > 0):
        raise ValueError(f"h_rel must be finite and positive, got {h_rel!r}")


def _event_signature(traj):
    return tuple((rec.name, rec.kind) for rec in traj.events)


def fd_cost_sensitivity(dyn, cost, events, rho, t_span,
                        config: IntegratorConfig | None = None,
                        h_rel: float = DEFAULT_H_REL, nominal=None) -> np.ndarray:
    """Central-difference gradient of the total cost, one column per parameter.

    Every perturbed run must reproduce the nominal event sequence; crossing
    an event-topology change makes the difference quotient meaningless and
    raises instead of returning garbage.  The nominal run serves only for
    that sequence: a caller that already has it (a trajectory of the same
    rho, time span and config, simulated with this ``cost`` and ``dyn``
    object) passes it as ``nominal``, else it is simulated here.
    """
    if cost is None:
        raise ValueError("the finite-difference cost gradient needs the cost functional")
    check_h_rel(h_rel)
    config = config or IntegratorConfig()
    rho = np.asarray(rho, dtype=float)
    if nominal is None:
        nominal = simulate(dyn, cost, events, rho, t_span, config)
    elif not (np.array_equal(nominal.rho, rho) and nominal.config == config
              and (nominal.t0, nominal.tF) == (float(t_span[0]), float(t_span[1]))
              and nominal.cost is cost and nominal.segments[0].dynamics is dyn):
        raise ValueError("the nominal run must have the same rho, time span and config, "
                         "and be simulated with the same cost and dynamics objects")
    sig0 = _event_signature(nominal)
    grad = np.zeros((cost.nc, rho.size))
    for j in range(rho.size):
        h = h_rel * max(1.0, abs(rho[j]))
        rp = rho.copy()
        rm = rho.copy()
        rp[j] += h
        rm[j] -= h
        psi = []
        for r in (rp, rm):
            traj = simulate(dyn, cost, events, r, t_span, config)
            if _event_signature(traj) != sig0:
                raise EventTopologyError(
                    f"event topology changed under perturbation of parameter {j}; "
                    f"reduce h_rel (={h_rel:g})"
                )
            psi.append(_cost_value(traj))
        grad[:, j] = (psi[0] - psi[1]) / (rp[j] - rm[j])
    return grad
