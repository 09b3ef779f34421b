"""Independent finite-difference sensitivity oracle.

Central differences of the full hybrid simulation around the nominal
parameter vector.  The oracle shares only the forward simulator with the
tangent-linear and adjoint pipelines; none of the Jacobian or jump-matrix
machinery is touched here, which is what makes it a meaningful referee.

Pointwise trajectory differences are unreliable in a window around each
event time (the perturbed and nominal runs cross the event at slightly
different times, producing spurious spikes of order 1/h); such samples are
flagged rather than silently reported.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _perturbed_runs(dyn, cost, events, rho, t_span, config, h_rel, sig0,
                    measure=lambda traj: traj):
    """Per parameter j, the central-difference pair (measure(traj+),
    measure(traj-), step), refusing a run whose event sequence is not sig0."""
    for j in range(rho.size):
        h = h_rel * max(1.0, abs(rho[j]))
        rp = rho.copy()
        rm = rho.copy()
        rp[j] += h
        rm[j] -= h
        pair = []
        for r in (rp, rm):
            traj = simulate(dyn, cost, events, r, t_span, config)
            if _event_signature(traj) != sig0:
                raise EventTopologyError(
                    f"event topology changed under perturbation of parameter {j}; "
                    f"reduce h_rel (={h_rel:g})"
                )
            pair.append(measure(traj))
        yield pair[0], pair[1], rp[j] - rm[j]


def fd_cost_sensitivity(dyn, cost, events, rho, t_span,
                        config: IntegratorConfig | None = None,
                        h_rel: float = DEFAULT_H_REL, nominal=None) -> np.ndarray:
    """Central-difference gradient of the total cost, one column per parameter.

    Every perturbed run must reproduce the nominal event sequence; crossing
    an event-topology change makes the difference quotient meaningless and
    raises instead of returning garbage.  The nominal run serves only for
    that sequence: a caller that already has it (a trajectory of the same
    rho, time span and config) passes it as ``nominal``, else it is
    simulated here.
    """
    if cost is None:
        raise ValueError("the finite-difference cost gradient needs the cost functional")
    check_h_rel(h_rel)
    config = config or IntegratorConfig()
    rho = np.asarray(rho, dtype=float)
    if nominal is None:
        nominal = simulate(dyn, cost, events, rho, t_span, config)
    elif not (np.array_equal(nominal.rho, rho) and nominal.config == config
              and (nominal.t0, nominal.tF) == (float(t_span[0]), float(t_span[1]))):
        raise ValueError("the nominal run must have the same rho, time span and config")
    grad = np.zeros((cost.nc, rho.size))
    runs = _perturbed_runs(dyn, cost, events, rho, t_span, config, h_rel,
                           _event_signature(nominal), _cost_value)
    for j, (psi_p, psi_m, step) in enumerate(runs):
        grad[:, j] = (psi_p - psi_m) / step
    return grad


@dataclass
class TrajectorySensitivitySample:
    t: float
    dq_drho: np.ndarray
    dv_drho: np.ndarray
    dz_drho: np.ndarray
    reliable: bool


def fd_trajectory_sensitivity(dyn, cost, events, rho, t_span, sample_times,
                              config: IntegratorConfig | None = None,
                              h_rel: float = DEFAULT_H_REL):
    """Pointwise central differences of the interpolated states.

    A sample is flagged unreliable when it falls inside the spread of the
    corresponding event times across the nominal and perturbed runs (padded
    by ten times the event-time tolerance): inside that window the finite
    difference sees the jump itself, not the sensitivity.
    """
    check_h_rel(h_rel)
    config = config or IntegratorConfig()
    rho = np.asarray(rho, dtype=float)
    nominal = simulate(dyn, cost, events, rho, t_span, config)
    runs = list(_perturbed_runs(dyn, cost, events, rho, t_span, config, h_rel,
                                _event_signature(nominal)))

    # unreliable windows from the event-time spread across all runs
    pad = 10.0 * config.event_tol
    windows = []
    for k in range(len(nominal.events)):
        ts = [nominal.events[k].t_eve]
        for tp, tm, _ in runs:
            ts.append(tp.events[k].t_eve)
            ts.append(tm.events[k].t_eve)
        windows.append((min(ts) - pad, max(ts) + pad))

    n = dyn.dims.n
    samples = []
    for t in np.asarray(sample_times, dtype=float):
        # one column [dq; dv; dz] per parameter, dz as wide as the state's z
        D = np.column_stack([(np.concatenate(tp.state_at(t)) - np.concatenate(tm.state_at(t)))
                             / step for tp, tm, step in runs])
        dq, dv, dz = D[:n], D[n:2 * n], D[2 * n:]
        reliable = not any(lo <= t <= hi for lo, hi in windows)
        samples.append(TrajectorySensitivitySample(float(t), dq, dv, dz, reliable))
    return samples
