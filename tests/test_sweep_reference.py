"""Byte-for-byte references for the sensitivity sweeps and the saddle partials.

The sweeps take the stage states a forward step evaluated from the stored
nodes where a stage sits on one, and the adjoint stages use the
reversed-time derivative ``adjoint_rhs`` returns as it is.  The references
here keep the plain conventions instead: all seven stage states rebuilt from
the stored stages, and the adjoint stage mu_i = -lam' from the forward-time
derivative lam'.  Both must give the same bytes: a change in the order of an
operation moves the gradients by round-off only, so only a bytewise check
catches it."""

import dataclasses

import numpy as np
import pytest

from hybridsens.adjoint import propagate_adjoint, terminal_conditions
from hybridsens.constrained import (
    DaeDynamics,
    PenaltyDynamics,
    differentiate_saddle,
    saddle_factor,
)
from hybridsens.core import AdjointState, SensitivityState
from hybridsens.direct import _sensitivity, propagate_direct, simulate, tangent_rhs
from hybridsens.gallery import (
    FIVE_BAR_PARAMS,
    bouncing_mass,
    five_bar,
    pendulum,
    pendulum_model,
)
from hybridsens.integrate import RK45, RK_A, RK_C, integrate_segment
from hybridsens.model import CostFunctional, cost_density_gradients
from test_constrained import five_bar_states, pendulum_states


def rebuilt_stages(dense, k, n):
    """(h, w, times, states, vdot, mu) of step k with all seven stage
    states rebuilt from the stored stages, y_k + h sum_{j<i} a_ij K_j."""
    t_old, y_old = dense.node_times[k], dense.node_states[k]
    h, K = dense.steps[k], dense.stages[k]
    if dense.truncated and k == len(dense) - 1:
        x = (dense.node_times[k + 1] - t_old) / h
        w = RK45.P @ np.cumprod(np.tile(x, RK45.P.shape[1]))
    else:
        w = RK45.B
    states = [y_old + np.dot(K[:i].T, RK_A[i, :i]) * h for i in range(len(RK_C))]
    mu = dense.multipliers[6 * k:6 * (k + 1) + 1]
    return h, w, t_old + RK_C * h, states, K[:, n:2 * n], mu


def lam_dot(dyn, cost, n, rho, t, x, y, vdot=None, mu=None, weight=1.0):
    """The forward-time adjoint derivative lam' = -(J^T lam + w g_y^T)."""
    q, v = x[:n], x[n:2 * n]
    lam = y.reshape(-1, cost.nc)
    lamV = lam[n:2 * n]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    f_q, f_v, f_rho = jac[2]
    if weight and (cost.g is not None or cost.g_of_mu is not None):
        g_q, g_v, g_rho = cost_density_gradients(cost, t, q, v, rho, jac)
        gT_q, gT_v, gT_rho = (weight * g_q).T, (weight * g_v).T, (weight * g_rho).T
    else:
        gT_q = gT_v = gT_rho = 0.0
    out = np.empty(lam.shape)
    out[:n] = -(f_q.T @ lamV + gT_q)
    out[n:2 * n] = -(lam[:n] + f_v.T @ lamV + gT_v)
    out[2 * n:] = -(f_rho.T @ lamV + gT_rho)
    return out.ravel()


def join(lam):
    return np.concatenate([lam.lamQ.ravel(), lam.lamV.ravel(), lam.lamGamma.ravel()])


def split(y, n, p, nc):
    return AdjointState(y[:n * nc].reshape(n, nc), y[n * nc:2 * n * nc].reshape(n, nc),
                        y[2 * n * nc:].reshape(p, nc), np.eye(nc))


def reference_adjoint(traj, cost):
    """(gradient, times, series) of the transposed Dormand-Prince sweep."""
    n, p, nc, rho = traj.dims.n, traj.dims.p, cost.nc, traj.rho
    qF, vF, _ = traj.state_at(traj.tF)
    lam = terminal_conditions(cost, traj.segments[-1].dynamics, traj.tF, qF, vF, rho)
    times, series = [], []
    for k in range(len(traj.segments) - 1, -1, -1):
        seg = traj.segments[k]
        y = join(lam)
        series.append(y)
        for j in range(len(seg.dense) - 1, -1, -1):
            h, w, ts, states, vdot, saddle = rebuilt_stages(seg.dense, j, n)
            mu = np.zeros((len(w), y.size))
            for i in range(len(w) - 1, -1, -1):
                theta = h * (w[i] * y + RK_A[i + 1:len(w), i] @ mu[i + 1:len(w)])
                mu[i] = -lam_dot(seg.dynamics, cost, n, rho, ts[i], states[i], theta,
                                 vdot[i], saddle[i], h * w[i])
            y = y + mu.sum(axis=0)
            series.append(y)
        times.append(seg.dense.node_times[::-1])
        lam = split(y, n, p, nc)
        if k > 0:
            lam = traj.events[k - 1].jump.apply_adjoint(lam)
    ic = traj.segments[0].dynamics.model.initial_state(rho)
    gradient = lam.lamQ.T @ ic.dq0_drho + lam.lamV.T @ ic.dv0_drho + lam.lamGamma.T
    return gradient, np.concatenate(times), np.array(series)


def reference_lam_at(sol, t):
    """The stored adjoint at the first node after t, integrated back to t
    with the right side -lam' in the reversed time s = -t."""
    traj, cost, n = sol.traj, sol.traj.cost, sol.traj.dims.n
    row = 0
    for seg in reversed(traj.segments):
        nodes = seg.dense.node_times
        if seg.t_start < t < seg.t_end:
            i = int(np.searchsorted(nodes, t))
            y = sol.series[row + len(nodes) - 1 - i].copy()

            def rhs(s, lam):
                return -lam_dot(seg.dynamics, cost, n, traj.rho, -s,
                                seg.dense.evaluate(-s), lam)
            return integrate_segment(rhs, y, (-nodes[i], -t), traj.config)[1][1]
        row += len(nodes)
    raise AssertionError(f"t={t} is not inside a segment")


def reference_tangent(traj, cost, ic):
    """(node series per segment, X_F) of the discrete tangent on rebuilt
    stage states, reusing each step's last stage as the next one's first."""
    dims, rho, n = traj.dims, traj.rho, traj.dims.n
    X = SensitivityState.initial(dims, cost.nc, ic.dq0_drho, ic.dv0_drho)
    nodes_per_segment = []
    for k, seg in enumerate(traj.segments):
        if k:
            X = traj.events[k - 1].jump.apply_direct(X)
        x, KX0 = np.vstack([X.Q, X.V, X.Z]).ravel(), None
        nodes = [x]
        for j in range(len(seg.dense)):
            h, w, ts, states, vdot, mu = rebuilt_stages(seg.dense, j, n)
            KX = np.empty((len(ts), x.size))
            first = 0
            if KX0 is not None:
                KX[0], first = KX0, 1
            for i in range(first, len(ts)):
                X_i = x + np.dot(KX[:i].T, RK_A[i, :i]) * h
                KX[i] = tangent_rhs(seg.dynamics, cost, dims, rho, ts[i], states[i], X_i,
                                    vdot[i], mu[i])
            x = x + np.dot(KX[:len(w)].T, w) * h
            nodes.append(x)
            KX0 = KX[-1]
        nodes_per_segment.append(np.array(nodes))
        X = _sensitivity(x, dims)
    return nodes_per_segment, X


# a density of the state: the cost gradient at every stage, the truncated
# steps' last stage included, depends on that stage's state
INT_VY_SQUARED = CostFunctional(
    nc=1,
    g=lambda t, q, v, a, rho, u: np.array([v[0] ** 2]),
    g_partials=lambda t, q, v, a, rho, u: (np.zeros((1, 1)), np.array([[2.0 * v[0]]]),
                                           np.zeros((1, 1)), np.zeros((1, 2)), None),
    name="int-vy-squared",
)

SWEEPS = {
    # p = 8, ten contacts
    "five-bar-penalty": (lambda: five_bar(param_names=FIVE_BAR_PARAMS), "int-ay2sq-vy2sq",
                         None, None),
    "five-bar-dae": (lambda: five_bar(formulation="dae"), "int-ay2", None, None),
    # 16 impacts, each segment cut at its event by a truncated step
    "bouncing-mass": (bouncing_mass, "int-vy", np.array([1.0, 0.9]), (0.0, 7.0)),
    "bouncing-mass-int-vy-squared": (bouncing_mass, INT_VY_SQUARED, np.array([1.0, 0.9]),
                                     (0.0, 7.0)),
    # ODE to DAE at the capture; a density, and a terminal cost alone
    "pendulum-int-vx": (pendulum, "int-vx", None, None),
    "pendulum-x-final": (pendulum, "x-final", None, None),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweeps_are_bytewise_the_rebuilt_stage_references(name):
    make, cname, rho, t_span = SWEEPS[name]
    prob = make()
    cost = prob.cost(cname) if isinstance(cname, str) else cname
    rho = prob.rho0.rho if rho is None else rho
    request = (prob.dynamics, cost, prob.events, rho, t_span or prob.t_span, prob.config)
    traj = simulate(*request)
    if name.startswith("bouncing-mass"):
        assert len(traj.events) >= 14
    assert all(seg.dense.truncated for seg in traj.segments[:-1])

    sol = propagate_adjoint(traj, cost)
    gradient, times, series = reference_adjoint(traj, cost)
    assert sol.times.tobytes() == times.tobytes()
    assert sol.series.tobytes() == series.tobytes()
    assert sol.gradient.tobytes() == gradient.tobytes()
    for seg in (traj.segments[0], traj.segments[-1]):
        nodes = seg.dense.node_times
        t = 0.5 * (nodes[-2] + nodes[-1])
        assert join(sol.lam_at(t)).tobytes() == reference_lam_at(sol, t).tobytes(), t

    XF = propagate_direct(traj)
    nodes, X = reference_tangent(traj, cost, prob.dynamics.model.initial_state(rho))
    for seg, ref in zip(traj.segments, nodes, strict=True):
        assert seg.tangent.node_states.tobytes() == ref.tobytes()
    for a, b in ((XF.Q, X.Q), (XF.V, X.V), (XF.Z, X.Z)):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def reference_solve(dyn, t, q, v, rho):
    """(G, solve, [vdot; mu]): the saddle system at one state solved the
    plain way, ``saddle_factor(M, G, c)`` applied to ``np.concatenate([F, b])``."""
    model, cons = dyn.model, dyn.model.constraints
    G = cons.jac_q(t, q, rho)
    solve = saddle_factor(model.mass_at(t, q, rho), G, dyn._c, dyn._what)
    b = dyn._source(t, q, v, rho, G, cons.accel_rhs(t, q, v, rho))
    return G, solve, solve(np.concatenate([model.force_at(t, q, v, rho), b]))


def callback_route(dyn, t, q, v, rho, vdot=None, mu=None):
    """(vdot, mu, [f_z; mu_z]) through ``differentiate_saddle``'s callback
    route: a closure factors K, solves if no solution is given and fills
    the right side (``reference_solve``), and the routine subtracts the K_z
    terms and solves."""
    model, cons, n = dyn.model, dyn.model.constraints, dyn.dims.n

    def split(sol):
        return sol[:n], sol[n:]

    def rhs_partials():
        nonlocal vdot, mu
        G, solve, sol = reference_solve(dyn, t, q, v, rho)
        if mu is None:
            vdot, mu = split(sol)
        rhs = np.empty((n + cons.m, 2 * n + dyn.dims.p))
        rhs[:n, :n], rhs[:n, n:2 * n], rhs[:n, 2 * n:] = model.force_jacobians(t, q, v, rho)
        rhs[n:, :n], rhs[n:, n:2 * n], rhs[n:, 2 * n:] = dyn._source_partials(
            t, q, v, rho, G, cons.qq_action(t, q, rho, v))
        return solve, vdot, mu, rhs

    sol = differentiate_saddle(model, t, q, v, rho,
                               lambda *z: reference_solve(dyn, t, *z)[2], rhs_partials)
    if mu is None:
        vdot, mu = split(reference_solve(dyn, t, q, v, rho)[2])
    return vdot, mu, sol


def five_bar_case(formulation):
    def make(rng):
        prob = five_bar(param_names=FIVE_BAR_PARAMS, formulation=formulation)
        return prob.dynamics, five_bar_states(prob, rng, 4)
    return make


def tether_case(make, hessian=True):
    model = pendulum_model()
    if not hessian:
        model = dataclasses.replace(
            model, constraints=dataclasses.replace(model.constraints, hessian=None))
    return lambda rng: (make(model), pendulum_states(rng, 4))


SADDLES = {
    "five-bar-penalty": five_bar_case("penalty"),
    "five-bar-dae": five_bar_case("dae"),
    "tether-dae": tether_case(DaeDynamics),
    "tether-penalty": tether_case(PenaltyDynamics),
    "tether-dae-central-differences": tether_case(DaeDynamics, hessian=False),
}


@pytest.mark.parametrize("name", sorted(SADDLES))
def test_assembled_jacobians_are_bytewise_the_callback_route(name):
    dyn, states = SADDLES[name](np.random.default_rng(47))
    if name.startswith("tether"):
        assert not dyn.model.mass_constant
    for state in states:
        solved = dyn.accel_and_multipliers(*state)
        for given in ((), solved):
            vdot, mu, (f_q, f_v, f_rho), (g_q, g_v, g_rho) = dyn.jacobians(*state, *given)
            ref_vdot, ref_mu, ref = callback_route(dyn, *state, *given)
            assert vdot.tobytes() == ref_vdot.tobytes()
            assert mu.tobytes() == ref_mu.tobytes()
            assembled = np.vstack([np.hstack([f_q, f_v, f_rho]), np.hstack([g_q, g_v, g_rho])])
            assert assembled.tobytes() == ref.tobytes()


FORWARD = {
    "five-bar-penalty": (lambda: five_bar(param_names=FIVE_BAR_PARAMS), "int-ay2sq-vy2sq"),
    "five-bar-dae": (lambda: five_bar(formulation="dae"), "int-ay2"),
    # the tether's mass depends on the parameters: K holds M per state
    "pendulum-tether": (pendulum, "int-vx"),
}


@pytest.mark.parametrize("name", sorted(FORWARD))
def test_forward_solve_is_bytewise_the_reference_solve(name):
    # every recorded stage state of every constrained segment, solved again
    # by accel_and_multipliers and by the plain reference
    make, cname = FORWARD[name]
    prob = make()
    traj = simulate(prob.dynamics, prob.cost(cname), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    n, rho, solved = traj.dims.n, traj.rho, 0
    for seg in traj.segments:
        dyn = seg.dynamics
        if dyn.model.constraints is None:
            continue
        assert dyn.model.mass_constant == name.startswith("five-bar")
        for k in range(len(seg.dense)):
            _, _, times, states, vdot_rec, mu_rec = seg.dense.step_stages(k, n)
            for t, y, a, m in zip(times, states, vdot_rec, mu_rec):
                vdot, mu = dyn.accel_and_multipliers(t, y[:n], y[n:2 * n], rho)
                ref = reference_solve(dyn, t, y[:n], y[n:2 * n], rho)[2]
                assert np.concatenate([vdot, mu]).tobytes() == ref.tobytes()
                assert vdot.tobytes() == a.tobytes() and mu.tobytes() == m.tobytes()
                solved += 1
    assert solved > 100
