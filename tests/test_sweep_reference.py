"""Byte-for-byte references for the sensitivity sweeps and the saddle partials.

The sweeps read the stage times and states a forward step evaluated from
the segment's records, and the adjoint stages use the reversed-time
derivative ``adjoint_rhs`` returns as it is.  The references here keep the
plain conventions instead: all seven stage states and times rebuilt from the
stored nodes and stages, and the adjoint stage mu_i = -lam' from the
forward-time derivative lam'.  Both must give the same bytes: a change in the order of an
operation moves the gradients by round-off only, so only a bytewise check
catches it."""

import dataclasses

import numpy as np
import pytest

from hybridsens.adjoint import propagate_adjoint
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
from hybridsens.integrate import RK45, RK_A, DenseSegment, integrate_segment
from hybridsens.model import CostFunctional, cost_density_gradients, terminal_cost_gradients
from conftest import columns, forced_mass
from test_constrained import five_bar_states, pendulum_states

# the Dormand-Prince nodes c_i, with c = 1 for the derivative at the step end
RK_C = np.append(RK45.C, 1.0)


def rebuilt_stages(dense, k, n):
    """(h, w, times, states, vdot, mu) of step k with all seven stage
    states rebuilt from the stored stages, y_k + h sum_{j<i} a_ij K_j, at
    the times the forward step evaluated them: t_k + c_i h, but stage 0 of
    step k > 0 at t_k-1 + h_k-1, where step k - 1 evaluated it as its end
    derivative (FSAL)."""
    t_old, y_old = dense.node_times[k], dense.node_states[k]
    h, K = dense.steps[k], dense.stages[6 * k:6 * k + 7]
    times = t_old + RK_C * h
    if k:
        times[0] = dense.node_times[k - 1] + dense.steps[k - 1]
    if dense.truncated and k == len(dense) - 1:
        x = (dense.node_times[k + 1] - t_old) / h
        w = RK45.P @ np.cumprod(np.tile(x, RK45.P.shape[1]))
    else:
        w = RK45.B
    states = [y_old + np.dot(K[:i].T, RK_A[i, :i]) * h for i in range(len(RK_C))]
    mu = dense.multipliers[6 * k:6 * (k + 1) + 1]
    return h, w, times, states, K[:, n:2 * n], mu


def lam_dot(dyn, cost, n, rho, t, x, y, vdot=None, mu=None, weight=1.0):
    """The forward-time adjoint derivative lam' = -(J^T lam + w g_y^T)."""
    q, v = x[:n], x[n:2 * n]
    lam = y.reshape(-1, cost.nc)
    lamV = lam[n:2 * n]
    jac = dyn.jacobians(t, q, v, rho, vdot, mu)
    f_q, f_v, f_rho = columns(jac[2], n)
    if weight and (cost.g is not None or cost.g_of_mu is not None):
        g_q, g_v, g_rho = columns(cost_density_gradients(cost, t, q, v, rho, jac), n)
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
    wq, wv, wr = columns(terminal_cost_gradients(cost, traj.segments[-1].dynamics, traj.tF,
                                                 qF, vF, rho)[1], n)
    lam = AdjointState(wq.T.copy(), wv.T.copy(), wr.T.copy(), np.eye(nc))
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
            L = traj.events[k - 1].jump.S.T @ lam.stacked()
            lam = AdjointState(L[:n], L[n:2 * n], L[2 * n:2 * n + p], L[2 * n + p:])
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
                                seg.dense.evaluate(-s), lam), None
            return integrate_segment(rhs, y, (-nodes[i], -t), traj.config)[0].node_states[-1]
        row += len(nodes)
    raise AssertionError(f"t={t} is not inside a segment")


def reference_tangent(traj, cost, ic):
    """(node series per segment, stages per segment, X_F) of the discrete
    tangent on rebuilt stage states, reusing each step's last stage as the
    next one's first; each step's seven stages are kept."""
    dims, rho, n, p = traj.dims, traj.rho, traj.dims.n, traj.dims.p
    X = SensitivityState(ic.dq0_drho, ic.dv0_drho, np.eye(p), np.zeros((cost.nc, p)))
    nodes_per_segment, stages_per_segment = [], []
    for k, seg in enumerate(traj.segments):
        if k:
            Xs = traj.events[k - 1].jump.S @ X.stacked()
            X = SensitivityState(Xs[:n], Xs[n:2 * n], Xs[2 * n:2 * n + p], Xs[2 * n + p:])
        x, KX0 = np.vstack([X.Q, X.V, X.Z]).ravel(), None
        nodes, stages = [x], []
        for j in range(len(seg.dense)):
            h, w, ts, states, vdot, mu = rebuilt_stages(seg.dense, j, n)
            KX = np.empty((len(ts), x.size))
            first = 0
            if KX0 is not None:
                KX[0], first = KX0, 1
            for i in range(first, len(ts)):
                X_i = x + np.dot(KX[:i].T, RK_A[i, :i]) * h
                KX[i] = tangent_rhs(seg.dynamics, cost, dims, rho, ts[i], states[i][:n],
                                    states[i][n:2 * n], X_i, vdot[i], mu[i])
            x = x + np.dot(KX[:len(w)].T, w) * h
            nodes.append(x)
            stages.append(KX)
            KX0 = KX[-1]
        nodes_per_segment.append(np.array(nodes))
        stages_per_segment.append(stages)
        X = _sensitivity(x, dims)
    return nodes_per_segment, stages_per_segment, X


def stage_record(per_step):
    """One segment's per-step seven stages as a stage record: rows 0..5 of
    each step, then the last step's row 6 (every other row 6 is the next
    step's row 0)."""
    return np.concatenate([KX[:6] for KX in per_step] + [per_step[-1][6:]])


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
    # forces and costs of t, from t0 < 0: steps cross t = 0
    "forced-mass-int-forced": (forced_mass, "int-forced", None, None),
    "forced-mass-final-forced": (forced_mass, "final-forced", None, None),
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
    nodes, _, X = reference_tangent(traj, cost, prob.dynamics.model.initial_state(rho))
    for seg, ref in zip(traj.segments, nodes, strict=True):
        assert seg.tangent.node_states.tobytes() == ref.tobytes()
    for a, b in ((XF.Q, X.Q), (XF.V, X.V), (XF.Z, X.Z)):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


EXTENSIONS = {
    "five-bar-penalty": SWEEPS["five-bar-penalty"],
    "five-bar-dae": SWEEPS["five-bar-dae"],
    "bouncing-mass": SWEEPS["bouncing-mass"],
    "pendulum": SWEEPS["pendulum-int-vx"],
    "forced-mass": SWEEPS["forced-mass-int-forced"],
}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_sensitivity_at_is_bytewise_the_stored_stage_extension(name):
    # the sweep keeps node tangents only: sensitivity_at sweeps the step
    # covering t again, and the rows propagate_direct samples are evaluated
    # from the segment's stages in the sweep; both must be the continuous
    # extension of the reference's stored stages, at nodes, inside every step
    # and at event times (the pre-event value)
    make, cname, rho, t_span = EXTENSIONS[name]
    prob = make()
    cost = prob.cost(cname)
    rho = prob.rho0.rho if rho is None else rho
    traj = simulate(prob.dynamics, cost, prob.events, rho, t_span or prob.t_span, prob.config)
    assert traj.events
    nodes, stages, _ = reference_tangent(traj, cost, traj.initial)
    extensions = [DenseSegment(seg.dense.node_times, ref, stage_record(KX), seg.dense.steps,
                               seg.dense.truncated)
                  for seg, ref, KX in zip(traj.segments, nodes, stages, strict=True)]
    times = np.unique(np.concatenate(
        [seg.dense.node_times for seg in traj.segments]
        + [seg.dense.node_times[:-1] + 0.375 * np.diff(seg.dense.node_times)
           for seg in traj.segments]))

    def reference(t):
        # the first segment whose span holds t, as segment_at picks it
        return next(ext for ext in extensions
                    if ext.node_times[0] <= t <= ext.node_times[-1]).evaluate(t)

    def swept(t):
        X = traj.sensitivity_at(t)
        return np.vstack([X.Q, X.V, X.Z]).tobytes()

    propagate_direct(traj, at=times)
    rows = [(t, row) for seg in traj.segments
            for t, row in zip(seg.tangent.sample_times.tolist(), seg.tangent.samples)]
    assert [t for t, _ in rows] == times.tolist()
    for t, row in rows:
        assert row.tobytes() == reference(t).tobytes(), ("sampled", t)
        assert swept(t) == reference(t).tobytes(), ("swept", t)
    for seg, ext in zip(traj.segments[:-1], extensions):
        assert swept(seg.t_end) == ext.node_states[-1].tobytes()


def test_every_sweep_reads_the_forward_pass_stage_clock():
    # stage 0 of step k > 0 is the derivative step k - 1 evaluated at its end,
    # t_k-1 + h_k-1, which can differ from node time k in the last bit (for a
    # step from t < 0); with node time k moved by one ulp, step k's stage 0
    # must still be step k - 1's stage 6, and sensitivity_at, which sweeps
    # step k again from its node, must give the row the one sweep samples
    prob = forced_mass()
    cost = prob.cost()
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span, prob.config)
    seg, n = traj.segments[0], traj.dims.n
    dense = seg.dense
    assert seg.t_start < 0.0 < seg.t_end
    k = len(dense) // 2
    t_fsal = dense.node_times[k - 1] + dense.steps[k - 1]
    assert t_fsal == dense.node_times[k]
    node_times = dense.node_times.copy()  # the stored nodes are read-only
    node_times[k] = np.nextafter(node_times[k], np.inf)
    dense.node_times = node_times
    stage_0 = [a[0] for a in dense.step_stages(k, n)[2:]]
    stage_6 = [a[6] for a in dense.step_stages(k - 1, n)[2:]]
    assert [np.asarray(a).tobytes() for a in stage_0] == [np.asarray(a).tobytes() for a in stage_6]

    t = dense.node_times[k] + 0.375 * dense.steps[k]
    propagate_direct(traj, at=[t])
    assert seg.tangent.sample_times.tolist() == [t]
    X = traj.sensitivity_at(t)
    assert np.vstack([X.Q, X.V, X.Z]).ravel().tobytes() == seg.tangent.samples[0].tobytes()

    # the model sees the one ulp: a stage evaluated at the moved node time
    # would give other bytes
    x, X_k = dense.node_states[k], seg.tangent.node_states[k]
    vdot, mu = stage_0[3], stage_0[4]
    at = [tangent_rhs(prob.dynamics, cost, traj.dims, traj.rho, s, x[:n], x[n:2 * n], X_k,
                      vdot, mu).tobytes()
          for s in (t_fsal, dense.node_times[k])]
    assert at[0] != at[1]


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
    route: a closure factors K, solves if no solution is given and stacks
    the right side (``reference_solve``), and the routine subtracts the K_z
    terms and solves."""
    model, cons, n = dyn.model, dyn.model.constraints, dyn.dims.n

    def split(sol):
        return sol[:n], sol[n:]

    def linearize(t, q, v, rho, vdot, mu):
        G, solve, sol = reference_solve(dyn, t, q, v, rho)
        if mu is None:
            vdot, mu = split(sol)
        b_y = np.full((cons.m, 2 * n + rho.size), np.nan)
        dyn._source_partials(t, q, v, rho, G, cons.qq_action(t, q, rho, v), b_y)
        return solve, vdot, mu, np.vstack([model.force_jacobians(t, q, v, rho), b_y])

    return differentiate_saddle(model, t, q, v, rho, vdot, mu,
                                lambda *s: split(reference_solve(dyn, *s)[2]), linearize)


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
            vdot, mu, f_y, mu_y = dyn.jacobians(*state, *given)
            ref_vdot, ref_mu, ref = callback_route(dyn, *state, *given)
            assert vdot.tobytes() == ref_vdot.tobytes()
            assert mu.tobytes() == ref_mu.tobytes()
            assembled = np.vstack([f_y, mu_y])
            assert assembled.tobytes() == ref.tobytes()


def counted_saddle_routes(monkeypatch):
    """A list that grows by one per ``differentiate_saddle`` call made
    through the module ``constrained``, where every caller looks it up."""
    import hybridsens.constrained as constrained

    calls = []

    def counted(*args):
        calls.append(args)
        return differentiate_saddle(*args)

    monkeypatch.setattr(constrained, "differentiate_saddle", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SADDLES))
def test_saddle_jacobians_take_the_one_route(monkeypatch, name):
    # both constrained forms, analytic or central differences, with or
    # without the state's solution: one differentiate_saddle call each
    calls = counted_saddle_routes(monkeypatch)
    dyn, states = SADDLES[name](np.random.default_rng(47))
    for given in ((), dyn.accel_and_multipliers(*states[0])):
        calls.clear()
        dyn.jacobians(*states[0], *given)
        assert len(calls) == 1, (name, len(given))


def test_capture_blocks_take_the_one_route(monkeypatch):
    calls = counted_saddle_routes(monkeypatch)
    prob = pendulum()
    t, q, v, rho = pendulum_states(np.random.default_rng(47), 1)[0]
    *_, blocks = prob.events[0].state_jump(t, q, v, rho, prob.dynamics)
    assert not calls
    blocks(np.zeros(2), np.zeros(2))
    assert len(calls) == 1


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
            _, _, times, q_rec, v_rec, vdot_rec, mu_rec = seg.dense.step_stages(k, n)
            for t, q, v, a, m in zip(times, q_rec, v_rec, vdot_rec, mu_rec):
                vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
                ref = reference_solve(dyn, t, q, v, rho)[2]
                assert np.concatenate([vdot, mu]).tobytes() == ref.tobytes()
                assert vdot.tobytes() == a.tobytes() and mu.tobytes() == m.tobytes()
                solved += 1
    assert solved > 100
