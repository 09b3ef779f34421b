import numpy as np
import pytest

from hybridsens.core import AdjointState, Dimensions, SensitivityState
from hybridsens.hybrid import (
    ConstrainedElasticEvent,
    ConstrainedInelasticEvent,
    RhsSwitchEvent,
    StickingContactError,
    TangentialCrossingError,
    VelocityJumpEvent,
    apply_state_jump,
    build_jump_matrix,
    event_time_row,
)
from conftest import cost_density_value, stable_seed

G = 9.81


# -- event-time sensitivity ---------------------------------------------------


def test_event_time_sensitivity_zero_numerator():
    out = event_time_row(np.array([1.0, 0.0]), np.array([-2.0, 1.0])) @ np.zeros((2, 3))
    assert np.allclose(out, 0.0)


def test_event_time_sensitivity_bouncing_closed_form():
    h0 = 1.0
    v_minus = np.array([-np.sqrt(2 * G * h0)])
    out = event_time_row(np.array([1.0]), v_minus) @ np.array([[1.0]])
    assert abs(out[0, 0] - 1.0 / np.sqrt(2 * G * h0)) < 1e-5
    assert abs(out[0, 0] - 0.225762) < 1e-5


def test_event_time_sensitivity_scale_invariance():
    rng = np.random.default_rng(3)
    r_q = rng.normal(size=4)
    Q = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    base = event_time_row(r_q, v) @ Q
    for c in (2.0, -0.3, 1e6):
        assert np.allclose(event_time_row(c * r_q, v) @ Q, base, rtol=1e-12)


def test_tangential_crossing_rejected():
    with pytest.raises(TangentialCrossingError):
        event_time_row(np.array([1.0, 0.0]), np.array([0.0, 5.0]))


# -- state jumps --------------------------------------------------------------


def test_five_bar_state_jump_resolves_dependents():
    from hybridsens.gallery import five_bar

    prob = five_bar()
    dyn = prob.dynamics
    rho = prob.rho0.rho
    spec = prob.events[0]
    ic = dyn.model.initial_state(rho)
    q = ic.q0.copy()
    rng = np.random.default_rng(0)
    v_minus = rng.normal(size=6)
    # pre-state must satisfy the velocity constraints for the check to be fair
    cons = dyn.model.constraints
    Gm = cons.jac_q(0.0, q, rho)
    dep = [0, 1, 4, 5]
    v_minus[dep] = np.linalg.solve(Gm[:, dep], -Gm[:, [2, 3]] @ v_minus[[2, 3]])
    v_plus, dmu, dyn_plus, _ = apply_state_jump(spec, 0.0, q, v_minus, rho, dyn)
    assert dmu is None and dyn_plus is dyn
    assert v_plus[2] == v_minus[2]
    assert v_plus[3] == -v_minus[3]
    assert np.max(np.abs(Gm @ v_plus)) < 1e-10


def test_identity_dof_jump_keeps_velocities():
    from hybridsens.gallery import five_bar

    prob = five_bar()
    dyn = prob.dynamics
    rho = prob.rho0.rho
    ic = dyn.model.initial_state(rho)
    spec = ConstrainedElasticEvent(
        name="noop", r=lambda q: q[3] + 2.35,
        dof_jump=lambda t, q, vdof, rho: vdof,
        dof=(2, 3),
    )
    cons = dyn.model.constraints
    rng = np.random.default_rng(1)
    v = rng.normal(size=6)
    Gm = cons.jac_q(0.0, ic.q0, rho)
    dep = [0, 1, 4, 5]
    v[dep] = np.linalg.solve(Gm[:, dep], -Gm[:, [2, 3]] @ v[[2, 3]])
    v_plus, _, _, _ = apply_state_jump(spec, 0.0, ic.q0, v, rho, dyn)
    assert np.max(np.abs(v_plus - v)) < 1e-10


@pytest.mark.parametrize("dof", [(0, 0), (-1,), (6,)])
def test_invalid_dof_refused_at_the_jump(dof):
    # n is the size of the velocity at the jump; nothing else holds a copy
    import dataclasses

    from hybridsens.gallery import five_bar, pendulum

    bar, pend = five_bar(), pendulum()
    ic = bar.dynamics.model.initial_state(bar.rho0.rho)
    for prob, n, q, v in ((bar, 6, ic.q0, ic.v0),
                          (pend, 2, np.array([0.0, -1.0]), np.array([0.3, -2.0]))):
        spec = dataclasses.replace(prob.events[0], dof=dof)
        with pytest.raises(ValueError, match=rf"'{spec.name}'.*n={n}"):
            apply_state_jump(spec, 0.0, q, v, prob.rho0.rho, prob.dynamics)


def test_point_mass_inelastic_hand_solve():
    from hybridsens.gallery import pendulum

    prob = pendulum()
    spec = prob.events[0]
    rho = prob.rho0.rho
    L = 1.0
    q = np.array([0.0, -L])          # capture at the bottom
    v_minus = np.array([0.3, -2.0])
    v_plus, dmu, dyn_plus, _ = apply_state_jump(spec, 0.0, q, v_minus, rho, prob.dynamics)
    # constraint phi = |q|^2 - L^2, G = 2 q^T = (0, -2L): radial velocity dies
    assert np.allclose(v_plus, [0.3, 0.0], atol=1e-12)
    # M v+ + G^T dmu = M v-  ->  dmu = m (v_y- - v_y+) / (-2L)
    assert np.allclose(dmu, [rho[2] * (-2.0) / (-2 * L * 1.0) * 1.0], atol=1e-12)


def test_impulse_energy_never_increases():
    from hybridsens.gallery import pendulum

    prob = pendulum()
    spec = prob.events[0]
    rho = prob.rho0.rho
    rng = np.random.default_rng(7)
    for _ in range(50):
        th = rng.uniform(-np.pi, np.pi)
        q = np.array([np.sin(th), -np.cos(th)])
        v_minus = rng.normal(size=2, scale=3.0)
        v_plus, dmu, _, _ = apply_state_jump(spec, 0.0, q, v_minus, rho, prob.dynamics)
        m = rho[2]
        assert 0.5 * m * v_plus @ v_plus <= 0.5 * m * v_minus @ v_minus + 1e-12


def test_capture_impulse_partials_match_closed_form():
    # with M = m I and G = 2 q^T the capture's impulse map is
    # v+ = v- - q (q.v-)/(q.q) and dmu = m (q.v-)/(2 q.q); its imp_* blocks
    # are the partials of these in q, v- and rho = (x0, vy0, m)
    import sympy as sp
    from hybridsens.gallery import pendulum

    qs, vs, rs = sp.symbols("q1 q2"), sp.symbols("v1 v2"), sp.symbols("x0 vy0 m")
    qv, qq = sp.Matrix(qs).dot(sp.Matrix(vs)), sp.Matrix(qs).dot(sp.Matrix(qs))
    maps = {"v": sp.Matrix(vs) - sp.Matrix(qs) * qv / qq,
            "mu": sp.Matrix([rs[2] * qv / (2 * qq)])}
    closed = {f"imp_{out}_{z}": sp.lambdify((qs, vs, rs), f.jacobian(wrt), "numpy")
              for out, f in maps.items()
              for z, wrt in (("q", qs), ("v", vs), ("rho", rs))}
    prob = pendulum()
    spec, dyn = prob.events[0], prob.dynamics
    rng = np.random.default_rng(11)
    for _ in range(10):
        th = rng.uniform(-np.pi, np.pi)
        q = rng.uniform(0.5, 1.5) * np.array([np.sin(th), -np.cos(th)])
        v = rng.normal(size=2, scale=2.0)
        if abs(q @ v) < 0.3:                   # keep the crossing transversal
            v = v + q
        rho = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-2.0, 0.0), rng.uniform(0.5, 2.0)])
        t = rng.uniform(0.0, 1.0)
        vp, _, dyn_plus, own = apply_state_jump(spec, t, q, v, rho, dyn)
        zero = np.zeros(1)
        blocks = build_jump_matrix(dyn.dims, spec.r_jac(q), v, vp, dyn.accel(t, q, v, rho),
                                   dyn_plus.accel(t, q, vp, rho), zero, zero, own).blocks
        for name, f in closed.items():
            want = np.array(f(q, v, rho), dtype=float)
            scale = max(1.0, np.abs(want).max())
            assert np.max(np.abs(blocks[name] - want)) <= 1e-12 * scale, name


@pytest.mark.parametrize("model, tf, factorizations", [("five-bar", 0.6, 1), ("pendulum", None, 2)])
def test_an_event_factors_each_matrix_once(monkeypatch, model, tf, factorizations):
    # the state jump and its blocks of S share their factors: the five-bar
    # contact factors G_dep once, the tether capture its impulse KKT matrix
    # and G_dep once each; the accelerations' factors are not counted
    import hybridsens.constrained as constrained
    from hybridsens.direct import simulate
    from hybridsens.gallery import register_gallery

    prob = register_gallery()[model]()
    rho = prob.rho0.rho
    t_span = prob.t_span if tf is None else (0.0, tf)
    traj = simulate(prob.dynamics, None, prob.events, rho, t_span, prob.config)
    rec, dyn = traj.events[0], traj.segments[0].dynamics
    t, q, vm = rec.t_eve, rec.q, rec.v_minus
    vdm = dyn.accel(t, q, vm, rho)
    calls, checked_lu = [], constrained.checked_lu
    monkeypatch.setattr(constrained, "checked_lu",
                        lambda A, what: calls.append(what) or checked_lu(A, what))
    vp, _, dyn_plus, blocks = apply_state_jump(rec.spec, t, q, vm, rho, dyn)
    before = len(calls)
    vdp = dyn_plus.accel(t, q, vp, rho)
    del calls[before:]
    zero = np.zeros(1)  # a run without a cost integrates one zero quadrature
    jump = build_jump_matrix(dyn.dims, rec.spec.r_jac(q), vm, vp, vdm, vdp, zero, zero, blocks)
    assert len(calls) == factorizations, calls
    assert np.array_equal(jump.S, rec.jump.S)


# -- jump matrices ------------------------------------------------------------


def _bouncing_context(rho=np.array([1.0, 0.9])):
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    dyn = prob.dynamics
    spec = prob.events[0]
    cost = prob.cost("int-vy")
    t_eve = np.sqrt(2 * rho[0] / G)
    q = np.array([0.0])
    v_minus = np.array([-G * t_eve])
    v_plus, _, dyn_plus, blocks = apply_state_jump(spec, t_eve, q, v_minus, rho, dyn)
    vdm = dyn.accel(t_eve, q, v_minus, rho)
    vdp = dyn_plus.accel(t_eve, q, v_plus, rho)
    gm = cost_density_value(cost, dyn, t_eve, q, v_minus, rho)
    gp = cost_density_value(cost, dyn_plus, t_eve, q, v_plus, rho)
    jump = build_jump_matrix(dyn.dims, spec.r_jac(q), v_minus, v_plus,
                             vdm, vdp, gm, gp, blocks)
    ctx = dict(spec=spec, dims=dyn.dims, t=t_eve, q=q, vm=v_minus, vp=v_plus,
               vdm=vdm, vdp=vdp, gm=gm, gp=gp, rho=rho, dyn=dyn)
    return jump, ctx


def test_noop_event_jump_is_identity():
    dims = Dimensions(n=2, p=2)
    spec = VelocityJumpEvent(
        name="noop", r=lambda q: q[1] - 1.0,
        h=lambda t, q, v, rho: v,
    )
    q, v = np.array([0.0, 1.0]), np.array([0.4, 2.0])
    vdot = np.array([0.0, -G])
    g = np.array([0.7])
    v_plus, _, _, blocks = apply_state_jump(spec, 0.5, q, v, np.ones(2), None)
    jump = build_jump_matrix(dims, spec.r_jac(q), v, v_plus, vdot, vdot, g, g, blocks)
    rng = np.random.default_rng(5)
    X = SensitivityState(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), rng.normal(size=(1, 2)))
    X2 = jump.apply_direct(X)
    assert np.allclose(X2.stacked(), X.stacked(), atol=1e-12)
    lam = AdjointState(rng.normal(size=(2, 1)), rng.normal(size=(2, 1)),
                       rng.normal(size=(2, 1)), np.eye(1))
    lam2 = jump.apply_adjoint(lam)
    assert np.allclose(lam2.stacked(), lam.stacked(), atol=1e-12)


def test_gamma_rows_are_identity_block():
    jump, ctx = _bouncing_context()
    dims = jump.dims
    n, p, nc = dims.n, dims.p, ctx["gp"].size
    S = jump.S
    gamma_rows = S[2 * n:2 * n + p, :]
    expect = np.zeros((p, 2 * n + p + nc))
    expect[:, 2 * n:2 * n + p] = np.eye(p)
    assert np.array_equal(gamma_rows, expect)


def test_bounce_jump_matches_fd_across_event():
    # propagate X through the bounce via S and compare with FD of the
    # post-event state evaluated strictly after the event
    from hybridsens.direct import propagate_direct, simulate
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    rho = prob.rho0.rho
    cost = prob.cost("int-vy")
    t_probe = 0.6  # after the first bounce (~0.4515), before the second
    traj = simulate(prob.dynamics, cost, prob.events, rho, (0.0, t_probe), prob.config)
    propagate_direct(traj)
    X = traj.sensitivity_at(t_probe)
    h = 1e-6
    for j in range(2):
        rp, rm = rho.copy(), rho.copy()
        rp[j] += h
        rm[j] -= h
        tp = simulate(prob.dynamics, cost, prob.events, rp, (0.0, t_probe), prob.config)
        tm = simulate(prob.dynamics, cost, prob.events, rm, (0.0, t_probe), prob.config)
        (qp, vp, _), (qm, vm, _) = tp.state_at(t_probe), tm.state_at(t_probe)
        assert abs((qp[0] - qm[0]) / (2 * h) - X.Q[0, j]) < 1e-4 * max(1, abs(X.Q[0, j]))
        assert abs((vp[0] - vm[0]) / (2 * h) - X.V[0, j]) < 1e-4 * max(1, abs(X.V[0, j]))


def test_z_jump_equals_density_difference():
    jump, ctx = _bouncing_context()
    rng = np.random.default_rng(11)
    X = SensitivityState(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)),
                         np.eye(2), rng.normal(size=(1, 2)))
    X2 = jump.apply_direct(X)
    dt_drho = event_time_row(np.array([1.0]), ctx["vm"]) @ X.Q
    expect = X.Z - np.outer(ctx["gp"] - ctx["gm"], dt_drho)
    assert np.allclose(X2.Z, expect, atol=1e-12)


def test_parameter_columns_from_gamma():
    # zero state blocks with Gamma = I pick out exactly the parameter columns
    jump, _ = _bouncing_context()
    p = jump.dims.p
    X = SensitivityState(np.zeros((1, p)), np.zeros((1, p)), np.eye(p),
                         np.zeros((1, p)))
    X2 = jump.apply_direct(X)
    assert np.allclose(X2.V, jump.blocks["h_rho"], atol=1e-14)
    assert np.allclose(X2.Q, 0.0, atol=1e-14)


# -- componentwise vs matrix forms and the bilinear identity -------------------
#
# The componentwise jump formulas evaluate the scalar jump equations
# directly, without S: the reference the matrix route is checked against
# (here and in acceptance criterion 7, through CASES).


def jump_componentwise_unconstrained(X: SensitivityState, w_row, dv, hq, hv, ht, hrho,
                                     vdot_minus, vdot_plus, v_minus, dg) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the unconstrained case."""
    dt_drho = w_row @ X.Q                        # (1, p)
    Qp = X.Q - dv.reshape(-1, 1) @ dt_drho
    bracket = hq @ v_minus - vdot_plus + hv @ vdot_minus + ht
    Vp = hq @ X.Q + hv @ X.V + bracket.reshape(-1, 1) @ dt_drho + hrho @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)


def jump_componentwise_elastic(X: SensitivityState, dof, w_row, dv,
                               hq, hv, ht, hrho, vdot_minus, vdot_plus, v_minus,
                               dg, R, Rbar, Cblk, D) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the elastic case."""
    dof = list(dof)
    dep = [i for i in range(X.Q.shape[0]) if i not in dof]
    dt_drho = w_row @ X.Q
    Qp = np.empty_like(X.Q)
    Qp[dof, :] = X.Q[dof, :] - dv[dof].reshape(-1, 1) @ dt_drho
    Qp[dep, :] = R @ Qp[dof, :] + D @ X.Gamma
    bracket = hq @ v_minus - vdot_plus[dof] + hv @ vdot_minus[dof] + ht
    Vp = np.empty_like(X.V)
    Vp[dof, :] = (hq @ X.Q + hv @ X.V[dof, :]
                  + bracket.reshape(-1, 1) @ dt_drho + hrho @ X.Gamma)
    Vp[dep, :] = R @ Vp[dof, :] + Rbar @ Qp + Cblk @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)


def jump_componentwise_inelastic(X: SensitivityState, dof, w_row, dv,
                                 jq_v, jv_v, jrho_v, vdot_minus, vdot_plus,
                                 v_minus, dg, R, D) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the impulsive case."""
    dof = list(dof)
    dep = [i for i in range(X.Q.shape[0]) if i not in dof]
    dt_drho = w_row @ X.Q
    Qp = np.empty_like(X.Q)
    Qp[dof, :] = X.Q[dof, :] - dv[dof].reshape(-1, 1) @ dt_drho
    Qp[dep, :] = R @ Qp[dof, :] + D @ X.Gamma
    bracket = jq_v @ v_minus + jv_v @ vdot_minus - vdot_plus
    Vp = jq_v @ X.Q + jv_v @ X.V + bracket.reshape(-1, 1) @ dt_drho + jrho_v @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)


def _random_unconstrained_case(rng):
    n, p, nc = 3, 2, 2
    dims = Dimensions(n=n, p=p)
    A = rng.normal(size=(n, n))
    b = rng.normal(size=(n, p))
    spec = VelocityJumpEvent(
        name="syn",
        r=lambda q: q[0] - 0.1,
        h=lambda t, q, v, rho, A=A, b=b: np.tanh(A @ v) + b @ rho + 0.1 * np.sin(q) * t,
    )
    t = rng.uniform(0.1, 1.0)
    q = rng.normal(size=n)
    q[0] = 0.1
    v = rng.normal(size=n)
    if abs(v[0]) < 0.3:
        v[0] = 0.5
    rho = rng.normal(size=p)
    vp, _, _, blocks = apply_state_jump(spec, t, q, v, rho, None)
    vdm = rng.normal(size=n)
    vdp = rng.normal(size=n)
    gm = rng.normal(size=nc)
    gp = rng.normal(size=nc)
    jump = build_jump_matrix(dims, spec.r_jac(q), v, vp, vdm, vdp, gm, gp, blocks)
    ht, hq, hv, hrho = spec.jacobians(t, q, v, rho)
    w = event_time_row(spec.r_jac(q), v)
    comp = lambda X: jump_componentwise_unconstrained(
        X, w, vp - v, hq, hv, ht, hrho, vdm, vdp, v, gp - gm)
    return dims, nc, jump, comp


def _random_elastic_case(rng):
    from hybridsens.gallery import five_bar

    prob = five_bar()
    dyn = prob.dynamics
    spec = prob.events[0]
    cost = prob.cost("int-vy2")
    rho = prob.rho0.rho * rng.uniform(0.9, 1.1, size=2)
    dims = dyn.dims
    ic = dyn.model.initial_state(rho)
    q = ic.q0 + rng.normal(scale=0.05, size=6)
    t = rng.uniform(0.0, 1.0)
    v = rng.normal(scale=1.0, size=6)
    if abs(v[3]) < 0.3:
        v[3] = -1.0
    vp, _, dyn_plus, blocks = apply_state_jump(spec, t, q, v, rho, dyn)
    vdm = dyn.accel(t, q, v, rho)
    vdp = dyn_plus.accel(t, q, vp, rho)
    gm = cost_density_value(cost, dyn, t, q, v, rho)
    gp = cost_density_value(cost, dyn_plus, t, q, vp, rho)
    jump = build_jump_matrix(dims, spec.r_jac(q), v, vp, vdm, vdp, gm, gp, blocks)
    ht, hq, hv, hrho = spec.jacobians(t, q, v[list(spec.dof)], rho)
    w = event_time_row(spec.r_jac(q), v)
    b = jump.blocks
    comp = lambda X: jump_componentwise_elastic(
        X, spec.dof, w, vp - v, hq, hv, ht, hrho, vdm, vdp, v, gp - gm,
        b["R"], b["Rbar"], b["C"], b["D"])
    return dims, cost.nc, jump, comp


def _random_inelastic_case(rng):
    from hybridsens.gallery import pendulum

    prob = pendulum()
    dyn = prob.dynamics
    spec = prob.events[0]
    cost = prob.cost("int-vx")
    rho = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-2.0, 0.0),
                    rng.uniform(0.5, 2.0)])
    dims = dyn.dims
    th = rng.uniform(-1.0, 1.0)
    q = np.array([np.sin(th), -np.cos(th)])   # on the capture circle
    t = rng.uniform(0.1, 1.0)
    v = rng.normal(size=2, scale=2.0)
    if q @ v < 0.3:                            # ensure an outward crossing
        v = v - 2 * (q @ v) * q + 0.5 * q
    vp, _, dyn_plus, blocks = apply_state_jump(spec, t, q, v, rho, dyn)
    vdm = dyn.accel(t, q, v, rho)
    vdp = dyn_plus.accel(t, q, vp, rho)
    gm = cost_density_value(cost, dyn, t, q, v, rho)
    gp = cost_density_value(cost, dyn_plus, t, q, vp, rho)
    jump = build_jump_matrix(dims, spec.r_jac(q), v, vp, vdm, vdp, gm, gp, blocks)
    b = jump.blocks
    w = event_time_row(spec.r_jac(q), v)
    comp = lambda X: jump_componentwise_inelastic(
        X, spec.dof, w, vp - v, b["imp_v_q"], b["imp_v_v"],
        b["imp_v_rho"], vdm, vdp, v, gp - gm, b["R"] if "R" in b else None,
        b["D"])
    return dims, cost.nc, jump, comp


CASES = {
    "unconstrained": _random_unconstrained_case,
    "elastic": _random_elastic_case,
    "inelastic": _random_inelastic_case,
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_componentwise_equals_matrix(kind):
    rng = np.random.default_rng(stable_seed(kind))
    for _ in range(10):
        dims, nc, jump, comp = CASES[kind](rng)
        X = SensitivityState(rng.normal(size=(dims.n, dims.p)),
                             rng.normal(size=(dims.n, dims.p)),
                             rng.normal(size=(dims.p, dims.p)),
                             rng.normal(size=(nc, dims.p)))
        via_matrix = jump.apply_direct(X)
        via_comp = comp(X)
        scale = max(1.0, np.abs(via_matrix.stacked()).max())
        assert np.max(np.abs(via_matrix.stacked() - via_comp.stacked())) < 1e-12 * scale


@pytest.mark.parametrize("kind", sorted(CASES))
def test_bilinear_identity(kind):
    rng = np.random.default_rng(stable_seed(kind + "b"))
    for _ in range(20):
        dims, nc, jump, _ = CASES[kind](rng)
        X = SensitivityState(rng.normal(size=(dims.n, dims.p)),
                             rng.normal(size=(dims.n, dims.p)),
                             rng.normal(size=(dims.p, dims.p)),
                             rng.normal(size=(nc, dims.p)))
        lam = AdjointState(rng.normal(size=(dims.n, nc)),
                           rng.normal(size=(dims.n, nc)),
                           rng.normal(size=(dims.p, nc)),
                           rng.normal(size=(nc, nc)))
        left = (jump.apply_adjoint(lam).stacked().T @ X.stacked())
        right = lam.stacked().T @ jump.apply_direct(X).stacked()
        scale = max(1.0, np.abs(left).max())
        assert np.max(np.abs(left - right)) < 1e-12 * scale


def test_adjoint_jump_z_block_unchanged():
    jump, _ = _bouncing_context()
    rng = np.random.default_rng(21)
    lam = AdjointState(rng.normal(size=(1, 1)), rng.normal(size=(1, 1)),
                       rng.normal(size=(2, 1)), np.eye(1))
    lam2 = jump.apply_adjoint(lam)
    assert np.array_equal(lam2.lamZ, lam.lamZ)


# -- event-kind rules ---------------------------------------------------------


def _coasting_mass_switch():
    """1-dof mass launched at v0 = rho[0] that coasts until q = 0.5, where an
    RhsSwitchEvent engages the damping force -rho[1] v."""
    from hybridsens.model import CostFunctional, InitialConditions, MultibodyModel, OdeDynamics

    dims = Dimensions(n=1, p=2)

    def initial_state(rho):
        return InitialConditions(np.zeros(1), np.array([rho[0]]),
                                 np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    def model(force):
        return MultibodyModel(dims=dims, mass=lambda t, q, rho: np.eye(1), force=force,
                              initial_state=initial_state, mass_constant=True)

    coasting = OdeDynamics(model(lambda t, q, v, rho: np.zeros(1)))
    damped = OdeDynamics(model(lambda t, q, v, rho: -rho[1] * v))
    event = RhsSwitchEvent(name="damper", r=lambda q: q[0] - 0.5, post_dynamics=damped)
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: v ** 2,
                          w=lambda t, q, v, rho, u: q.copy())
    return coasting, [event], cost


def test_rhs_switch_gradients_agree():
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import direct_gradient
    from hybridsens.integrate import IntegratorConfig
    from hybridsens.oracle import fd_cost_sensitivity
    from conftest import rel_err

    dyn, events, cost = _coasting_mass_switch()
    rho, t_span, config = np.array([1.0, 2.0]), (0.0, 2.0), IntegratorConfig()
    grad, traj, _ = direct_gradient(dyn, cost, events, rho, t_span, config)
    assert [rec.kind for rec in traj.events] == ["RhsSwitchEvent"]
    assert traj.events[0].v_plus[0] == traj.events[0].v_minus[0]
    assert traj.segments[-1].dynamics is events[0].post_dynamics
    assert rel_err(propagate_adjoint(traj, cost).gradient, grad) <= 1e-12
    assert rel_err(fd_cost_sensitivity(dyn, cost, events, rho, t_span, config), grad) < 1e-5
    # closed form: the switch at t1 = 0.5 / v0 leaves T = tF - t1 of damped motion
    v0, c = rho
    T = t_span[1] - 0.5 / v0
    e1, e2 = np.exp(-c * T), np.exp(-2 * c * T)
    expect = [[0.5 + v0 * (1 - e2) / c + 0.5 * e2 + (1 - e1) / c + 0.5 * e1 / v0,
               -v0 ** 2 * (1 - e2) / (2 * c ** 2) + v0 ** 2 * T * e2 / c
               - v0 * (1 - e1) / c ** 2 + v0 * T * e1 / c]]
    assert rel_err(grad, expect) < 1e-7


def test_simulate_reads_r_q_once_per_event():
    # the departure check and the event-time row share one dr/dq
    from dataclasses import replace

    from hybridsens.direct import simulate
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    spec, calls = prob.events[0], []
    counted = replace(spec, dr_dq=lambda q: calls.append(q) or spec.dr_dq(q))
    traj = simulate(prob.dynamics, None, [counted], prob.rho0.rho, prob.t_span, prob.config)
    assert len(traj.events) == 2
    assert len(calls) == 2


def test_rhs_switch_requires_post_dynamics():
    with pytest.raises(ValueError, match="post_dynamics"):
        RhsSwitchEvent(name="switch", r=lambda q: q[0])


@pytest.mark.parametrize("e", [0.0, 1e-9])
def test_sticking_contact_rejected(e):
    # a bounce that does not leave the ground would let the mass fall
    # through it unmasked
    from hybridsens.direct import simulate
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    with pytest.raises(StickingContactError):
        simulate(prob.dynamics, None, prob.events, np.array([1.0, e]),
                 prob.t_span, prob.config)


def test_zeno_accumulation_rejected():
    # past the Zeno time (~8.58 s for h0 = 1, e = 0.9) the bounces no longer
    # clear the event surface before the mass falls back through it
    from hybridsens.direct import simulate
    from hybridsens.gallery import bouncing_mass
    from hybridsens.integrate import EventAccumulationError

    prob = bouncing_mass()
    with pytest.raises(EventAccumulationError):
        simulate(prob.dynamics, None, prob.events, prob.rho0.rho, (0.0, 10.0), prob.config)


def test_numerically_singular_dependent_block_rejected():
    # G_dep = [[1, 1], [1, 1 + 1e-14]] is regular but its pivot ratio ~1e14
    # exceeds COND_LIMIT: the dependent velocities would be noise
    from types import SimpleNamespace

    from hybridsens.constrained import SingularKKTError
    from hybridsens.model import ConstraintSet

    G = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 1e-14]])
    cons = ConstraintSet(m=2, phi=lambda t, q, rho: G @ q, phi_q=lambda t, q, rho: G)
    dyn = SimpleNamespace(model=SimpleNamespace(constraints=cons))
    spec = ConstrainedElasticEvent(
        name="near-singular", r=lambda q: q[0],
        dof_jump=lambda t, q, vdof, rho: -vdof,
        dof=(0,),
    )
    with pytest.raises(SingularKKTError):
        apply_state_jump(spec, 0.0, np.zeros(3), np.array([1.0, -0.5, -0.5]),
                         np.ones(1), dyn)
