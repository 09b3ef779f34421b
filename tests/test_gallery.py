import dataclasses

import numpy as np
import pytest

from hybridsens.adjoint import propagate_adjoint
from hybridsens.direct import direct_gradient, propagate_direct, simulate
from hybridsens.gallery import (
    FIVE_BAR_DATA,
    bouncing_mass,
    five_bar,
    five_bar_model,
    pendulum,
    register_gallery,
)
from hybridsens.integrate import InadmissibleStartError
from hybridsens.model import CostFunctional, fd_jacobian
from hybridsens.oracle import fd_cost_sensitivity
from conftest import elementwise_close, rel_err

G = 9.81


def test_registry_names_and_costs():
    reg = register_gallery()
    assert set(reg) == {"five-bar", "bouncing-mass", "pendulum"}
    fb = reg["five-bar"]()
    assert set(fb.costs) == {"int-vy2", "int-ay2", "int-ay2sq-vy2sq"}
    assert fb.cost("int-vy2").name == "int-vy2"
    with pytest.raises(KeyError):
        fb.cost("nope")


def test_five_bar_refuses_repeated_and_unknown_parameter_names():
    # each name maps to one rho slot: ("k1", "k1") used to read only rho[1],
    # so rho[0] moved nothing and its gradient read 0
    for names in (("k1", "k1"), ("k1", "L21", "k1")):
        with pytest.raises(ValueError, match=r"repeated \['k1'\]"):
            five_bar(param_names=names)
    with pytest.raises(ValueError, match=r"unknown \['k9'\]"):
        five_bar_model(("k1", "k9"))


def test_five_bar_assembly_residual():
    model = five_bar_model()
    ic = model.initial_state(np.array([100.0, 100.0]))
    res = model.constraints.value(0.0, ic.q0, np.array([100.0, 100.0]))
    assert np.max(np.abs(res)) <= 1e-12
    assert np.allclose(ic.v0, 0.0)


def test_five_bar_stiffness_does_not_move_assembly():
    dq0 = five_bar_model().initial_state(np.array([100.0, 100.0])).dq0_drho
    assert np.allclose(dq0, 0.0)


def test_five_bar_assembly_sensitivity_wrt_length():
    names = ("k1", "LA1")
    rho = np.array([100.0, FIVE_BAR_DATA["LA1"]])
    model = five_bar_model(names)
    ic = model.initial_state(rho)

    def assemble(rr):
        return model.initial_state(rr).q0

    fd = fd_jacobian(assemble, rho)
    assert np.max(np.abs(ic.dq0_drho - fd)) < 1e-6


def test_five_bar_bounces_and_stays_above_ground():
    prob = five_bar()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    assert len(traj.events) >= 1
    ground = FIVE_BAR_DATA["ground"]
    for t in np.linspace(0.0, 5.0, 501):
        q, _, _ = traj.state_at(t)
        assert q[3] >= ground - 1e-6


def test_five_bar_length_parameters_fd_validated():
    # promoting a link length to a parameter exercises the constraint-rho
    # coupling (D and K blocks) through a real gradient
    prob = five_bar(param_names=("k1", "L21"))
    cost = prob.cost("int-vy2")
    rho = prob.rho0.rho
    grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events, rho,
                                    (0.0, 1.2), prob.config)
    sol = propagate_adjoint(traj, cost)
    fd = fd_cost_sensitivity(prob.dynamics, cost, prob.events, rho, (0.0, 1.2),
                             prob.config, h_rel=1e-6)
    assert len(traj.events) >= 1
    assert np.all(np.abs(sol.gradient - grad) <= 1e-6 * np.maximum(1.0, np.abs(grad)))
    assert np.all(np.abs(fd - grad) <= 2e-4 * np.maximum(1.0, np.abs(grad)))
    # the jump matrices must carry a nonzero constraint-parameter block
    assert any(np.any(rec.jump.blocks["D"]) for rec in traj.events)


def test_bouncing_mass_closed_form_gradients_all_pipelines():
    import sympy as sp

    prob = bouncing_mass()
    cost = prob.cost("height-final")
    rho = prob.rho0.rho
    grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events, rho,
                                    prob.t_span, prob.config)
    sol = propagate_adjoint(traj, cost)
    fd = fd_cost_sensitivity(prob.dynamics, cost, prob.events, rho,
                             prob.t_span, prob.config)

    h0s, es, ts = sp.symbols("h0 e tF", positive=True)
    t1 = sp.sqrt(2 * h0s / G)
    v1 = es * sp.sqrt(2 * G * h0s)
    t2 = t1 + 2 * v1 / G
    y = es * v1 * (ts - t2) - G * (ts - t2) ** 2 / 2
    subs = {h0s: rho[0], es: rho[1], ts: prob.t_span[1]}
    expect = np.array([[float(sp.diff(y, h0s).subs(subs)),
                        float(sp.diff(y, es).subs(subs))]])
    for got, tol in ((grad, 1e-7), (sol.gradient, 1e-7), (fd, 1e-5)):
        assert rel_err(got, expect) < tol


def test_bouncing_mass_event_time_and_state_closed_form():
    prob = bouncing_mass()
    rho = prob.rho0.rho
    traj = simulate(prob.dynamics, prob.cost("int-vy"), prob.events, rho, prob.t_span,
                    prob.config)
    propagate_direct(traj)
    recs = traj.events
    t1 = np.sqrt(2 * rho[0] / G)
    assert abs(recs[0].t_eve - t1) < 1e-8
    assert abs(recs[0].v_minus[0] + G * t1) < 1e-7
    assert abs(recs[0].v_plus[0] - rho[1] * G * t1) < 1e-7
    # dt_eve/d(h0) = 1 / sqrt(2 g h0); dt_eve/d(e) = 0 for the first bounce
    expect = np.array([[1.0 / np.sqrt(2 * G * rho[0]), 0.0]])
    assert np.max(np.abs(recs[0].dteve_drho - expect)) < 1e-6


def test_pendulum_capture_geometry():
    prob = pendulum()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    assert len(traj.events) == 1
    rec = traj.events[0]
    # at capture the bob sits on the tether circle and afterwards stays there
    assert abs(rec.q @ rec.q - 1.0) < 1e-8
    q, v, _ = traj.state_at(prob.t_span[1])
    assert abs(q @ q - 1.0) < 1e-6
    # radial velocity dies in the capture
    assert abs(rec.q @ rec.v_plus) < 1e-10
    assert rec.delta_mu is not None


def test_pendulum_capture_delta_mu_sensitivity_fd():
    prob = pendulum()
    cost = prob.cost("x-final")
    rho = prob.rho0.rho
    traj = simulate(prob.dynamics, cost, prob.events, rho, prob.t_span, prob.config)
    propagate_direct(traj)
    sens = traj.events[0].delta_mu_sens
    h = 1e-6
    fd = np.zeros((1, 3))
    for j in range(3):
        vals = []
        for sgn in (1.0, -1.0):
            rr = rho.copy()
            rr[j] += sgn * h
            rp = simulate(prob.dynamics, cost, prob.events, rr, prob.t_span, prob.config)
            vals.append(rp.events[0].delta_mu[0])
        fd[0, j] = (vals[0] - vals[1]) / (2 * h)
    assert np.max(np.abs(sens - fd)) < 1e-4 * max(1.0, np.abs(fd).max())


def test_five_bar_post_event_sensitivities_stay_constraint_consistent():
    # along the run, Q must satisfy the differentiated position constraint
    # phi_q Q + phi_rho = 0 and V the differentiated velocity constraint,
    # including immediately after a bounce
    prob = five_bar(param_names=("k1", "L21"))
    cost = prob.cost("int-vy2")
    rho = prob.rho0.rho
    traj = simulate(prob.dynamics, cost, prob.events, rho, (0.0, 1.0), prob.config)
    propagate_direct(traj)
    recs = traj.events
    assert len(recs) >= 1
    cons = prob.dynamics.model.constraints
    t_probe = recs[0].t_eve + 1e-4
    q, v, _ = traj.state_at(t_probe)
    X = traj.sensitivity_at(t_probe)
    res_pos = cons.jac_q(t_probe, q, rho) @ X.Q + cons.jac_rho(t_probe, q, rho)
    assert np.max(np.abs(res_pos)) < 1e-6
    res_vel = (cons.jac_q(t_probe, q, rho) @ X.V
               + cons.qq_action(t_probe, q, rho, v) @ X.Q
               + cons.q_rho_action(t_probe, q, rho, v))
    assert np.max(np.abs(res_vel)) < 1e-5


def test_five_bar_dae_formulation_available():
    prob = five_bar(formulation="dae")
    rho = prob.rho0.rho
    ic = prob.dynamics.model.initial_state(rho)
    vdot, mu = prob.dynamics.accel_and_multipliers(0.0, ic.q0, ic.v0, rho)
    pen = five_bar().dynamics
    assert rel_err(vdot, pen.accel(0.0, ic.q0, ic.v0, rho), floor=1.0) < 1e-5


def _integral_and_final(index):
    """Two outputs, (integral of v_index dt, q_index(tF)), with central-difference
    partials."""
    return CostFunctional(
        nc=2,
        g=lambda t, q, v, a, rho, u: np.array([v[index], 0.0]),
        w=lambda t, q, v, rho, u: np.array([0.0, q[index]]),
        name="int-v-and-q-final",
    )


@pytest.mark.parametrize("make, one_output", [(bouncing_mass, ("int-vy", "height-final")),
                                              (pendulum, ("int-vx", "x-final"))],
                         ids=["bouncing-mass", "pendulum"])
def test_any_cost_runs_on_any_model(make, one_output):
    # the quadrature is as wide as the cost in hand, whatever the model
    prob = make()
    rho, args = prob.rho0.rho, (prob.events, prob.rho0.rho, prob.t_span, prob.config)
    cost = _integral_and_final(0)
    direct, traj, _ = direct_gradient(prob.dynamics, cost, *args)
    adjoint = propagate_adjoint(traj, cost).gradient
    fd = fd_cost_sensitivity(prob.dynamics, cost, *args, nominal=traj)
    assert direct.shape == (2, rho.size)
    assert elementwise_close(adjoint, direct, 1e-12)
    assert elementwise_close(fd, direct, 1e-6)
    # each row is its one-output cost's gradient; the extra quadrature enters
    # the step control, so not bitwise
    for row, name in enumerate(one_output):
        alone, _, _ = direct_gradient(prob.dynamics, prob.cost(name), *args)
        assert elementwise_close(direct[row], alone[0], 1e-7)


# -- the side of each event surface a run may start on -------------------------


def test_gallery_events_declare_their_admissible_side():
    assert [ev.admissible for ev in five_bar().events] == [1.0]
    assert [ev.admissible for ev in bouncing_mass().events] == [1.0]
    assert [ev.admissible for ev in pendulum().events] == [-1.0]


def test_bouncing_mass_starting_below_the_floor_is_refused():
    # h0 = -0.1 used to fall through the floor with no event and return
    # the gradient (1, 0)
    prob = bouncing_mass()
    rho = np.array([-0.1, 0.9])
    for run in (simulate, direct_gradient):
        with pytest.raises(InadmissibleStartError, match="wrong side"):
            run(prob.dynamics, prob.cost(), prob.events, rho, prob.t_span, prob.config)


@pytest.mark.parametrize("x0", [0.821, -0.94])
def test_pendulum_starting_outside_the_tether_disc_is_refused(x0):
    # two of the referee's draws start at (x0, -0.6), outside the disc, and
    # used to count as agreeing: the mass fell away and never met the tether
    prob = pendulum()
    rho = np.array([x0, -1.0, 1.0])
    assert x0 ** 2 + 0.6 ** 2 > 1.0
    with pytest.raises(InadmissibleStartError, match="wrong side"):
        direct_gradient(prob.dynamics, prob.cost(), prob.events, rho, prob.t_span,
                        prob.config)


def test_start_side_check_takes_no_evaluation_and_changes_no_run():
    # the check reads the values the first segment takes at t0; later
    # segments (the swing holds r = 0 up to drift of either sign) are not
    # checked, and the run is bitwise the one without a declared side
    prob = pendulum()
    spec = prob.events[0]
    runs = {}
    for side in (-1.0, 0.0):
        calls = []
        counted = dataclasses.replace(spec, admissible=side,
                                      r=lambda q: calls.append(1) or spec.r(q))
        traj = simulate(prob.dynamics, prob.cost(), [counted], prob.rho0.rho, prob.t_span,
                        prob.config)
        runs[side] = (len(calls), len(traj.events),
                      np.vstack([seg.dense.node_states for seg in traj.segments]).tobytes())
    assert runs[-1.0] == runs[0.0]
    assert runs[-1.0][1] == 1
