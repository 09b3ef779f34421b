import dataclasses

import numpy as np
import pytest

from hybridsens.adjoint import (
    assemble_cost_sensitivity_adjoint,
    propagate_adjoint,
    terminal_conditions,
)
from hybridsens.core import AdjointState, Dimensions
from hybridsens.direct import direct_gradient, propagate_direct, simulate
from hybridsens.integrate import IntegratorConfig
from hybridsens.model import (
    CostFunctional,
    InitialConditions,
    MultibodyModel,
    OdeDynamics,
)
from conftest import rel_err

G = 9.81


def free_fall_model():
    dims = Dimensions(n=1, p=1)
    return MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array([-G]),
        initial_state=lambda rho: InitialConditions(
            rho.copy(), np.zeros(1), np.ones((1, 1)), np.zeros((1, 1))),
    )


def test_terminal_conditions_zero_terminal_cost():
    dyn = OdeDynamics(free_fall_model())
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([v[0]]))
    lam = terminal_conditions(cost, dyn, 1.0, np.zeros(1), np.zeros(1), np.ones(1))
    assert np.allclose(lam.lamQ, 0.0)
    assert np.allclose(lam.lamV, 0.0)
    assert np.allclose(lam.lamGamma, 0.0)
    assert np.array_equal(lam.lamZ, np.eye(1))


def test_terminal_conditions_position_selector():
    dyn = OdeDynamics(free_fall_model())
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([q[0]]))
    lam = terminal_conditions(cost, dyn, 1.0, np.zeros(1), np.zeros(1), np.ones(1))
    assert np.allclose(lam.lamQ, [[1.0]], atol=1e-10)
    assert np.allclose(lam.lamV, 0.0, atol=1e-10)


def test_terminal_conditions_with_u_chain(curved_mass):
    # w written through u(vdot) must match the directly resolved gradients
    model, dyn = curved_mass
    w_direct = CostFunctional(
        nc=1,
        w=lambda t, q, v, rho, u: np.array([v[1] ** 2]),
    )
    w_u = CostFunctional(
        nc=1,
        w=lambda t, q, v, rho, u: np.array([u[0] ** 2]),
        u_fn=lambda t, q, v, a, rho: np.array([v[1]]),
    )
    args = (0.3, np.array([0.2, -0.1]), np.array([0.4, 0.9]), np.array([2.0, 1.0]))
    la = terminal_conditions(w_direct, dyn, *args)
    lb = terminal_conditions(w_u, dyn, *args)
    assert np.allclose(la.stacked(), lb.stacked(), rtol=1e-6, atol=1e-8)


def test_free_fall_adjoint_closed_form():
    # f_q = 0, g = 0: lamQ constant, lamV(t) = lamV(tF) + (tF - t) lamQ
    dyn = OdeDynamics(free_fall_model())
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([q[0] + 2.0 * v[0]]))
    traj = simulate(dyn, cost, [], np.array([1.0]), (0.0, 1.0), IntegratorConfig())
    XF = propagate_direct(traj)
    sol = propagate_adjoint(traj, cost)
    for t in (0.2, 0.5, 0.8):
        lam = sol.lam_at(t)
        assert abs(lam.lamQ[0, 0] - 1.0) < 1e-9
        assert abs(lam.lamV[0, 0] - (2.0 + (1.0 - t) * 1.0)) < 1e-8


def test_exponential_adjoint_closed_form():
    # qdot = a q with a as a fake velocity slot is awkward in second order
    # form; use vdot = a v and psi = v(tF): lamV(t) = e^{a (tF - t)}
    dims = Dimensions(n=1, p=1)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array([rho[0] * v[0]]),
        initial_state=lambda rho: InitialConditions(
            np.zeros(1), np.ones(1), np.zeros((1, 1)), np.zeros((1, 1))),
    )
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([v[0]]))
    a, tF = 0.7, 1.2
    cfg = IntegratorConfig()
    traj = simulate(dyn, cost, [], np.array([a]), (0.0, tF), cfg)
    propagate_direct(traj)
    sol = propagate_adjoint(traj, cost)
    for t in (0.1, 0.6, 1.1):
        expect = np.exp(a * (tF - t))
        assert abs(sol.lam_at(t).lamV[0, 0] - expect) < 10 * cfg.rtol * expect


def test_lamZ_identity_throughout():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    propagate_direct(traj)
    sol = propagate_adjoint(traj, cost)
    for t in np.linspace(0.05, 1.45, 7):
        assert np.array_equal(sol.lam_at(t).lamZ, np.eye(1))


def test_event_free_adjoint_equals_direct():
    dims = Dimensions(n=2, p=2)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(2),
        force=lambda t, q, v, rho: np.array([-rho[0] * q[0], -rho[1] * q[1] - 0.2 * v[1]]),
        initial_state=lambda rho: InitialConditions(
            np.array([1.0, -0.5]), np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2))),
    )
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([q @ q]),
                          w=lambda t, q, v, rho, u: np.array([v @ v]))
    rho = np.array([4.0, 9.0])
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    grad, traj, _ = direct_gradient(dyn, cost, [], rho, (0.0, 2.0), cfg)
    sol = propagate_adjoint(traj, cost)
    assert np.max(np.abs(sol.gradient - grad)) < 1e-10 * max(1.0, np.abs(grad).max())


def test_bouncing_adjoint_equals_direct():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    for cname in ("height-final", "int-vy"):
        cost = prob.cost(cname)
        grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events,
                                        prob.rho0.rho, prob.t_span, prob.config)
        sol = propagate_adjoint(traj, cost)
        assert rel_err(sol.gradient, grad) < 1e-6


def test_assemble_adjoint_initial_condition_parameters():
    # rho = q0: the gradient is lamQ(t0)^T alone
    lam = AdjointState(np.array([[0.3], [0.7]]), np.zeros((2, 1)),
                       np.zeros((2, 1)), np.eye(1))
    out = assemble_cost_sensitivity_adjoint(lam, np.eye(2), np.zeros((2, 2)))
    assert np.allclose(out, [[0.3, 0.7]])


def test_assemble_adjoint_parameter_only():
    lam = AdjointState(np.ones((2, 1)), np.ones((2, 1)),
                       np.array([[0.4], [-0.2]]), np.eye(1))
    out = assemble_cost_sensitivity_adjoint(lam, np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.allclose(out, [[0.4, -0.2]])


def test_pendulum_capture_adjoint_equals_direct():
    from hybridsens.gallery import pendulum

    prob = pendulum()
    for cname in ("x-final", "int-vx"):
        cost = prob.cost(cname)
        grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events,
                                        prob.rho0.rho, prob.t_span, prob.config)
        sol = propagate_adjoint(traj, cost)
        assert np.all(np.abs(sol.gradient - grad)
                      <= 1e-6 * np.maximum(1.0, np.abs(grad)))


def _gallery_case(name):
    from hybridsens.gallery import FIVE_BAR_PARAMS, bouncing_mass, five_bar, pendulum

    if name == "five-bar-penalty-all-parameters":
        return five_bar(param_names=FIVE_BAR_PARAMS), "int-ay2sq-vy2sq"
    if name == "five-bar-dae":
        return five_bar(formulation="dae"), "int-ay2"
    if name == "bouncing-mass":
        return bouncing_mass(), "int-vy"
    return pendulum(), "int-vx"


@pytest.mark.parametrize("name", ["five-bar-penalty-all-parameters", "five-bar-dae",
                                  "bouncing-mass", "pendulum"])
def test_discrete_adjoint_equals_direct_on_its_steps(name):
    # the backward sweep transposes exactly the steps (and events) the direct
    # pass took, so on the direct pass's own trajectory both gradients are
    # the same number up to round-off
    prob, cname = _gallery_case(name)
    cost = prob.cost(cname)
    grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events,
                                    prob.rho0.rho, prob.t_span, prob.config)
    sol = propagate_adjoint(traj, cost)
    assert rel_err(sol.gradient, grad) <= 1e-12


@pytest.mark.parametrize("h0, after_first_event", [(0.3, None), (0.05, 0.01)])
@pytest.mark.parametrize("cname", ["height-final", "int-vy"])
def test_first_step_longer_than_a_segment_starts_with_the_segment(h0, after_first_event,
                                                                  cname):
    # a segment shorter than h0 (after the last bounce at t = 1.264 with
    # tF = 1.5, or 0.01 after the first bounce) is stepped from its whole
    # span instead of refusing the first step
    from hybridsens.gallery import GRAVITY, bouncing_mass

    prob = bouncing_mass()
    t_span = prob.t_span
    if after_first_event is not None:
        t_first = np.sqrt(2.0 * prob.rho0.rho[0] / GRAVITY)
        t_span = (t_span[0], t_first + after_first_event)
    cfg = dataclasses.replace(prob.config, h0=h0)
    cost = prob.cost(cname)
    grad, traj, _ = direct_gradient(prob.dynamics, cost, prob.events,
                                    prob.rho0.rho, t_span, cfg)
    last = traj.segments[-1]
    assert traj.events and last.t_end - last.t_start < h0
    assert traj.tF == t_span[1]
    sol = propagate_adjoint(traj, cost)
    assert rel_err(sol.gradient, grad) <= 1e-12


def test_adjoint_sweeps_share_one_trajectory_across_threads():
    # the stage record is read-only data on the trajectory: threads (more
    # than cores) sweeping one trajectory, and so sharing its dynamics
    # object, each get the serial gradient bitwise
    import sys
    import threading

    from hybridsens.gallery import five_bar

    prob = five_bar()
    cost = prob.cost("int-ay2")
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, (0.0, 1.0), prob.config)
    assert traj.events
    serial = propagate_adjoint(traj, cost).gradient
    threaded = [None] * 4

    def run(i):
        threaded[i] = propagate_adjoint(traj, cost).gradient

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(threaded))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for gradient in threaded:
        assert gradient.tobytes() == serial.tobytes()


def test_lam_at_factors_once_per_evaluation(monkeypatch):
    # between nodes lam_at integrates the continuous adjoint ODE; each of its
    # right-hand-side evaluations solves the saddle system for vdot and mu and
    # then needs the Jacobians at the same state, which reuse that factor
    import hybridsens.adjoint as adjoint
    import hybridsens.constrained as constrained
    from hybridsens.gallery import five_bar

    prob = five_bar(formulation="dae")
    cost = prob.cost("int-ay2")
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, (0.0, 1.0), prob.config)
    sol = propagate_adjoint(traj, cost)
    nodes = traj.segments[0].dense.node_times
    counts = {"factorizations": 0, "evaluations": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(constrained, "checked_lu",
                        counting("factorizations", constrained.checked_lu))
    monkeypatch.setattr(adjoint, "adjoint_rhs", counting("evaluations", adjoint.adjoint_rhs))
    for i in (1, 5, 10):
        sol.lam_at(0.5 * (nodes[i] + nodes[i + 1]))
    assert counts["evaluations"] > 0
    assert counts["factorizations"] <= counts["evaluations"]


def test_sweeps_never_evaluate_the_cost_density():
    # the tangent and adjoint sweeps need the density's gradients only: the
    # density itself is integrated by the forward run and never evaluated
    # again
    from hybridsens.gallery import five_bar

    prob = five_bar()
    base = prob.cost("int-ay2sq-vy2sq")
    calls = {"forward": 0, "sweep": 0}
    phase = ["forward"]

    def g(*args):
        calls[phase[0]] += 1
        return base.g(*args)

    def in_sweep(step):
        def wrapper(*args):
            phase[0] = "sweep"
            try:
                return step(*args)
            finally:
                phase[0] = "forward"
        return wrapper

    cost = dataclasses.replace(base, g=g)
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, (0.0, 0.9), prob.config)
    assert len(traj.events) == 2
    assert calls["forward"] > 0
    in_sweep(propagate_direct)(traj)
    in_sweep(propagate_adjoint)(traj, cost)
    assert calls["sweep"] == 0


@pytest.mark.parametrize("run_cost", ["height-final", None])
def test_adjoint_refuses_a_cost_the_run_was_not_simulated_with(run_cost):
    # the stored jump matrices carry the run's own quadrature rows: the adjoint
    # of int-vy over a height-final run (or a cost-less one) read (5.305, 7.568)
    # where direct_gradient gives (-1.383, 0.728)
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost(run_cost) if run_cost else None
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    run = f"'{run_cost}'" if run_cost else "no cost"
    with pytest.raises(ValueError, match=f"'int-vy' is not the run's own cost.*{run}"):
        propagate_adjoint(traj, prob.cost("int-vy"))


def test_adjoint_of_the_runs_own_cost_is_unchanged_by_passing_it():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    given, read = propagate_adjoint(traj, cost), propagate_adjoint(traj)
    assert given.gradient.tobytes() == read.gradient.tobytes()
    assert given.series.tobytes() == read.series.tobytes()
    grad, _, _ = direct_gradient(prob.dynamics, cost, prob.events, prob.rho0.rho,
                                 prob.t_span, prob.config)
    assert rel_err(given.gradient, grad) <= 1e-12
