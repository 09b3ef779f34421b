import numpy as np
import pytest

from hybridsens.core import Dimensions
from hybridsens.direct import propagate_direct, simulate
from hybridsens.integrate import IntegratorConfig
from hybridsens.model import CostFunctional, InitialConditions, MultibodyModel, OdeDynamics
from hybridsens.oracle import (
    EventTopologyError,
    fd_cost_sensitivity,
    fd_trajectory_sensitivity,
)
from conftest import rel_err

G = 9.81


def test_central_difference_exact_on_quadratic():
    # psi(rho) = rho^2 realized as w = rho[0]^2 on a trivial model
    dims = Dimensions(n=1, p=1)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.zeros(1),
        initial_state=lambda rho: InitialConditions(
            np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1))),
    )
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([rho[0] ** 2]))
    out = fd_cost_sensitivity(OdeDynamics(model), cost, [], np.array([3.0]),
                              (0.0, 0.5), IntegratorConfig(), h_rel=1e-3)
    assert abs(out[0, 0] - 6.0) < 1e-8


def test_bouncing_mass_fd_matches_closed_form():
    from hybridsens.gallery import bouncing_mass
    import sympy as sp

    prob = bouncing_mass()
    cost = prob.cost("height-final")
    out = fd_cost_sensitivity(prob.dynamics, cost, prob.events, prob.rho0.rho,
                              prob.t_span, prob.config, h_rel=1e-6)
    h0s, es, ts = sp.symbols("h0 e tF", positive=True)
    t1 = sp.sqrt(2 * h0s / G)
    v1 = es * sp.sqrt(2 * G * h0s)
    t2 = t1 + 2 * v1 / G
    v2 = es * v1
    y = v2 * (ts - t2) - G * (ts - t2) ** 2 / 2
    subs = {h0s: 1.0, es: 0.9, ts: 1.5}
    expect = [float(sp.diff(y, h0s).subs(subs)), float(sp.diff(y, es).subs(subs))]
    assert rel_err(out.ravel(), expect) < 1e-5


def test_nominal_run_passed_in_gives_the_same_gradient():
    # the nominal run only fixes the event sequence; one of another rho,
    # time span or config is refused
    import dataclasses

    from hybridsens.direct import simulate
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("height-final")
    args = (prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span, prob.config)
    nominal = simulate(*args)
    assert fd_cost_sensitivity(*args, nominal=nominal).tobytes() == \
        fd_cost_sensitivity(*args).tobytes()
    for other in ({"rho": prob.rho0.rho + 1e-3}, {"t_span": (0.0, 1.4)},
                  {"config": dataclasses.replace(prob.config, rtol=1e-7)}):
        kwargs = dict(zip(("dyn", "cost", "events", "rho", "t_span", "config"), args))
        kwargs.update(other)
        with pytest.raises(ValueError, match="nominal run"):
            fd_cost_sensitivity(**kwargs, nominal=nominal)


def test_event_topology_change_detected():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("height-final")
    # a huge step kicks one perturbed run into a different bounce count
    with pytest.raises(EventTopologyError, match="reduce h_rel"):
        fd_cost_sensitivity(prob.dynamics, cost, prob.events,
                            np.array([1.0, 0.9]), (0.0, 1.9),
                            prob.config, h_rel=0.3)


def test_trajectory_fd_matches_tlm_on_smooth_parts():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    rho = prob.rho0.rho
    times = np.linspace(0.05, 1.45, 15)
    samples = fd_trajectory_sensitivity(prob.dynamics, cost, prob.events, rho,
                                        prob.t_span, times, prob.config)
    traj = simulate(prob.dynamics, cost, prob.events, rho, prob.t_span, prob.config)
    propagate_direct(traj)
    checked = 0
    for s in samples:
        if not s.reliable:
            continue
        X = traj.sensitivity_at(s.t)
        assert np.max(np.abs(s.dq_drho - X.Q)) < 1e-4 * max(1.0, np.abs(X.Q).max())
        assert np.max(np.abs(s.dv_drho - X.V)) < 1e-4 * max(1.0, np.abs(X.V).max())
        checked += 1
    assert checked >= 10


def test_samples_near_events_flagged():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    t1 = np.sqrt(2.0 / G)  # first bounce
    times = [t1 - 1e-8, t1 + 1e-8, 0.2]
    samples = fd_trajectory_sensitivity(prob.dynamics, cost, prob.events,
                                        prob.rho0.rho, prob.t_span, times,
                                        prob.config)
    assert not samples[0].reliable
    assert not samples[1].reliable
    assert samples[2].reliable


def test_event_free_problem_nothing_flagged():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    samples = fd_trajectory_sensitivity(prob.dynamics, cost, [], prob.rho0.rho,
                                        (0.0, 0.4), np.linspace(0.0, 0.4, 9),
                                        prob.config)
    assert all(s.reliable for s in samples)


def test_trajectory_oracle_evaluates_no_cost(monkeypatch):
    # state sensitivities need no cost: no terminal cost gradient is taken
    import hybridsens.direct as direct
    import hybridsens.model as model
    from hybridsens.gallery import bouncing_mass

    calls = []
    for module in (model, direct):
        original = module.terminal_cost_gradients
        monkeypatch.setattr(module, "terminal_cost_gradients",
                            lambda *a, f=original: calls.append(1) or f(*a))
    prob = bouncing_mass()
    fd_trajectory_sensitivity(prob.dynamics, prob.cost("height-final"), prob.events,
                              prob.rho0.rho, prob.t_span, [0.2, 1.0], prob.config)
    assert calls == []


def test_trajectory_fd_without_a_cost_matches_tlm():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    rho = prob.rho0.rho
    samples = fd_trajectory_sensitivity(prob.dynamics, None, prob.events, rho, prob.t_span,
                                        np.linspace(0.05, 1.45, 15), prob.config)
    traj = simulate(prob.dynamics, None, prob.events, rho, prob.t_span, prob.config)
    propagate_direct(traj)
    reliable = [s for s in samples if s.reliable]
    assert len(reliable) >= 10
    for s in reliable:
        X = traj.sensitivity_at(s.t)
        assert np.max(np.abs(s.dq_drho - X.Q)) < 1e-4 * max(1.0, np.abs(X.Q).max())
        assert np.max(np.abs(s.dv_drho - X.V)) < 1e-4 * max(1.0, np.abs(X.V).max())
        assert not s.dz_drho.any()


def test_fd_cost_sensitivity_refuses_a_missing_cost(monkeypatch):
    # refused up front, not by an AttributeError after the nominal run
    import hybridsens.oracle as oracle
    from hybridsens.gallery import bouncing_mass

    def no_run(*args):
        raise AssertionError("a run started without a cost")

    monkeypatch.setattr(oracle, "simulate", no_run)
    prob = bouncing_mass()
    with pytest.raises(ValueError, match="needs the cost functional"):
        fd_cost_sensitivity(prob.dynamics, None, prob.events, prob.rho0.rho, prob.t_span,
                            prob.config)
