import dataclasses
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

import hybridsens
from hybridsens.constrained import (
    DaeDynamics,
    PenaltyConfig,
    PenaltyDynamics,
    SingularKKTError,
    checked_lu,
    impulse_system,
    saddle_factor,
)
from hybridsens.gallery import (
    FIVE_BAR_PARAMS,
    PENDULUM_LENGTH,
    bouncing_mass,
    five_bar,
    pendulum_model,
)
from hybridsens.core import DimensionError
from hybridsens.model import ConstraintSet, fd_jacobian
from hybridsens.integrate import DenseSegment, IntegratorConfig
from hybridsens.direct import simulate
from conftest import columns, pendulum_swing_model, rel_err

G = 9.81
RHO = np.array([0.15, -1.0, 1.0])
FORMULATIONS = {"penalty": PenaltyDynamics, "dae": DaeDynamics}


def hanging_state(theta):
    L = PENDULUM_LENGTH
    q = np.array([L * np.sin(theta), -L * np.cos(theta)])
    return q


def tangential_velocity(q, speed):
    t_hat = np.array([-q[1], q[0]]) / np.linalg.norm(q)
    return speed * t_hat


@pytest.mark.parametrize("field, value", [
    ("alpha", np.inf), ("alpha", np.nan), ("alpha", 0.0), ("omega", np.inf),
    ("omega", np.nan), ("xi", np.inf), ("xi", np.nan), ("xi", -1.0),
])
def test_penalty_config_rejects_non_finite_or_out_of_range(field, value):
    # alpha=inf gave c = 1/alpha = 0 and ran silently as a different
    # formulation; nan surfaced later as a misleading SingularKKTError
    with pytest.raises(ValueError, match=field):
        PenaltyConfig(**{field: value})


def test_penalty_reduces_to_plain_when_alpha_small():
    model = pendulum_swing_model()
    q = hanging_state(0.4)
    v = tangential_velocity(q, 0.7)
    a_small = PenaltyDynamics(model, PenaltyConfig(alpha=1e-9)).accel(0.0, q, v, RHO)
    # alpha -> 0 limit is the unconstrained dynamics M^-1 F
    expect = np.array([0.0, -G])
    assert np.max(np.abs(a_small - expect)) < 1e-6


def test_penalty_force_correction_vanishes_on_manifold():
    # on the manifold with consistent velocities, only the centripetal
    # (acceleration-level) term remains; it must match the DAE acceleration
    model = pendulum_swing_model()
    q = hanging_state(0.0)
    v = tangential_velocity(q, 1.3)
    a_pen = PenaltyDynamics(model, PenaltyConfig()).accel(0.0, q, v, RHO)
    a_dae, _ = DaeDynamics(model).accel_and_multipliers(0.0, q, v, RHO)
    assert rel_err(a_pen, a_dae, floor=1.0) < 1e-6


def test_penalty_vs_dae_accelerations_over_period():
    model = pendulum_swing_model(theta0=0.9)
    pen = PenaltyDynamics(model, PenaltyConfig(alpha=1e7, xi=1.0, omega=10.0))
    dae = DaeDynamics(model)
    period = 2 * np.pi * np.sqrt(PENDULUM_LENGTH / G) * 1.1
    traj = simulate(dae, None, [], RHO, (0.0, period), IntegratorConfig())
    worst = 0.0
    for t in np.linspace(0.0, period, 80):
        q, v, _ = traj.state_at(t)
        worst = max(worst, rel_err(pen.accel(t, q, v, RHO),
                                   dae.accel(t, q, v, RHO), floor=1.0))
    assert worst < 1e-5


def test_penalty_multiplier_static_equilibrium():
    # bob hanging at rest: the rod tension balances the weight, and for
    # phi = |q|^2 - L^2 the multiplier satisfies 2 L mu = m g
    model = pendulum_swing_model()
    q = hanging_state(0.0)
    v = np.zeros(2)
    pcfg = PenaltyConfig()
    mu = PenaltyDynamics(model, pcfg).accel_and_multipliers(0.0, q, v, RHO)[1]
    m = RHO[2]
    expect = m * G / (2.0 * PENDULUM_LENGTH)
    assert rel_err(mu, [expect]) < 1e-4


def test_penalty_multiplier_zero_when_unloaded():
    # no gravity-like force along the constraint: free radial equilibrium
    model = pendulum_swing_model()
    q = hanging_state(0.0)
    v = np.zeros(2)
    pcfg = PenaltyConfig()
    # static bob with weight removed: zero residuals, zero correction
    model.force = lambda t, q, v, rho: np.zeros(2)
    model.force_partials = lambda t, q, v, rho: (np.zeros((2, 2)), np.zeros((2, 2)),
                                                 np.zeros((2, 3)))
    mu = PenaltyDynamics(model, pcfg).accel_and_multipliers(0.0, q, v, RHO)[1]
    assert np.max(np.abs(mu)) < 1e-9


def test_penalty_vs_dae_multipliers_during_swing():
    model = pendulum_swing_model(theta0=0.7)
    pcfg = PenaltyConfig()
    dae = DaeDynamics(model)
    traj = simulate(dae, None, [], RHO, (0.0, 1.0), IntegratorConfig())
    q, v, _ = traj.state_at(0.6)
    mu_pen = PenaltyDynamics(model, pcfg).accel_and_multipliers(0.6, q, v, RHO)[1]
    _, mu_dae = dae.accel_and_multipliers(0.6, q, v, RHO)
    assert rel_err(mu_pen, mu_dae) < 1e-4


def five_bar_states(prob, rng, k):
    """k states (t, q, v, rho) near the assembled five-bar pose, slightly off
    the manifold, with every parameter perturbed."""
    rho0 = prob.rho0.rho
    states = []
    for _ in range(k):
        rho = rho0 * (1.0 + rng.uniform(-0.02, 0.02, rho0.size))
        q = prob.dynamics.model.initial_state(rho).q0 + rng.normal(scale=1e-4, size=6)
        states.append((rng.uniform(0.0, 5.0), q, rng.normal(size=6), rho))
    return states


def fd_blocks(fun, t, q, v, rho):
    return (fd_jacobian(lambda x: fun(t, x, v, rho), q),
            fd_jacobian(lambda x: fun(t, q, x, rho), v),
            fd_jacobian(lambda x: fun(t, q, v, x), rho))


def exposed_jacobians(dyn, state):
    """The acceleration Jacobian blocks, then the multiplier blocks when the
    dynamics has multipliers."""
    _, _, f_y, mu_y = dyn.jacobians(*state)
    n = dyn.dims.n
    return tuple(columns(f_y, n)) + (() if mu_y is None else tuple(columns(mu_y, n)))


def map_fd_jacobians(dyn, state):
    """Central differences of the map exposed_jacobians differentiates:
    vdot, then mu when the dynamics has multipliers."""
    blocks = fd_blocks(dyn.accel, *state)
    if dyn.accel_and_multipliers(*state)[1] is not None:
        blocks += fd_blocks(lambda *s: dyn.accel_and_multipliers(*s)[1], *state)
    return blocks


def pendulum_states(rng, k):
    states = []
    for _ in range(k):
        q = hanging_state(rng.uniform(-1.2, 1.2)) * rng.uniform(0.999, 1.001)
        rho = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-1, 0), rng.uniform(0.5, 2)])
        states.append((0.0, q, rng.normal(size=2), rho))
    return states


@pytest.mark.parametrize("formulation, system", [
    pytest.param("penalty", "five-bar", id="five-bar-all-parameters"),
    pytest.param("penalty", "pendulum", id="pendulum-rho-dependent-mass"),
    pytest.param("dae", "five-bar", id="dae-five-bar-all-parameters"),
    pytest.param("dae", "pendulum", id="dae-pendulum-rho-dependent-mass"),
])
def test_penalty_jacobians_match_fd(formulation, system):
    rng = np.random.default_rng(21)
    if system == "five-bar":
        prob = five_bar(param_names=FIVE_BAR_PARAMS, formulation=formulation)
        dyn, states = prob.dynamics, five_bar_states(prob, rng, 3)
    else:
        dyn = FORMULATIONS[formulation](pendulum_swing_model())
        states = pendulum_states(rng, 3)
    for state in states:
        for J, fd in zip(exposed_jacobians(dyn, state), map_fd_jacobians(dyn, state)):
            assert rel_err(J, fd, floor=1.0) < 1e-5


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
def test_penalty_jacobians_fallback_matches_analytic(formulation):
    # without the constant-Hessian declaration the Jacobians are central
    # differences of (vdot, mu); they must agree with the analytic ones
    model = pendulum_swing_model()
    general = dataclasses.replace(
        model, constraints=dataclasses.replace(model.constraints, hessian=None))
    make = FORMULATIONS[formulation]
    analytic, fallback = make(model), make(general)
    for state in pendulum_states(np.random.default_rng(23), 3):
        for Jf, Ja in zip(exposed_jacobians(fallback, state), exposed_jacobians(analytic, state)):
            assert rel_err(Jf, Ja, floor=1.0) < 1e-5


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
@pytest.mark.parametrize("system", ["five-bar", "pendulum"])
def test_jacobians_refuse_a_wrong_shaped_force_partial(formulation, system):
    # the saddle Jacobians fill their right side in place, where a (p,)
    # F_rho would broadcast across all n rows; it is refused by name, with a
    # constant mass (five-bar) and without
    rng = np.random.default_rng(29)
    if system == "five-bar":
        prob = five_bar(param_names=FIVE_BAR_PARAMS)
        model, state = prob.dynamics.model, five_bar_states(prob, rng, 1)[0]
    else:
        model, state = pendulum_swing_model(), pendulum_states(rng, 1)[0]
    right = model.force_partials

    def wrong(*args):
        F_q, F_v, F_rho = right(*args)
        return F_q, F_v, F_rho[0]

    dyn = FORMULATIONS[formulation](dataclasses.replace(model, force_partials=wrong))
    assert dyn.model.mass_constant == (system == "five-bar")
    for given in ((), dyn.accel_and_multipliers(*state)):
        with pytest.raises(DimensionError, match=r"force_partials .*F_rho of shape"):
            dyn.jacobians(*state, *given)


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
def test_penalty_dynamics_shared_across_threads(formulation):
    # every call solves and factors at its own state, so each state gets
    # its own blocks however the threads sharing one dynamics object
    # interleave
    prob = five_bar(param_names=FIVE_BAR_PARAMS, formulation=formulation)
    dyn = prob.dynamics
    rng = np.random.default_rng(24)
    work = [five_bar_states(prob, rng, 4) for _ in range(4)]

    def evaluate(states):
        return [(dyn.accel(*s),) + exposed_jacobians(dyn, s) for s in states]

    serial = [evaluate(states) for states in work]
    threaded = [[] for _ in work]

    def run(i):
        for _ in range(5):
            threaded[i].append(evaluate(work[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for expect, rounds in zip(serial, threaded):
        assert len(rounds) == 5
        for got in rounds:
            for e_state, g_state in zip(expect, got):
                assert all(np.array_equal(e, g) for e, g in zip(e_state, g_state))


_SHARED_FACTOR_STRESS = """
import sys, threading
import numpy as np
from hybridsens.gallery import five_bar

dyn = five_bar().dynamics
rho = np.array([100.0, 100.0])
q, v = dyn.model.initial_state(rho).q0, np.linspace(-1.0, 1.0, 6)

def run():
    for i in range(1000):
        dyn.jacobians(float(i % 2), q, v, rho)

threads = [threading.Thread(target=run) for _ in range(4)]
sys.setswitchinterval(1e-6)
for th in threads:
    th.start()
for th in threads:
    th.join()
"""


def test_threads_solving_with_one_factor_keep_the_process_alive():
    # four threads share one dynamics object; LAPACK's getrs runs without
    # the GIL while scipy's wrapper shifts the pivot indices in place, so
    # solves on a shared pivot array would corrupt the heap and abort the
    # interpreter: run it in a subprocess
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hybridsens.__file__)))
    done = subprocess.run([sys.executable, "-c", _SHARED_FACTOR_STRESS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("make, t_span", [
    (lambda: five_bar(formulation="penalty"), (0.0, 0.9)),
    (lambda: five_bar(formulation="dae"), (0.0, 0.9)),
    (bouncing_mass, (0.0, 1.0)),
], ids=["penalty", "dae", "ode"])
def test_dynamics_keeps_no_per_call_state(make, t_span):
    # each call hands back what it solved and keeps nothing: threads may
    # share a dynamics object without any discipline
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import direct_gradient

    prob = make()
    dyn, rho = prob.dynamics, prob.rho0.rho
    before = dict(vars(dyn))
    ic = dyn.model.initial_state(rho)
    dyn.accel_and_multipliers(0.0, ic.q0, ic.v0, rho)
    dyn.jacobians(0.0, ic.q0, ic.v0, rho)
    _, traj, _ = direct_gradient(dyn, prob.cost(), prob.events, rho, t_span, prob.config)
    assert traj.events
    propagate_adjoint(traj, prob.cost())
    assert vars(dyn) == before


def test_dae_solve_unconstrained_limit():
    # both constrained formulations refuse a model without constraints, and
    # an empty constraint set is refused where it is built
    free = pendulum_model(constrained=False)
    for make in FORMULATIONS.values():
        with pytest.raises(ValueError):
            make(free)
    with pytest.raises(DimensionError):
        ConstraintSet(m=0, phi=lambda t, q, rho: np.zeros(0))


@pytest.mark.parametrize("m", [2.0, True, -1, 0, float("nan")])
def test_constraint_count_must_be_a_positive_integer(m):
    with pytest.raises(DimensionError, match="m must be an integer >= 1"):
        ConstraintSet(m=m, phi=lambda t, q, rho: np.zeros(1))


def test_dae_solve_pendulum_closed_form():
    # theta measured from the downward vertical: thetadd = -(g/L) sin(theta)
    model = pendulum_swing_model()
    theta = 0.5
    q = hanging_state(theta)
    v = np.zeros(2)
    vdot, mu = DaeDynamics(model).accel_and_multipliers(0.0, q, v, RHO)
    L = PENDULUM_LENGTH
    thetadd = -(G / L) * np.sin(theta)
    expect = thetadd * np.array([np.cos(theta), np.sin(theta)]) * L
    assert np.max(np.abs(vdot - expect)) < 1e-8


def test_dae_solve_acceleration_constraint_exact():
    model = pendulum_swing_model()
    q = hanging_state(0.3)
    v = tangential_velocity(q, 2.0)
    vdot, mu = DaeDynamics(model).accel_and_multipliers(0.0, q, v, RHO)
    cons = model.constraints
    res = cons.jac_q(0.0, q, RHO) @ vdot - cons.accel_rhs(0.0, q, v, RHO)
    assert np.max(np.abs(res)) < 1e-12


def test_dae_jacobians_match_fd():
    model = pendulum_swing_model()
    dyn = DaeDynamics(model)
    rng = np.random.default_rng(4)
    t = 0.2
    theta = 0.8
    q = hanging_state(theta)
    v = tangential_velocity(q, 1.5)

    def acc(tt, qq, vv, rr):
        return dyn.accel_and_multipliers(tt, qq, vv, rr)[0]

    def mul(tt, qq, vv, rr):
        return dyn.accel_and_multipliers(tt, qq, vv, rr)[1]

    _, _, f_y, mu_y = dyn.jacobians(t, q, v, RHO)
    (fq, fv, frho), (gq, gv, grho) = columns(f_y, 2), columns(mu_y, 2)
    assert rel_err(fq, fd_jacobian(lambda x: acc(t, x, v, RHO), q), floor=1.0) < 1e-5
    assert rel_err(fv, fd_jacobian(lambda x: acc(t, q, x, RHO), v), floor=1.0) < 1e-5
    assert rel_err(frho, fd_jacobian(lambda x: acc(t, q, v, x), RHO), floor=1.0) < 1e-5
    assert rel_err(gq, fd_jacobian(lambda x: mul(t, x, v, RHO), q), floor=1.0) < 1e-4
    assert rel_err(gv, fd_jacobian(lambda x: mul(t, q, x, RHO), v), floor=1.0) < 1e-4
    assert rel_err(grho, fd_jacobian(lambda x: mul(t, q, v, x), RHO), floor=1.0) < 1e-4


def test_dae_jacobians_fd_on_random_states():
    dyn = DaeDynamics(pendulum_swing_model())
    rng = np.random.default_rng(17)
    for _ in range(5):
        theta = rng.uniform(-1.2, 1.2)
        q = hanging_state(theta) * rng.uniform(0.95, 1.05)
        v = rng.normal(size=2)
        rho = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-1, 0), rng.uniform(0.5, 2)])
        fq, fv, frho = columns(dyn.jacobians(0.0, q, v, rho)[2], 2)
        fd_fq = fd_jacobian(lambda x: dyn.accel_and_multipliers(0.0, x, v, rho)[0], q)
        assert rel_err(fq, fd_fq, floor=1.0) < 1e-4


def test_dae_jacobian_v_block_structure():
    # with F independent of v, the v-block reduces to the C_v route
    dyn = DaeDynamics(pendulum_swing_model())
    q = hanging_state(0.4)
    v = tangential_velocity(q, 1.0)
    fq, fv, frho = columns(dyn.jacobians(0.0, q, v, RHO)[2], 2)
    fd_fv = fd_jacobian(lambda x: dyn.accel_and_multipliers(0.0, q, x, RHO)[0], v)
    assert np.max(np.abs(fv - fd_fv)) < 1e-6


def test_five_bar_residual_levels():
    from hybridsens.gallery import five_bar

    prob = five_bar()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    assert traj.residuals.max_pos() <= 1e-6
    assert traj.residuals.max_vel() <= 1e-5


def test_impulse_feasible_velocity_unchanged():
    model = pendulum_swing_model()
    q = hanging_state(0.2)
    v = tangential_velocity(q, 1.1)    # already satisfies phi_q v = 0
    v_plus, dmu = np.split(impulse_system(model, 0.0, q, v, RHO)[2], [2])
    assert np.max(np.abs(v_plus - v)) < 1e-12
    assert np.max(np.abs(dmu)) < 1e-12


def test_impulse_point_mass_hand_solve():
    from hybridsens.core import Dimensions
    from hybridsens.model import ConstraintSet, InitialConditions, MultibodyModel

    dims = Dimensions(n=2, p=1)
    cons = ConstraintSet(
        m=1,
        phi=lambda t, q, rho: np.array([q[1]]),
        phi_q=lambda t, q, rho: np.array([[0.0, 1.0]]),
        hessian=np.zeros((1, 2, 2)),
    )
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(2),
        force=lambda t, q, v, rho: np.zeros(2),
        initial_state=lambda rho: InitialConditions(
            np.zeros(2), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1))),
        constraints=cons,
    )
    v_minus = np.array([0.7, -1.4])
    v_plus, dmu = np.split(impulse_system(model, 0.0, np.array([0.3, 0.0]), v_minus,
                                          np.ones(1))[2], [2])
    assert np.allclose(v_plus, [0.7, 0.0], atol=1e-14)
    # row 2 of the momentum system reads v_y+ + dmu = v_y-, so dmu = v_y-;
    # the impulse on the mass is -G^T dmu = +1.4 upward
    assert np.allclose(dmu, [-1.4], atol=1e-14)


def test_impulse_kinetic_energy_projection():
    model = pendulum_swing_model()
    rng = np.random.default_rng(9)
    M = model.mass_at(0.0, np.zeros(2), RHO)
    for _ in range(50):
        q = hanging_state(rng.uniform(-np.pi, np.pi))
        v = rng.normal(size=2, scale=2.5)
        v_plus = impulse_system(model, 0.0, q, v, RHO)[2][:2]
        assert v_plus @ M @ v_plus <= v @ M @ v + 1e-12


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
def test_multiplier_dependent_cost_all_pipelines(formulation):
    # density with a tether-tension term: exercises the multiplier-chain
    # gradients and the multiplier Jacobian blocks end to end, on the exact
    # DAE multipliers and on the penalty estimate mu*
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import direct_gradient
    from hybridsens.model import CostFunctional
    from hybridsens.oracle import fd_cost_sensitivity

    model = pendulum_swing_model(theta0=0.7)
    dyn = FORMULATIONS[formulation](model)
    cost = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([v[0] ** 2]),
        g_of_mu=lambda t, q, v, a, rho, mu: np.array([mu[0] ** 2]),
        name="vx2+mu2",
    )
    cfg = IntegratorConfig()
    grad, traj, _ = direct_gradient(dyn, cost, [], RHO, (0.0, 1.0), cfg)
    adj = propagate_adjoint(traj, cost).gradient
    fd = fd_cost_sensitivity(dyn, cost, [], RHO, (0.0, 1.0), cfg)
    assert np.all(np.abs(adj - grad) <= 1e-6 * np.maximum(1.0, np.abs(grad)))
    assert np.all(np.abs(fd - grad) <= 1e-4 * np.maximum(1.0, np.abs(grad)))


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
@pytest.mark.parametrize("with_g", [True, False], ids=["g+g_of_mu", "g_of_mu-only"])
def test_multiplier_cost_explicit_parameter_dependence(with_g, formulation):
    # g_of_mu = m mu_0 depends on rho as well as on mu: its own rho partial
    # must join the resolved gradient next to the multiplier chain, also
    # when the cost has no g term at all
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import direct_gradient
    from hybridsens.model import CostFunctional
    from hybridsens.oracle import fd_cost_sensitivity

    dyn = FORMULATIONS[formulation](pendulum_swing_model(theta0=0.7))
    cost = CostFunctional(
        nc=1,
        g=(lambda t, q, v, a, rho, u: np.array([v[0] ** 2])) if with_g else None,
        g_of_mu=lambda t, q, v, a, rho, mu: np.array([rho[2] * mu[0]]),
        name="vx2+m*mu" if with_g else "m*mu",
    )
    cfg = IntegratorConfig()
    grad, traj, _ = direct_gradient(dyn, cost, [], RHO, (0.0, 1.0), cfg)
    adj = propagate_adjoint(traj, cost).gradient
    fd = fd_cost_sensitivity(dyn, cost, [], RHO, (0.0, 1.0), cfg)
    assert abs(fd[0, 2]) > 1.0  # the m mu_0 term is seen at all
    assert np.all(np.abs(fd - grad) <= 1e-4 * np.maximum(1.0, np.abs(fd)))
    assert np.all(np.abs(fd - adj) <= 1e-4 * np.maximum(1.0, np.abs(fd)))


def test_multiplier_sensitivity_matches_fd():
    # Lambda = gq Q + gv V + grho, with (Q, V) from the direct pass, must
    # reproduce the finite difference of mu(t; rho) across perturbed runs
    from hybridsens.direct import propagate_direct
    from hybridsens.model import CostFunctional

    model = pendulum_swing_model(theta0=0.7)
    dyn = DaeDynamics(model)
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([v[0]]))
    cfg = IntegratorConfig()
    t_probe = 0.8

    def mu_at(rr):
        q, v, _ = simulate(dyn, cost, [], rr, (0.0, 1.0), cfg).state_at(t_probe)
        return dyn.accel_and_multipliers(t_probe, q, v, rr)[1]

    traj = simulate(dyn, cost, [], RHO, (0.0, 1.0), cfg)
    propagate_direct(traj)
    q, v, _ = traj.state_at(t_probe)
    X = traj.sensitivity_at(t_probe)
    gq, gv, grho = columns(dyn.multiplier_jacobians(t_probe, q, v, RHO), 2)
    Lam = gq @ X.Q + gv @ X.V + grho
    h = 1e-6
    for j in range(3):
        rp, rm = RHO.copy(), RHO.copy()
        rp[j] += h
        rm[j] -= h
        fd = (mu_at(rp) - mu_at(rm)) / (2 * h)
        assert np.max(np.abs(Lam[:, j] - fd)) < 1e-4 * max(1.0, np.abs(fd).max())


def test_singular_kkt_reported():
    model = pendulum_swing_model()
    q = np.zeros(2)  # constraint Jacobian 2 q^T vanishes at the origin
    with pytest.raises(SingularKKTError):
        DaeDynamics(model).accel_and_multipliers(0.0, q, np.zeros(2), RHO)


def test_multiplier_dependent_cost_one_assembly_per_state():
    # a multiplier-dependent cost needs the f-blocks and the mu-blocks at
    # every state; one Jacobian call hands out both, from one assembly
    from hybridsens.direct import direct_gradient
    from hybridsens.model import CostFunctional

    dyn = DaeDynamics(pendulum_swing_model(theta0=0.7))
    cost = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([v[0] ** 2]),
        g_of_mu=lambda t, q, v, a, rho, mu: np.array([mu[0] ** 2]),
        name="vx2+mu2",
    )
    states, assembled, asked = set(), [], []

    def recording(method):
        def wrapper(t, q, v, rho, *args, **kwargs):
            states.add((t, q.tobytes(), v.tobytes()))
            asked.append(method.__name__)
            return method(t, q, v, rho, *args, **kwargs)
        return wrapper

    def counting(assemble):
        def wrapper(t, q, v, rho, *args):
            assembled.append(t)
            return assemble(t, q, v, rho, *args)
        return wrapper

    dyn.jacobians = recording(dyn.jacobians)
    dyn.multiplier_jacobians = recording(dyn.multiplier_jacobians)
    dyn._assemble_jacobians = counting(dyn._assemble_jacobians)
    direct_gradient(dyn, cost, [], RHO, (0.0, 0.3), IntegratorConfig())
    assert set(asked) == {"jacobians"}  # both block sets from one call
    assert len(assembled) == len(states)


@pytest.mark.parametrize("params, formulation", [(FIVE_BAR_PARAMS, "penalty"),
                                                  (("k1", "k2"), "dae")],
                         ids=["five-bar-penalty-all-parameters", "five-bar-dae"])
def test_sweeps_evaluate_force_partials_once_per_stage_state(monkeypatch, params, formulation):
    # the tangent and adjoint sweeps read vdot and mu from the stage record:
    # at each stage state they evaluate the force partials once, and the
    # force itself never
    import hybridsens.adjoint as adjoint
    import hybridsens.direct as direct

    prob = five_bar(params, formulation)
    dyn, model = prob.dynamics, prob.dynamics.model
    calls = {"force": 0, "force_partials": 0}
    assembled = []
    sweeping = [False]

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += sweeping[0]
            return fn(*args)
        return wrapper

    def in_sweep(step):
        def wrapper(*args):
            sweeping[0] = True
            try:
                return step(*args)
            finally:
                sweeping[0] = False
        return wrapper

    assemble = dyn._assemble_jacobians

    def recording(t, q, v, rho, *args):
        if sweeping[0]:
            assembled.append((t, q.tobytes(), v.tobytes()))
        return assemble(t, q, v, rho, *args)

    model.force = counted("force", model.force)
    model.force_partials = counted("force_partials", model.force_partials)
    dyn._assemble_jacobians = recording
    monkeypatch.setattr(DenseSegment, "adjoint_step", in_sweep(DenseSegment.adjoint_step))
    monkeypatch.setattr(DenseSegment, "tangent_step", in_sweep(DenseSegment.tangent_step))
    cost = prob.cost("int-ay2sq-vy2sq")
    traj = direct.simulate(dyn, cost, prob.events, prob.rho0.rho, (0.0, 0.9), prob.config)
    direct.propagate_direct(traj)
    assert len(traj.events) == 2
    # seven stages on a segment's first step, six after it (FSAL)
    tangent_stages = sum(6 * len(seg.dense) + 1 for seg in traj.segments)
    assert calls == {"force": 0, "force_partials": tangent_stages}
    assert len(assembled) == len(set(assembled)) == tangent_stages

    calls.update(force=0, force_partials=0)
    assembled.clear()
    adjoint.propagate_adjoint(traj, cost)
    # six stages on a full step, seven on a segment's last step cut at an event
    adjoint_stages = sum(6 * len(seg.dense) + seg.dense.truncated for seg in traj.segments)
    assert calls == {"force": 0, "force_partials": adjoint_stages}
    assert len(assembled) == len(set(assembled)) == adjoint_stages


def random_saddle(rng, n, m, c):
    A = rng.normal(size=(n, n))
    M = A @ A.T + n * np.eye(n)
    G = rng.normal(size=(m, n))
    return np.block([[M, G.T], [G, -c * np.eye(m)]])


@pytest.mark.parametrize("c", [0.0, 1e-7])
def test_checked_lu_matches_scipy_bitwise(c):
    # checked_lu calls getrf/getrs itself; scipy's wrappers stay the reference
    rng = np.random.default_rng(31)
    for n, m in ((6, 4), (2, 1), (9, 3)):
        K = random_saddle(rng, n, m, c)
        solve = checked_lu(K, "test saddle matrix")
        lu_piv = scipy.linalg.lu_factor(K)
        for B in (rng.normal(size=n + m), rng.normal(size=(n + m, 3)),
                  np.asfortranarray(rng.normal(size=(n + m, 2 * n + 5)))):
            x, ref = solve(B), scipy.linalg.lu_solve(lu_piv, B)
            assert x.shape == ref.shape
            assert x.tobytes() == ref.tobytes()


def test_exactly_singular_saddle_matrix_raises():
    # a zero constraint row makes K exactly singular (a zero pivot); the
    # error is raised without any LinAlgWarning on the way
    G = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularKKTError, match="test KKT matrix"):
            saddle_factor(np.eye(3), G, 0.0, "test KKT matrix")


@pytest.mark.parametrize("c", [0.0, 1e-7])
def test_saddle_factor_builds_the_blocked_matrix_bytewise(monkeypatch, c):
    # the K handed to checked_lu holds exactly the bytes of the blocked
    # construction, the signed zeros of -c * eye(m) included
    import hybridsens.constrained as constrained

    rng = np.random.default_rng(33)
    n, m = 6, 4
    A = rng.normal(size=(n, n))
    M, G = A @ A.T + n * np.eye(n), rng.normal(size=(m, n))
    seen = []
    monkeypatch.setattr(constrained, "checked_lu", lambda K, what: seen.append(K.copy()))
    saddle_factor(M, G, c, "test saddle matrix")
    ref = np.zeros((n + m, n + m))
    ref[:n, :n], ref[:n, n:], ref[n:, :n] = M, G.T, G
    if c:
        ref[n:, n:] = -c * np.eye(m)
    assert seen[0].dtype == ref.dtype and seen[0].shape == ref.shape
    assert seen[0].tobytes() == ref.tobytes()
    assert np.signbit(seen[0][n:, n:]).all() == bool(c)


_ABOVE = np.nextafter(1e12, np.inf)
_BELOW = np.nextafter(1e12, 0.0)
# diagonal matrices, so that the pivots are the diagonal entries
PIVOT_CASES = {
    "regular": ([2.0, -3.0, 0.5], True),
    "zero pivot": ([1.0, 0.0, 2.0], False),
    "ratio just under the limit": ([_BELOW, 1.0, -2.0], True),
    "ratio at the limit": ([-1e12, 1.0, 3.0], True),
    "ratio just over the limit": ([_ABOVE, 1.0, 2.0], False),
    "infinite pivot": ([np.inf, 1.0, 1.0], False),
    # numpy's min and max propagate NaN, and a NaN ratio is refused
    "NaN pivot": ([1.0, np.nan, 2.0], False),
    "NaN and zero pivots": ([0.0, 1.0, np.nan], False),
}


@pytest.mark.parametrize("case", PIVOT_CASES)
def test_checked_lu_pivot_check_matches_numpy_reductions(case):
    # the check reads the diagonal as Python floats; it accepts exactly what
    # the check on numpy's reductions accepts, a ratio at most COND_LIMIT
    import hybridsens.constrained as constrained
    from hybridsens.model import COND_LIMIT

    diag, accepted = PIVOT_CASES[case]
    A = np.diag(diag)
    lu = constrained._getrf(A)[0]
    d = np.abs(np.diag(lu))
    assert (d.min() != 0.0 and d.max() / d.min() <= COND_LIMIT) == accepted
    if accepted:
        checked_lu(A, "test matrix")
    else:
        with pytest.raises(SingularKKTError, match="test matrix"):
            checked_lu(A, "test matrix")


def _listed_pivot_ratio(diag):
    """max |d| / min |d| by Python's reductions over a list of |d|, NaN when
    a sum of them is, inf for a zero minimum."""
    d = [abs(x) for x in diag]
    if np.isnan(sum(d)):
        return np.nan
    return np.inf if min(d) == 0.0 else max(d) / min(d)


def test_pivot_ratio_is_the_listed_reductions():
    # one scan over the diagonal gives the ratio of the listed reductions,
    # a NaN wherever it stands, an infinite or zero pivot anywhere
    from hybridsens.model import pivot_ratio

    rng = np.random.default_rng(37)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300]
    for _ in range(400):
        diag = rng.normal(size=rng.integers(1, 7)) * 10.0 ** rng.integers(-5, 6)
        for i in rng.choice(diag.size, size=rng.integers(0, 3)):
            diag[i] = specials[rng.integers(len(specials))]
        got, want = pivot_ratio(np.diag(diag)), _listed_pivot_ratio(diag.tolist())
        assert (np.isnan(got) and np.isnan(want)) or got == want, (diag, got, want)


def test_simulate_refuses_a_pushing_tether():
    # the capture lands high on the disc: the swing's stage multipliers go
    # negative, and the run raises instead of returning the trajectory
    from hybridsens.constrained import ConstraintReleaseError
    from hybridsens.gallery import pendulum

    prob = pendulum()
    rho = np.array([0.3, 6.0, 1.0])
    with pytest.raises(ConstraintReleaseError, match="row 0"):
        simulate(prob.dynamics, None, prob.events, rho, prob.t_span, prob.config)
    traj = simulate(prob.dynamics, None, prob.events, prob.rho0.rho, prob.t_span, prob.config)
    assert traj.segments[-1].dense.multipliers.min() > 0.0


class _Delegating:
    """A custom dynamics class that hands every call to another object."""

    def __init__(self, inner):
        self.inner, self.model, self.dims = inner, inner.model, inner.dims

    def accel(self, *args):
        return self.inner.accel(*args)

    def accel_and_multipliers(self, *args):
        return self.inner.accel_and_multipliers(*args)

    def jacobians(self, *args):
        return self.inner.jacobians(*args)

    def multiplier_jacobians(self, *args):
        return self.inner.multiplier_jacobians(*args)


def test_pushing_tether_refused_for_any_dynamics_class():
    # the one-sided check reads the model's constraint set and the recorded
    # multipliers, not the class of the dynamics
    from hybridsens.constrained import ConstraintReleaseError
    from hybridsens.gallery import pendulum

    prob = pendulum()
    capture = prob.events[0]
    events = [dataclasses.replace(capture, post_dynamics=_Delegating(capture.post_dynamics))]
    with pytest.raises(ConstraintReleaseError, match="row 0"):
        simulate(prob.dynamics, None, events, np.array([0.3, 6.0, 1.0]), prob.t_span,
                 prob.config)
    traj = simulate(prob.dynamics, None, events, prob.rho0.rho, prob.t_span, prob.config)
    assert isinstance(traj.segments[-1].dynamics, _Delegating)
    assert traj.segments[-1].dense.multipliers.min() > 0.0


def test_one_sided_rows_are_checked():
    phi = lambda t, q, rho: q[:2]  # noqa: E731
    assert ConstraintSet(m=2, phi=phi, one_sided=[1]).one_sided == (1,)
    for rows in ((2,), (0, 0), (-1,)):
        with pytest.raises(ValueError, match="one_sided"):
            ConstraintSet(m=2, phi=phi, one_sided=rows)


def _read_only(*blocks):
    """Read-only views of the blocks; None stays None."""
    views = []
    for b in blocks:
        if b is not None:
            b = np.asarray(b).view()
            b.flags.writeable = False
        views.append(b)
    return tuple(views)


class _ReadOnlyBlocks(_Delegating):
    """A custom dynamics class whose Jacobian call hands out read-only
    blocks."""

    def jacobians(self, *args):
        return _read_only(*self.inner.jacobians(*args))


def _read_only_partials(cost):
    """The cost with each partial callback's blocks handed out read-only."""
    def wrap(partials):
        return None if partials is None else (lambda *a: _read_only(*partials(*a)))
    return dataclasses.replace(cost, g_partials=wrap(cost.g_partials),
                               u_partials=wrap(cost.u_partials),
                               w_partials=wrap(cost.w_partials))


@pytest.mark.parametrize("system, cname", [("five-bar-dae", "int-ay2sq-vy2sq"),
                                           ("pendulum", "x-final"), ("pendulum", "int-vx")])
def test_no_pass_writes_into_a_block_it_was_handed(system, cname):
    # the passes read the Jacobian blocks of the dynamics and the partials
    # of the cost and never write into them: with every block read-only,
    # a run and both sweeps raise nothing and give the plain run's bytes
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import propagate_direct
    from hybridsens.gallery import pendulum

    prob = five_bar(formulation="dae") if system == "five-bar-dae" else pendulum()
    events = [dataclasses.replace(e, post_dynamics=_ReadOnlyBlocks(e.post_dynamics))
              if getattr(e, "post_dynamics", None) is not None else e for e in prob.events]
    runs = []
    for dyn, cost, evs in ((prob.dynamics, prob.cost(cname), prob.events),
                           (_ReadOnlyBlocks(prob.dynamics),
                            _read_only_partials(prob.cost(cname)), events)):
        traj = simulate(dyn, cost, evs, prob.rho0.rho, prob.t_span, prob.config)
        XF = propagate_direct(traj)
        sol = propagate_adjoint(traj)
        arrays = [a for seg in traj.segments
                  for a in (seg.dense.node_states, seg.dense.stages, seg.dense.multipliers,
                            seg.tangent.node_states)]
        arrays += [XF.Q, XF.V, XF.Z, sol.series, sol.gradient, *traj.terminal_gradients()]
        runs.append([np.ascontiguousarray(a).tobytes() for a in arrays])
    assert isinstance(traj.segments[-1].dynamics, _ReadOnlyBlocks)
    assert traj.events
    assert runs[0] == runs[1]
