import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from hybridsens.constrained import DaeDynamics
from hybridsens.core import DimensionError, Dimensions
from hybridsens.model import (
    ConstraintSet,
    CostFunctional,
    InitialConditions,
    MultibodyModel,
    OdeDynamics,
    SingularMatrixError,
    cost_density_gradients,
    fd_jacobian,
    terminal_cost_gradients,
    _spd_solve,
)
from conftest import columns, cost_density_value, rel_err

G = 9.81


def planar_free_fall():
    dims = Dimensions(n=2, p=1)
    return MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(2),
        force=lambda t, q, v, rho: np.array([0.0, -rho[0]]),
        initial_state=lambda rho: InitialConditions(
            np.zeros(2), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1))),
        name="planar-free-fall",
    )


def test_eom_rhs_identity_mass():
    dyn = OdeDynamics(planar_free_fall())
    vdot = dyn.accel(0.0, np.zeros(2), np.zeros(2), np.array([G]))
    assert np.allclose(vdot, [0.0, -G], atol=0, rtol=0)


def test_eom_rhs_scalar_oscillator():
    dims = Dimensions(n=1, p=1)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.array([[2.0]]),
        force=lambda t, q, v, rho: np.array([-8.0 * q[0]]),
        initial_state=lambda rho: InitialConditions(
            np.ones(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1))),
    )
    vdot = OdeDynamics(model).accel(0.0, np.array([1.0]), np.zeros(1), np.ones(1))
    assert np.allclose(vdot, [-4.0])


def test_eom_rhs_five_bar_acceleration_constraint():
    from hybridsens.gallery import five_bar

    prob = five_bar()
    dyn = prob.dynamics
    rho = prob.rho0.rho
    ic = dyn.model.initial_state(rho)
    vdot = dyn.accel(0.0, ic.q0, ic.v0, rho)
    cons = dyn.model.constraints
    res = cons.jac_q(0.0, ic.q0, rho) @ vdot - cons.accel_rhs(0.0, ic.q0, ic.v0, rho)
    assert np.max(np.abs(res)) < 1e-6


def test_eom_rhs_singular_mass_reports():
    dims = Dimensions(n=2, p=1)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.array([[1.0, 1.0], [1.0, 1.0]]),
        force=lambda t, q, v, rho: np.zeros(2),
        initial_state=lambda rho: InitialConditions(
            np.zeros(2), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1))),
    )
    with pytest.raises(SingularMatrixError, match="t="):
        OdeDynamics(model).accel(0.5, np.zeros(2), np.zeros(2), np.ones(1))


def test_spd_solve_matches_scipy_bitwise():
    # _spd_solve calls potrf/potrs itself; scipy's wrappers stay the reference
    rng = np.random.default_rng(32)
    for n in (1, 2, 6):
        A = rng.normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        factor = scipy.linalg.cho_factor(M)
        for B in (rng.normal(size=n), rng.normal(size=(n, 2 * n + 1)),
                  np.asfortranarray(rng.normal(size=(n, 3)))):
            x, ref = _spd_solve(M, B, "mass matrix", 0.0), scipy.linalg.cho_solve(factor, B)
            assert x.shape == ref.shape
            assert x.tobytes() == ref.tobytes()


_R_ABOVE, _R_BELOW = np.nextafter(1e6, np.inf), np.nextafter(1e6, 0.0)
# diagonal mass matrices: the Cholesky pivots are the square roots of their
# entries, and the condition estimate is the squared pivot ratio
SPD_PIVOT_CASES = {
    "regular": ([4.0, 1.0, 2.0], True),
    "estimate just under the limit": ([_R_BELOW * _R_BELOW, 1.0, 2.0], True),
    "estimate at the limit": ([1e12, 1.0, 3.0], True),
    "estimate just over the limit": ([_R_ABOVE * _R_ABOVE, 1.0, 2.0], False),
    "infinite pivot": ([1.0, np.inf, 1.0], False),
    # numpy's min and max propagate NaN, and a NaN estimate is refused
    "NaN pivot": ([1.0, np.nan, 2.0], False),
}


@pytest.mark.parametrize("case", SPD_PIVOT_CASES)
def test_spd_solve_pivot_check_matches_numpy_reductions(case):
    # the check reads the factor's diagonal as Python floats; it accepts
    # exactly what the estimate from numpy's reductions accepts, one at most
    # COND_LIMIT
    from hybridsens.model import COND_LIMIT, _potrf

    diag, accepted = SPD_PIVOT_CASES[case]
    M = np.diag(diag)
    c, info = _potrf(M, clean=False)
    if info:
        pytest.skip("this LAPACK refuses the NaN pivot in potrf itself")
    d = np.abs(np.diag(c))
    assert ((d.max() / d.min()) ** 2 <= COND_LIMIT) == accepted
    if accepted:
        _spd_solve(M, np.ones(3), "mass matrix", 0.0)
    else:
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            _spd_solve(M, np.ones(3), "mass matrix", 0.0)


def test_spd_solve_non_spd_mass_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="not positive definite at t=0.25"):
            _spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), "mass matrix", 0.25)


def test_eom_jacobians_linear_system():
    dims = Dimensions(n=1, p=1)
    m, k = 2.0, 8.0
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.array([[m]]),
        force=lambda t, q, v, rho: np.array([-k * q[0]]),
        initial_state=lambda rho: InitialConditions(
            np.ones(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1))),
        mass_constant=True,
    )
    f_q, f_v, f_rho = columns(OdeDynamics(model).jacobians(0.0, np.array([0.3]),
                                                           np.array([0.1]), np.ones(1))[2], 1)
    assert np.allclose(f_q, [[-k / m]], rtol=1e-9)
    assert np.allclose(f_v, [[0.0]], atol=1e-9)


def test_eom_jacobians_match_fd_of_rhs(curved_mass):
    model, dyn = curved_mass
    t, q, v, rho = 0.3, np.array([0.4, -0.2]), np.array([0.1, 0.6]), np.array([3.0, 1.5])
    f_q, f_v, f_rho = columns(dyn.jacobians(t, q, v, rho)[2], 2)
    fd_q = fd_jacobian(lambda qq: dyn.accel(t, qq, v, rho), q)
    fd_v = fd_jacobian(lambda vv: dyn.accel(t, q, vv, rho), v)
    fd_r = fd_jacobian(lambda rr: dyn.accel(t, q, v, rr), rho)
    assert rel_err(f_q, fd_q, floor=1.0) < 1e-6
    assert rel_err(f_v, fd_v, floor=1.0) < 1e-6
    assert rel_err(f_rho, fd_r, floor=1.0) < 1e-6


def test_eom_jacobians_defining_identity(curved_mass):
    # M f_zeta + M_zeta vdot = F_zeta for each column of the q block
    model, dyn = curved_mass
    t, q, v, rho = 0.0, np.array([0.2, 0.5]), np.array([-0.3, 0.4]), np.array([2.0, 1.0])
    vdot = dyn.accel(t, q, v, rho)
    f_q, _, _ = columns(dyn.jacobians(t, q, v, rho)[2], 2)
    M = model.mass_at(t, q, rho)
    lhs = M @ f_q + model.mass_jacobians(t, q, rho, vdot)[0]
    rhs = columns(model.force_jacobians(t, q, v, rho), 2)[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_constraint_hessian_shape_and_symmetry_guard():
    # a hessian is trusted as the constraints' exact curvature, so a wrong
    # shape or an asymmetric one is refused at construction
    def phi(t, q, rho):
        return np.array([q @ q - 1.0])

    for bad in (np.eye(2), np.zeros((2, 2, 2)), np.zeros((1, 2, 3)),
                np.array([[[2.0, 1.0], [0.0, 2.0]]])):
        with pytest.raises(DimensionError, match="hessian"):
            ConstraintSet(m=1, phi=phi, hessian=bad)
    cons = ConstraintSet(m=1, phi=phi, hessian=2.0 * np.eye(2)[None])
    assert not cons.hessian.flags.writeable


def test_force_partials_shape_guard():
    # a (p,) F_rho would broadcast silently across all n rows of the
    # Jacobian assembly; force_jacobians refuses it by name
    from hybridsens.gallery import bouncing_mass, five_bar, pendulum_model

    model = pendulum_model()
    model.force_partials = lambda t, q, v, rho: (np.zeros((2, 2)), np.zeros((2, 2)),
                                                 np.array([0.0, 0.0, -G]))
    state = (0.0, np.array([0.3, -0.8]), np.zeros(2), np.array([0.2, -1.0, 1.3]))
    with pytest.raises(DimensionError, match="force_partials.*F_rho"):
        model.force_jacobians(*state)
    with pytest.raises(DimensionError, match="force_partials"):
        DaeDynamics(model).jacobians(*state)

    # so is every cost and jump-map partials callback, block by block
    t, q, v, a, rho, u = 0.1, np.ones(2), np.ones(2), np.ones(2), np.ones(1), np.ones(1)
    wrong_g = CostFunctional(
        nc=1, g=lambda t, q, v, a, rho, u: np.array([v[1] + u[0]]),
        g_partials=lambda *args: (np.zeros((1, 2)), np.array([0.0, 1.0]), np.zeros((1, 2)),
                                  np.zeros((1, 1)), np.ones((1, 1))))
    with pytest.raises(DimensionError, match="g_partials.*g_v"):
        wrong_g.g_jacobians(t, q, v, a, rho, u)
    wrong_w = CostFunctional(
        nc=1, w=lambda t, q, v, rho, u: np.array([q[0]]),
        w_partials=lambda *args: (np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.zeros(1), None))
    with pytest.raises(DimensionError, match="w_partials.*w_rho"):
        wrong_w.w_jacobians(t, q, v, rho, None)
    model = pendulum_model()
    model.mass_partials = lambda t, q, rho, w: (np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError, match="mass_partials.*M_rho"):
        model.mass_jacobians(0.0, np.array([0.3, -0.8]), np.array([0.2, -1.0, 1.3]), np.ones(2))

    event = bouncing_mass().events[0]
    event.h_partials = lambda t, q, v, rho: (np.zeros(1), np.zeros((1, 1)),
                                             np.array([[-rho[1]]]), np.array([0.0, -v[0]]))
    with pytest.raises(DimensionError, match="h_partials.*h_rho"):
        event.jacobians(0.0, np.zeros(1), np.array([-1.0]), np.array([1.0, 0.9]))
    event = five_bar().events[0]
    event.dof_jump_partials = lambda t, q, vdof, rho: (np.zeros(2), np.zeros((2, 2)),
                                                       np.eye(2), np.zeros((2, rho.size)))
    with pytest.raises(DimensionError, match="dof_jump_partials.*h_q"):
        event.jacobians(0.0, np.zeros(6), np.array([0.1, -1.0]), np.array([100.0, 100.0]))


def test_f_rho_free_fall():
    dyn = OdeDynamics(planar_free_fall())
    _, _, f_rho = columns(dyn.jacobians(0.0, np.zeros(2), np.zeros(2), np.array([G]))[2], 2)
    assert np.allclose(f_rho, [[0.0], [-1.0]], atol=1e-9)


# -- cost gradients ---------------------------------------------------------


def quadratic_cost():
    # density ay^2 + vy^2 on the 2nd coordinate of the planar model
    return CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([a[1] ** 2 + v[1] ** 2]),
        name="ay2+vy2",
    )


def test_cost_density_selector_velocity():
    dyn = OdeDynamics(planar_free_fall())
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([v[1]]))
    state = (0.0, np.zeros(2), np.array([0.1, -2.0]), np.array([G]))
    gq, gv, gr = columns(cost_density_gradients(cost, *state, dyn.jacobians(*state)), 2)
    assert np.allclose(cost_density_value(cost, dyn, *state), [-2.0])
    assert np.allclose(gv, [[0.0, 1.0]], atol=1e-9)
    assert np.allclose(gq, 0.0, atol=1e-9)


def test_cost_density_acceleration_chain(curved_mass):
    model, dyn = curved_mass
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([a[1]]))
    t, q, v, rho = 0.1, np.array([0.3, 0.2]), np.array([0.4, -0.5]), np.array([2.0, 1.0])
    gq, gv, gr = columns(cost_density_gradients(cost, t, q, v, rho,
                                                dyn.jacobians(t, q, v, rho)), 2)
    f_q, f_v, f_rho = columns(dyn.jacobians(t, q, v, rho)[2], 2)
    assert np.allclose(gq, f_q[1:2, :], rtol=1e-7, atol=1e-9)
    assert np.allclose(gv, f_v[1:2, :], rtol=1e-7, atol=1e-9)
    assert np.allclose(gr, f_rho[1:2, :], rtol=1e-7, atol=1e-9)


def test_cost_density_gradients_match_fd(curved_mass):
    model, dyn = curved_mass
    cost = quadratic_cost()
    t, q, v, rho = 0.2, np.array([0.1, -0.4]), np.array([0.7, 0.2]), np.array([2.5, 1.2])
    gq, gv, gr = columns(cost_density_gradients(cost, t, q, v, rho,
                                                dyn.jacobians(t, q, v, rho)), 2)
    fd_q = fd_jacobian(lambda qq: cost_density_value(cost, dyn, t, qq, v, rho), q)
    fd_v = fd_jacobian(lambda vv: cost_density_value(cost, dyn, t, q, vv, rho), v)
    fd_r = fd_jacobian(lambda rr: cost_density_value(cost, dyn, t, q, v, rr), rho)
    assert rel_err(gq, fd_q, floor=1.0) < 1e-6
    assert rel_err(gv, fd_v, floor=1.0) < 1e-6
    assert rel_err(gr, fd_r, floor=1.0) < 1e-6


def test_cost_density_u_chain_matches_direct_form(curved_mass):
    # the same density written with and without the argument function
    model, dyn = curved_mass
    direct_form = quadratic_cost()
    u_form = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([u[0] ** 2 + v[1] ** 2]),
        u_fn=lambda t, q, v, a, rho: np.array([a[1]]),
    )
    t, q, v, rho = 0.4, np.array([-0.2, 0.3]), np.array([0.5, -0.1]), np.array([1.0, 2.0])
    jac = dyn.jacobians(t, q, v, rho)
    out_a = columns(cost_density_gradients(direct_form, t, q, v, rho, jac), 2)
    out_b = columns(cost_density_gradients(u_form, t, q, v, rho, jac), 2)
    for a, b in zip(out_a, out_b):
        assert np.allclose(a, b, rtol=1e-6, atol=1e-8)


def test_terminal_gradients_selector_and_zero():
    dyn = OdeDynamics(planar_free_fall())
    sel = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([q[1]]))
    w, w_y = terminal_cost_gradients(sel, dyn, 1.0, np.array([0.1, 0.2]),
                                     np.zeros(2), np.array([G]))
    wq, wv, wr = columns(w_y, 2)
    assert np.allclose(wq, [[0.0, 1.0]], atol=1e-9)
    assert np.allclose(wv, 0.0, atol=1e-9)

    zero = CostFunctional(nc=1)
    out = terminal_cost_gradients(zero, dyn, 1.0, np.zeros(2), np.zeros(2), np.array([G]))
    assert all(np.allclose(b, 0.0) for b in out)


def test_terminal_gradient_speed_squared():
    dyn = OdeDynamics(planar_free_fall())
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([v @ v]))
    v = np.array([0.3, -1.2])
    wq, wv, wr = columns(terminal_cost_gradients(cost, dyn, 1.0, np.zeros(2), v,
                                                 np.array([G]))[1], 2)
    assert np.allclose(wv, 2.0 * v[None, :], rtol=1e-8, atol=1e-8)


class _CountingSolves:
    """Dynamics proxy counting ``accel_and_multipliers`` calls."""

    def __init__(self, dyn):
        self.dyn, self.solves = dyn, 0

    def accel_and_multipliers(self, *args):
        self.solves += 1
        return self.dyn.accel_and_multipliers(*args)

    def jacobians(self, *args):
        return self.dyn.jacobians(*args)


def test_terminal_gradients_solve_only_for_an_argument_function():
    # only the argument function u sees the final acceleration, so a terminal
    # cost without one solves nothing at tF
    from hybridsens.gallery import pendulum

    prob = pendulum()
    dyn = _CountingSolves(prob.dynamics)
    tF, q, v, rho = 1.2, np.array([0.3, -0.9]), np.array([0.5, 0.2]), prob.rho0.rho
    want = terminal_cost_gradients(prob.cost("x-final"), prob.dynamics, tF, q, v, rho)
    got = terminal_cost_gradients(prob.cost("x-final"), dyn, tF, q, v, rho)
    assert dyn.solves == 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))

    with_u = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([q[0] + u[0]]),
                            u_fn=lambda t, q, v, a, rho: np.array([a[1]]))
    wq, _, wr = columns(terminal_cost_gradients(with_u, dyn, tF, q, v, rho)[1], 2)
    assert dyn.solves == 1
    # u = ay = -g, so d psi/dm = 0 and d psi/dq is the selector
    assert np.allclose(wq, [[1.0, 0.0]], atol=1e-8)
    assert np.allclose(wr, 0.0, atol=1e-8)


def test_cost_value_of_the_wrong_width_is_refused():
    t, q, v, a, rho, mu = 0.0, np.zeros(2), np.ones(2), np.zeros(2), np.ones(1), np.ones(1)
    wide_g = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: v, name="wide-g")
    with pytest.raises(DimensionError, match=r"wide-g.*\(2,\)"):
        wide_g.g_value(t, q, v, a, rho)
    # the multiplier term is checked after it is added
    wide_mu = CostFunctional(nc=1, g_of_mu=lambda t, q, v, a, rho, mu: np.zeros(2),
                             name="wide-mu")
    with pytest.raises(DimensionError, match="wide-mu"):
        wide_mu.g_value(t, q, v, a, rho, mu=mu)
    narrow_w = CostFunctional(nc=2, w=lambda t, q, v, rho, u: np.array([q[0]]),
                              name="narrow-w")
    with pytest.raises(DimensionError, match=r"narrow-w.*\(1,\)"):
        narrow_w.w_value(t, q, v, rho)
    # in a run, the first right-hand side refuses it
    from hybridsens.direct import simulate

    dyn = OdeDynamics(planar_free_fall())
    with pytest.raises(DimensionError, match="wide-g"):
        simulate(dyn, wide_g, [], np.array([G]), (0.0, 0.1))


@pytest.mark.parametrize("name, expected", [
    ("force", r"force of 'five-bar' returned shape \(1,\); expected \(6,\)"),
    ("mass", r"mass of 'five-bar' returned shape \(1, 6\); expected \(6, 6\)"),
    ("phi", r"constraint phi returned shape \(1,\); expected \(4,\)"),
    ("phi_q", r"constraint phi_q returned shape \(1, 6\); expected \(4, 6\)"),
    ("phi_rho", r"constraint phi_rho returned shape \(1, 2\); expected \(4, 2\)"),
])
def test_model_and_constraint_values_of_the_wrong_shape_are_refused(name, expected):
    # broadcasting carried each on: a (1,) force ran both five-bar forms with
    # no contact, a (1, 6) phi_q ran the penalty form and failed the DAE's KKT
    # factorization as singular; each callback's value is checked, on both
    # forms, whose constant mass is read when the dynamics is built
    from hybridsens.direct import simulate
    from hybridsens.gallery import five_bar

    for form in ("penalty", "dae"):
        prob = five_bar(formulation=form)
        model = prob.dynamics.model
        owner = model if name in ("force", "mass") else model.constraints
        full = getattr(owner, name)
        setattr(owner, name, lambda *args, full=full: np.asarray(full(*args))[:1])
        with pytest.raises(DimensionError, match=expected):
            simulate(type(prob.dynamics)(model), prob.cost(), prob.events, prob.rho0.rho,
                     (0.0, 0.5), prob.config)


def test_gallery_analytic_partials_match_fd():
    # every analytic Jacobian a model supplies must agree with the fallback
    from hybridsens.gallery import FIVE_BAR_DATA, FIVE_BAR_PARAMS, five_bar_model, pendulum_model

    rng = np.random.default_rng(42)
    for model, rho in ((five_bar_model(), np.array([100.0, 100.0])),
                       (five_bar_model(FIVE_BAR_PARAMS),
                        np.array([FIVE_BAR_DATA[nm] for nm in FIVE_BAR_PARAMS])),
                       (pendulum_model(), np.array([0.2, -1.0, 1.3]))):
        n = model.dims.n
        for _ in range(3):
            t = float(rng.uniform(0, 1))
            q = rng.normal(scale=1.0, size=n) + (np.array([-1.5, -1, 0, -2, 1.5, -1])
                                                 if n == 6 else np.array([0.3, -0.8]))
            v = rng.normal(scale=0.5, size=n)
            fd_fq = fd_jacobian(lambda qq: model.force_at(t, qq, v, rho), q)
            F_q, F_v, F_rho = columns(model.force_jacobians(t, q, v, rho), n)
            assert rel_err(F_q, fd_fq, floor=1.0) < 1e-5
            fd_fv = fd_jacobian(lambda vv: model.force_at(t, q, vv, rho), v)
            assert rel_err(F_v, fd_fv, floor=1.0) < 1e-5
            fd_fr = fd_jacobian(lambda rr: model.force_at(t, q, v, rr), rho)
            assert rel_err(F_rho, fd_fr, floor=1.0) < 1e-5
            w = rng.normal(size=n)
            fd_mq = fd_jacobian(lambda qq: model.mass_at(t, qq, rho) @ w, q)
            assert np.max(np.abs(model.mass_jacobians(t, q, rho, w)[0] - fd_mq)) < 1e-5
            fd_mr = fd_jacobian(lambda rr: model.mass_at(t, q, rr) @ w, rho)
            assert np.max(np.abs(model.mass_jacobians(t, q, rho, w)[1] - fd_mr)) < 1e-5
            cons = model.constraints
            if cons is not None:
                fd_gq = fd_jacobian(lambda qq: cons.value(t, qq, rho), q)
                assert np.max(np.abs(cons.jac_q(t, q, rho) - fd_gq)) < 1e-5
                fd_qq = fd_jacobian(lambda qq: cons.jac_q(t, qq, rho) @ w, q)
                assert np.max(np.abs(cons.qq_action(t, q, rho, w) - fd_qq)) < 1e-5
                fd_pr = fd_jacobian(lambda rr: cons.value(t, q, rr), rho)
                assert np.max(np.abs(cons.jac_rho(t, q, rho) - fd_pr)) < 1e-5
                # a declared hessian also declares phi_q independent of rho
                fd_qr = fd_jacobian(lambda rr: cons.jac_q(t, q, rr) @ w, rho)
                assert np.max(np.abs(cons.q_rho_action(t, q, rho, w) - fd_qr)) < 1e-5


def test_constraint_partials_fall_back_to_central_differences():
    # a constraint set declaring phi alone takes phi_q and phi_rho, and one
    # without a hessian its rho action, as central differences: each within
    # finite-difference error of the five-bar's analytic partials
    from hybridsens.gallery import FIVE_BAR_DATA, FIVE_BAR_PARAMS, five_bar_model

    rng = np.random.default_rng(7)
    for model, rho in ((five_bar_model(), np.array([100.0, 100.0])),
                       (five_bar_model(FIVE_BAR_PARAMS),
                        np.array([FIVE_BAR_DATA[nm] for nm in FIVE_BAR_PARAMS]))):
        cons = model.constraints
        phi_only = ConstraintSet(m=cons.m, phi=cons.phi)
        no_hessian = ConstraintSet(m=cons.m, phi=cons.phi, phi_q=cons.phi_q)
        t = float(rng.uniform(0, 1))
        q = rng.normal(size=6) + np.array([-1.5, -1, 0, -2, 1.5, -1])
        w = rng.normal(size=6)
        assert rel_err(phi_only.jac_q(t, q, rho), cons.jac_q(t, q, rho), floor=1.0) < 1e-6
        assert rel_err(phi_only.jac_rho(t, q, rho), cons.jac_rho(t, q, rho), floor=1.0) < 1e-6
        assert rel_err(no_hessian.q_rho_action(t, q, rho, w), cons.q_rho_action(t, q, rho, w),
                       floor=1.0) < 1e-6


def test_a_partials_callback_returning_the_wrong_number_of_blocks_is_refused():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    model = dataclasses.replace(prob.dynamics.model,
                                force_partials=lambda t, q, v, rho: (np.zeros((1, 1)),))
    with pytest.raises(DimensionError) as err:
        model.force_jacobians(0.0, np.ones(1), np.zeros(1), prob.rho0.rho)
    assert str(err.value) == ("force_partials of 'bouncing-mass' returned 1 blocks; "
                              "expected F_q, F_v, F_rho")


def _gallery_cost_and_jump_cases():
    from hybridsens.gallery import FIVE_BAR_PARAMS, bouncing_mass, five_bar, pendulum

    problems = (("five-bar", five_bar()), ("five-bar-all-parameters", five_bar(FIVE_BAR_PARAMS)),
                ("bouncing-mass", bouncing_mass()), ("pendulum", pendulum()))
    for label, prob in problems:
        for name in sorted(prob.costs):
            yield pytest.param(prob, prob.costs[name], None, id=f"{label}-{name}")
        for event in prob.events:
            if hasattr(event, "jacobians"):
                yield pytest.param(prob, None, event, id=f"{label}-{event.name}")


@pytest.mark.parametrize("prob, cost, event", _gallery_cost_and_jump_cases())
def test_gallery_cost_and_jump_partials_match_fd(prob, cost, event):
    # the analytic partials of every gallery cost and jump map agree with
    # the central differences their callbacks replace
    from hybridsens.hybrid import ConstrainedElasticEvent

    rng = np.random.default_rng(7)
    n, rho0 = prob.dynamics.dims.n, prob.rho0.rho
    for _ in range(3):
        t = float(rng.uniform(0, 1))
        q, v, a = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        rho = rho0 * (1.0 + 0.05 * rng.normal(size=rho0.size))
        if cost is not None:
            assert cost.g_partials or cost.w_partials
            fd = dataclasses.replace(cost, g_partials=None, u_partials=None, w_partials=None)
            u = cost._u(t, q, v, a, rho)
            pairs = []
            if cost.g is not None:
                pairs += zip(*(c.g_jacobians(t, q, v, a, rho, u) for c in (cost, fd)))
            if u is not None:
                pairs += zip(*(c.u_jacobians(t, q, v, a, rho, u) for c in (cost, fd)))
            if cost.w is not None:
                pairs += zip(*(c.w_jacobians(t, q, v, rho, u) for c in (cost, fd)))
        else:
            if isinstance(event, ConstrainedElasticEvent):
                field, v = "dof_jump_partials", v[list(event.dof)]
            else:
                field = "h_partials"
            assert getattr(event, field) is not None
            fd = dataclasses.replace(event, **{field: None})
            pairs = zip(event.jacobians(t, q, v, rho), fd.jacobians(t, q, v, rho))
        for analytic, approx in pairs:
            if approx is None:
                assert analytic is None
            else:
                assert analytic.shape == approx.shape
                assert rel_err(analytic, approx, floor=1.0) < 1e-6
