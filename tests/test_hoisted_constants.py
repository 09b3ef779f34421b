"""State-independent arrays are built once per model and formulation.

Each hoist is pinned here to the expression it replaced, on random states,
and the constants that callbacks hand out at every state are checked to be
read-only, so that a caller writing into one fails instead of corrupting
the next state."""

import math

import numpy as np
import pytest

from hybridsens import gallery
from hybridsens import constrained
from hybridsens.constrained import PenaltyConfig, PenaltyDynamics
from hybridsens.gallery import FIVE_BAR_DATA, FIVE_BAR_PARAMS, five_bar_model
from hybridsens.integrate import _INTERIOR_CHECKS, _rms, _sample_times

PARAM_SETS = [("k1", "k2"), FIVE_BAR_PARAMS, ("L21", "k2", "LA1", "L02")]


def _states(names, rng, count=25):
    """Random (q, v, rho) near the five-bar's pose, with exact zeros mixed in."""
    nominal = np.array([FIVE_BAR_DATA[nm] for nm in names])
    for i in range(count):
        q = gallery._FIVE_BAR_POSE + rng.normal(scale=0.3, size=6)
        v = rng.normal(size=6)
        if i % 5 == 0:
            v[rng.integers(0, 6, size=3)] = 0.0
        yield q, v, nominal * rng.uniform(0.9, 1.1, nominal.size)


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pcfg", [PenaltyConfig(), PenaltyConfig(alpha=3e5, xi=0.7, omega=13.0)])
def test_penalty_source_and_partials_equal_the_negated_sums(pcfg):
    model = five_bar_model(FIVE_BAR_PARAMS)
    dyn = PenaltyDynamics(model, pcfg)
    cons, xi, om = model.constraints, pcfg.xi, pcfg.omega
    for q, v, rho in _states(FIVE_BAR_PARAMS, np.random.default_rng(1)):
        G, C = cons.jac_q(0.0, q, rho), cons.accel_rhs(0.0, q, v, rho)
        H_v = cons.qq_action(0.0, q, rho, v)
        ref = -(-C + 2.0 * xi * om * (G @ v) + om ** 2 * cons.value(0.0, q, rho))
        assert same(dyn._source(0.0, q, v, rho, G, C), ref)
        refs = (-(2.0 * xi * om * H_v + om ** 2 * G),
                -(2.0 * H_v + 2.0 * xi * om * G),
                -(om ** 2 * cons.jac_rho(0.0, q, rho)))
        for got, want in zip(dyn._source_partials(0.0, q, v, rho, G, H_v), refs):
            assert same(got, want)


def _value(names, name, rho):
    """A named five-bar constant: its rho entry if it is a parameter."""
    return float(rho[names.index(name)]) if name in names else FIVE_BAR_DATA[name]


def _reference_force(names, q, rho):
    """Force and its partials by the per-spring loop over the named constants."""
    p = len(names)
    F = gallery._five_bar_weight()
    F_q, F_rho = np.zeros((6, 6)), np.zeros((6, p))
    x = q.tolist()
    for i, anchor, k_name, L_name in gallery._FIVE_BAR_SPRINGS:
        k, L0 = _value(names, k_name, rho), _value(names, L_name, rho)
        dx, dy, L, fx, fy = gallery._spring(x[i], x[i + 1], anchor, k, L0)
        F[i] += fx
        F[i + 1] += fy
        a, b = 1.0 - L0 / L, L0 / L ** 3
        F_q[i, i] = -k * (a + b * (dx * dx))
        F_q[i, i + 1] = F_q[i + 1, i] = -k * (b * (dx * dy))
        F_q[i + 1, i + 1] = -k * (a + b * (dy * dy))
        if k_name in names:
            j = names.index(k_name)
            F_rho[i, j], F_rho[i + 1, j] = fx / k, fy / k
        if L_name in names:
            j = names.index(L_name)
            F_rho[i, j], F_rho[i + 1, j] = k * dx / L, k * dy / L
    return F, (F_q, np.zeros((6, 6)), F_rho)


def _reference_phi(names, q, rho):
    d = FIVE_BAR_DATA
    dv = (q[0:2] - d["qA"], q[2:4] - q[0:2], q[4:6] - q[2:4], d["qB"] - q[4:6])
    lengths = ("LA1", "L21", "L32", "LB3")
    phi = np.array([dv[i] @ dv[i] - _value(names, nm, rho) ** 2
                    for i, nm in enumerate(lengths)])
    phi_rho = np.zeros((4, len(names)))
    rows = np.array([i for i, nm in enumerate(lengths) if nm in names], dtype=int)
    cols = np.array([names.index(lengths[i]) for i in rows], dtype=int)
    phi_rho[rows, cols] = -2.0 * rho[cols]
    return phi, phi_rho


@pytest.mark.parametrize("names", PARAM_SETS, ids=lambda names: "-".join(names))
def test_five_bar_callbacks_equal_the_per_spring_loop(names):
    model = five_bar_model(names)
    cons = model.constraints
    for q, v, rho in _states(names, np.random.default_rng(2)):
        F, partials = _reference_force(names, q, rho)
        assert same(model.force(0.0, q, v, rho), F)
        for got, want in zip(model.force_partials(0.0, q, v, rho), partials):
            assert same(got, want)
        phi, phi_rho = _reference_phi(names, q, rho)
        assert same(cons.phi(0.0, q, rho), phi)
        assert same(cons.phi_rho(0.0, q, rho), phi_rho)


def test_rms_equals_the_norm_in_value_and_type():
    rng = np.random.default_rng(3)
    cases = [rng.normal(size=rng.integers(1, 40)) * 10.0 ** rng.integers(-150, 150)
             for _ in range(2000)]
    cases += [np.zeros(3), np.array([np.inf, 1.0]), np.array([np.nan, 1.0]), np.array([-0.0])]
    for x in cases:
        ref = np.linalg.norm(x) / x.size ** 0.5
        got = _rms(x)
        assert type(got) is type(ref) is np.float64
        assert got.tobytes() == ref.tobytes()


def test_sample_times_equal_linspace():
    rng = np.random.default_rng(4)
    spans = [(0.0, 5e-324), (0.0, 4e-323), (1e-310, 1e-310 + 2e-323), (1.0, np.nextafter(1.0, 2))]
    for _ in range(5000):
        t_old = rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-6, 6)
        spans.append((t_old, t_old + abs(rng.normal()) * 10.0 ** rng.integers(-14, 1)))
    for t_old, t_new in spans:
        t_old, t_new = np.float64(t_old), np.float64(t_new)
        ref = np.linspace(t_old, t_new, _INTERIOR_CHECKS + 2)[1:]
        got = np.array(_sample_times(t_old, t_new))
        assert got.tobytes() == ref.tobytes()
        assert got[-1] == t_new


def _assert_read_only(a):
    assert isinstance(a, np.ndarray) and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = 1.0


def test_shared_constants_are_read_only():
    q, v = gallery._FIVE_BAR_POSE, np.ones(6)
    for names in PARAM_SETS:
        model = five_bar_model(names)
        rho = np.array([FIVE_BAR_DATA[nm] for nm in names])
        F_v = model.force_partials(0.0, q, v, rho)[1]
        _assert_read_only(F_v)
        assert F_v is model.force_partials(0.0, q + 0.1, v, rho)[1]
        assert not F_v.any()
        _assert_read_only(model.mass_at(0.0, q, rho))
        cons = model.constraints
        for H in (cons.hessian, cons._hess_rows, cons._hess_flat):
            _assert_read_only(H)
    dae = gallery.five_bar(FIVE_BAR_PARAMS, "dae").dynamics
    rho = np.array([FIVE_BAR_DATA[nm] for nm in FIVE_BAR_PARAMS])
    b_q, _, b_rho = dae._source_partials(0.0, q, v, rho, np.ones((4, 6)), np.ones((4, 6)))
    for z, shape in ((b_q, (4, 6)), (b_rho, (4, 8))):
        _assert_read_only(z)
        assert z.shape == shape and not z.any()
    bm = gallery.bouncing_mass()
    M = bm.dynamics.model.mass_at(0.0, np.ones(1), bm.rho0.rho)
    _assert_read_only(M)
    assert M is bm.dynamics.model.mass_at(0.5, np.zeros(1), bm.rho0.rho)
    assert np.array_equal(M, np.eye(1))


@pytest.mark.parametrize("c", [0.0, 1e-7])
def test_saddle_template_stays_intact_across_factorizations(c):
    # every K is a copy of the dynamics object's template, so its
    # state-dependent blocks never reach the next factorization's K; the
    # five-bar's constant mass sits in the template, the tether's does not
    rng = np.random.default_rng(5)
    five_bar_states = [(0.1 * i, q, v, rho)
                       for i, (q, v, rho) in enumerate(_states(FIVE_BAR_PARAMS, rng, 4))]
    tether_states = [(0.0, np.array([np.sin(th), -np.cos(th)]), rng.normal(size=2),
                      np.array([0.1, -0.5, rng.uniform(0.5, 2.0)]))
                     for th in rng.uniform(-1.2, 1.2, 4)]
    for model, states in ((five_bar_model(FIVE_BAR_PARAMS), five_bar_states),
                          (gallery.pendulum_model(), tether_states)):
        dyn = (PenaltyDynamics(model, PenaltyConfig(alpha=1.0 / c)) if c
               else constrained.DaeDynamics(model))
        n, m = model.dims.n, model.constraints.m
        ref = np.zeros((n + m, n + m))
        if c:
            ref[n:, n:] = -c * np.eye(m)
        if model.mass_constant:
            ref[:n, :n] = gallery._five_bar_mass()
        assert model.mass_constant == (n == 6)
        template = dyn._template
        _assert_read_only(template)
        assert same(template, ref)
        for state in states:
            dyn.jacobians(*state)
            dyn.jacobians(*state, *dyn.accel_and_multipliers(*state))
        assert dyn._template is template
        _assert_read_only(template)
        assert same(template, ref)
        assert np.signbit(template[n:, n:]).all() == bool(c)


def _cost_blocks(cost, t, q, v, a, rho):
    u = None if cost.u_fn is None else np.atleast_1d(cost.u_fn(t, q, v, a, rho))
    blocks = []
    if cost.g_partials is not None:
        blocks += cost.g_partials(t, q, v, a, rho, u)
    if cost.u_partials is not None:
        blocks += cost.u_partials(t, q, v, a, rho)
    if cost.w_partials is not None:
        blocks += cost.w_partials(t, q, v, rho, u)
    return blocks


@pytest.mark.parametrize("make", [gallery.five_bar, gallery.bouncing_mass, gallery.pendulum])
def test_cost_partial_constants_are_read_only(make):
    # a block the callback hands out at every state is one shared object,
    # and read-only
    prob = make()
    n, rho = prob.dynamics.dims.n, prob.rho0.rho
    for cost in prob.costs.values():
        first = _cost_blocks(cost, 0.0, np.full(n, 0.5), np.ones(n), np.ones(n), rho)
        again = _cost_blocks(cost, 0.3, np.full(n, -0.2), np.full(n, 2.0), np.zeros(n), rho)
        shared = [b for b, c in zip(first, again) if b is not None and b is c]
        assert shared
        for b in shared:
            _assert_read_only(b)


def test_read_only_mass_is_factored_without_writing():
    # LAPACK factors a copy: the shared mass stays intact across solves
    bm = gallery.bouncing_mass()
    dyn = bm.dynamics
    M = dyn.model.mass_at(0.0, np.ones(1), bm.rho0.rho)
    before = M.tobytes()
    for _ in range(3):
        dyn.jacobians(0.0, np.ones(1), np.ones(1), bm.rho0.rho)
        assert math.isclose(dyn.accel(0.0, np.ones(1), np.ones(1), bm.rho0.rho)[0],
                            -gallery.GRAVITY)
    assert M.tobytes() == before
