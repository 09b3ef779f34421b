import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate._ivp.rk import RkDenseOutput

from hybridsens.integrate import (
    GrazingError,
    IntegrationError,
    IntegratorConfig,
    SimultaneousEventError,
    _rk_dense,
    integrate_segment,
)

G = 9.81


def free_fall_rhs(t, y):
    return np.array([y[1], -G])


def test_event_localization_free_fall():
    cfg = IntegratorConfig()
    seg, (t_end, y_end), hit = integrate_segment(
        free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0), cfg,
        [lambda t, y: y[0]])
    t_exact = np.sqrt(2.0 / G)
    assert hit is not None
    assert abs(hit.t - t_exact) < 1e-6
    assert abs(y_end[0]) < 1e-8


def test_event_localization_residual_bound():
    cfg = IntegratorConfig()
    _, _, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0),
                                  cfg, [lambda t, y: y[0]])
    # |r| at the localized root is bounded by the time tolerance times the
    # crossing speed |dr/dq . v|
    speed = np.sqrt(2 * G)
    assert abs(hit.r_residual) <= 10 * cfg.event_tol * speed


def test_no_event_full_segment():
    cfg = IntegratorConfig()
    seg, (t_end, y_end), hit = integrate_segment(
        free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.3), cfg,
        [lambda t, y: y[0]])
    assert hit is None
    assert t_end == 0.3
    assert abs(y_end[0] - (1.0 - 0.5 * G * 0.09)) < 1e-8


def test_interpolation_exact_at_nodes():
    cfg = IntegratorConfig()
    seg, _, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    for t, y in zip(seg.node_times, seg.node_states):
        assert np.array_equal(seg.evaluate(float(t)), y)


def test_interpolation_exponential():
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    seg, _, _ = integrate_segment(lambda t, y: y, np.array([1.0]), (0.0, 1.0), cfg)
    for t in np.linspace(0.05, 0.95, 19):
        assert abs(seg.evaluate(t)[0] - np.exp(t)) < 10 * cfg.rtol * np.exp(t)


def test_interpolation_parabola_midstep():
    cfg = IntegratorConfig()
    seg, _, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    tm = 0.5 * (seg.node_times[0] + seg.node_times[1])
    y = seg.evaluate(float(tm))
    assert abs(y[0] - (1.0 - 0.5 * G * tm ** 2)) < 10 * cfg.rtol


def test_interpolation_outside_segment_raises():
    cfg = IntegratorConfig()
    seg, _, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    with pytest.raises(IntegrationError):
        seg.evaluate(0.5)


def test_tolerance_halving_improves_accuracy():
    errs = []
    for rtol in (1e-6, 5e-7):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        seg, (tf, yf), _ = integrate_segment(lambda t, y: y, np.array([1.0]), (0.0, 2.0), cfg)
        errs.append(abs(yf[0] - np.exp(2.0)))
    assert errs[1] < errs[0] / 1.5


def test_determinism_bitwise():
    cfg = IntegratorConfig()
    outs = []
    for _ in range(2):
        seg, (tf, yf), _ = integrate_segment(
            lambda t, y: np.array([y[1], -np.sin(y[0])]),
            np.array([0.4, 0.0]), (0.0, 3.0), cfg)
        outs.append((tf, yf.tobytes(), np.asarray(seg.node_times).tobytes()))
    assert outs[0] == outs[1]


def test_simultaneous_events_error():
    cfg = IntegratorConfig()
    with pytest.raises(SimultaneousEventError):
        integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0), cfg,
                          [lambda t, y: y[0], lambda t, y: 2.0 * y[0]])


@pytest.mark.parametrize("field, value", [
    ("rtol", np.nan), ("atol", np.inf), ("event_tol", np.nan), ("event_tol", 0.0),
    ("h0", 0.0), ("h0", np.nan), ("hmax", 0.0), ("hmax", np.nan),
])
def test_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match=field):
        IntegratorConfig(**{field: value})


def test_max_steps_exceeded():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate_segment(lambda t, y: np.array([np.cos(40 * t)]),
                          np.array([0.0]), (0.0, 10.0), cfg)


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (1.0, 1.0)])
def test_reversed_or_empty_span_refused(t_span):
    # integration runs forward only; a backward problem is posed in s = -t
    with pytest.raises(IntegrationError, match="empty or reversed"):
        integrate_segment(lambda t, y: y, np.array([1.0]), t_span, IntegratorConfig())


def test_double_crossing_within_step_detected():
    # dip below zero and back inside one step: endpoint signs match, only
    # the interior dense-output samples can reveal the crossing
    cfg = IntegratorConfig(rtol=1e-4, atol=1e-6, h0=0.5, hmax=0.5)
    seg, _, hit = integrate_segment(lambda t, y: np.array([1.0]), np.array([0.0]),
                                    (0.0, 1.0), cfg,
                                    [lambda t, y: (t - 0.15) * (t - 0.35) + 1e-4])
    assert hit is not None
    assert 0.145 < hit.t < 0.16


def test_dense_output_matches_scipy_bitwise():
    # the stored stages reproduce scipy's per-step dense output exactly,
    # including the last step of a segment cut at an event root
    cfg = IntegratorConfig()

    def rhs(t, y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    y0 = np.array([1.2, 0.0])
    samples = []  # every (t, y) the event function receives

    def event(t, y):
        samples.append((t, y.copy()))
        return y[0] + 0.9

    seg, _, hit = integrate_segment(rhs, y0, (0.0, 10.0), cfg, [event])
    assert hit is not None and seg.truncated
    solver = RK45(rhs, 0.0, y0, 10.0, rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.hmax)
    dense, nodes = [], {0.0: y0}
    while len(dense) < len(seg):
        solver.step()
        dense.append(solver.dense_output())
        nodes[solver.t] = solver.y.copy()
    assert [d.t_old for d in dense] == list(seg.node_times[:-1])
    assert np.array_equal(dense[-1](hit.t), hit.y)
    # a sample at a step's end sees the solver's state, one inside a step
    # scipy's dense output, the interior scan and the root refinement alike
    inside = 0
    for t, y in samples:
        if t in nodes:
            assert y.tobytes() == nodes[t].tobytes()
        else:
            k = next(k for k, d in enumerate(dense) if d.t_old < t < d.t)
            assert y.tobytes() == dense[k](t).tobytes()
            inside += 1
    assert inside > 4 * len(seg)
    rng = np.random.default_rng(3)
    for k in rng.integers(0, len(seg), size=40):
        t_lo, t_hi = seg.node_times[k], seg.node_times[k + 1]
        t = float(t_lo + rng.uniform(0.0, 1.0) * (t_hi - t_lo))
        assert np.array_equal(seg.evaluate(t), dense[k](t))
    # the powers of x are scipy's sequential products, on a step whose
    # polynomial terms are not swamped by y_old
    K = rng.normal(size=(7, 5))
    Q = K.T.dot(RK45.P)
    ref = RkDenseOutput(0.0, 1.0, np.zeros(5), Q)
    for t in rng.uniform(0.0, 1.0, size=200):
        assert _rk_dense(0.0, np.zeros(5), 1.0, Q, t).tobytes() == ref(t).tobytes()
