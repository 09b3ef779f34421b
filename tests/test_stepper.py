"""The package's Dormand-Prince stepper against scipy's ``RK45``, its oracle.

The stepper is a port of scipy's that keeps its arithmetic order, so the two
must agree bitwise after every step: time, state, derivative, stages, step
size, evaluation count, status and message.  Bitwise agreement is what keeps
every trajectory, gradient and artifact of the package unchanged."""

import warnings

import numpy as np
import pytest
from scipy.integrate import RK45 as ScipyRK45

from hybridsens.integrate import RK45


def damped_pendulum(t, y):
    return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1] + 0.3 * np.cos(2.0 * t)])


def blow_up(t, y):
    return y ** 2


def same(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def lockstep(ours, ref):
    """Step both solvers to the end; compare their state after every step.
    Returns (steps taken, last message)."""
    assert ours.nfev == ref.nfev and same(ours.h_abs, ref.h_abs)
    assert same(ours.f, ref.f)
    steps, msg = 0, None
    while ref.status == "running":
        msg_ref = ref.step()
        msg = ours.step()
        steps += 1
        assert msg == msg_ref and ours.status == ref.status
        assert same(ours.t, ref.t) and same(ours.y, ref.y) and same(ours.f, ref.f)
        assert ours.K.tobytes() == ref.K.tobytes()
        assert same(ours.h_previous, ref.h_previous) and same(ours.h_abs, ref.h_abs)
        assert ours.nfev == ref.nfev
    return steps, msg


CASES = {
    "forward": dict(t0=0.0, t_bound=10.0),
    "loose": dict(t0=0.0, t_bound=10.0, rtol=1e-3, atol=1e-6),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_step_is_bitwise_scipys(name):
    kw = dict(rtol=1e-8, atol=1e-10)
    kw.update(CASES[name])
    t0, t_bound = kw.pop("t0"), kw.pop("t_bound")
    y0 = np.array([1.2, 0.0])
    ours = RK45(damped_pendulum, t0, y0, t_bound, **kw)
    ref = ScipyRK45(damped_pendulum, t0, y0, t_bound, **kw)
    assert lockstep(ours, ref)[0] > 10
    assert ours.status == "finished" and ours.t == t_bound
    with pytest.raises(RuntimeError, match="failed or finished"):
        ours.step()


def test_rtol_floor_and_warning_are_scipys():
    y0 = np.array([1.2, 0.0])
    with warnings.catch_warnings(record=True) as ours_w:
        warnings.simplefilter("always")
        ours = RK45(damped_pendulum, 0.0, y0, 0.5, rtol=1e-17, atol=1e-12)
    with warnings.catch_warnings(record=True) as ref_w:
        warnings.simplefilter("always")
        ref = ScipyRK45(damped_pendulum, 0.0, y0, 0.5, rtol=1e-17, atol=1e-12)
    assert len(ours_w) == len(ref_w) == 1
    assert ours_w[0].category is ref_w[0].category is UserWarning
    assert str(ours_w[0].message) == str(ref_w[0].message)
    assert ours_w[0].filename == ref_w[0].filename == __file__  # the caller's line
    assert same(ours.rtol, ref.rtol) and ours.rtol == 100 * np.finfo(float).eps
    assert lockstep(ours, ref)[0] > 10


def test_step_underflow_fails_as_scipy_does():
    # y' = y^2 blows up at t = 1: the step shrinks below the float spacing
    y0 = np.array([1.0])
    ours = RK45(blow_up, 0.0, y0, 2.0, rtol=1e-6, atol=1e-9)
    ref = ScipyRK45(blow_up, 0.0, y0, 2.0, rtol=1e-6, atol=1e-9)
    steps, msg = lockstep(ours, ref)
    assert ours.status == "failed" and steps > 100
    assert msg == "Required step size is less than spacing between numbers."


def test_span_shorter_than_the_initial_step_probe_is_scipys():
    # the initial-step choice is capped at the span, as scipy caps it: the
    # probe's own step and the first step both end at t_bound
    y0 = np.array([1.2, 0.0])
    for t0, t_bound in ((0.0, 0.001), (0.3, 0.30001)):
        ours = RK45(damped_pendulum, t0, y0, t_bound)
        ref = ScipyRK45(damped_pendulum, t0, y0, t_bound)
        assert ours.h_abs == t_bound - t0  # the cap is what chose the step
        assert lockstep(ours, ref)[0] >= 1
        assert ours.status == "finished" and ours.t == t_bound


FIRST_STEPS = {
    "warm": (0.0, 10.0, 0.37),  # a restart from a step length already known
    "rejected": (0.0, 10.0, 4.0),  # too long: the first attempts are rejected
    "span": (0.3, 0.30001, None),  # the whole span
}


@pytest.mark.parametrize("name", sorted(FIRST_STEPS))
def test_a_given_first_step_is_scipys(name):
    t0, t_bound, first_step = FIRST_STEPS[name]
    if first_step is None:
        first_step = t_bound - t0
    y0 = np.array([1.2, 0.0])
    kw = dict(rtol=1e-8, atol=1e-10, first_step=first_step)
    ours = RK45(damped_pendulum, t0, y0, t_bound, **kw)
    ref = ScipyRK45(damped_pendulum, t0, y0, t_bound, **kw)
    # f(t0, y0) only: no initial-step probe
    assert ours.nfev == 1 and same(ours.h_abs, first_step)
    steps, _ = lockstep(ours, ref)
    assert ours.status == "finished" and ours.t == t_bound
    if name == "span":
        assert steps == 1 and ours.nfev == 1 + RK45.n_stages
    else:
        assert steps > 10
    if name == "rejected":
        assert ours.nfev > 1 + RK45.n_stages * steps


@pytest.mark.parametrize("first_step", [0.0, -0.1, 10.5])
def test_a_first_step_outside_the_span_is_refused_as_scipy_refuses_it(first_step):
    y0 = np.array([1.2, 0.0])
    with pytest.raises(ValueError) as ref:
        ScipyRK45(damped_pendulum, 0.0, y0, 10.0, first_step=first_step)
    with pytest.raises(ValueError) as ours:
        RK45(damped_pendulum, 0.0, y0, 10.0, first_step=first_step)
    assert str(ours.value) == str(ref.value)


def test_tableau_is_scipys():
    for attr in ("A", "B", "C", "E", "P"):
        ours, ref = getattr(RK45, attr), getattr(ScipyRK45, attr)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), attr
    for attr in ("n_stages", "error_estimator_order", "TOO_SMALL_STEP"):
        assert getattr(RK45, attr) == getattr(ScipyRK45, attr), attr


def test_nfev_counts_what_scipys_counts():
    # one evaluation at (t0, y0), one initial-step probe, n_stages per attempt
    calls = []

    def rhs(t, y):
        calls.append(t)
        return damped_pendulum(t, y)

    y0 = np.array([1.2, 0.0])
    ours = RK45(rhs, 0.0, y0, 10.0, rtol=1e-8, atol=1e-10)
    assert ours.nfev == len(calls) == 2
    steps = 0
    while ours.status == "running":
        ours.step()
        steps += 1
        assert ours.nfev == len(calls) and (ours.nfev - 2) % RK45.n_stages == 0
    assert ours.nfev > 2 + RK45.n_stages * steps  # some attempts were rejected
