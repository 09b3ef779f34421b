import bisect
import math

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate._ivp.rk import RkDenseOutput

from hybridsens import integrate
from hybridsens.direct import simulate
from hybridsens.gallery import GRAVITY, bouncing_mass
from hybridsens.integrate import (
    EventAccumulationError,
    EventMonitor,
    GrazingError,
    IntegrationError,
    IntegratorConfig,
    SimultaneousEventError,
    _refine_root,
    _rk_dense,
    integrate_segment,
)

G = 9.81


def free_fall_rhs(t, y):
    return np.array([y[1], -G]), None


def test_event_localization_free_fall():
    cfg = IntegratorConfig()
    seg, hit = integrate_segment(
        free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0), cfg,
        [lambda t, y: y[0]])
    y_end = seg.node_states[-1]
    t_exact = np.sqrt(2.0 / G)
    assert hit is not None
    assert abs(hit.t - t_exact) < 1e-6
    assert abs(y_end[0]) < 1e-8


def test_event_localization_residual_bound():
    cfg = IntegratorConfig()
    _, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0),
                               cfg, [lambda t, y: y[0]])
    # |r| at the localized root is bounded by the time tolerance times the
    # crossing speed |dr/dq . v|
    speed = np.sqrt(2 * G)
    assert abs(hit.r_residual) <= 10 * cfg.event_tol * speed


def test_no_event_full_segment():
    cfg = IntegratorConfig()
    seg, hit = integrate_segment(
        free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.3), cfg,
        [lambda t, y: y[0]])
    t_end, y_end = seg.node_times[-1], seg.node_states[-1]
    assert hit is None
    assert t_end == 0.3
    assert abs(y_end[0] - (1.0 - 0.5 * G * 0.09)) < 1e-8


def test_interpolation_exact_at_nodes():
    cfg = IntegratorConfig()
    seg, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    for t, y in zip(seg.node_times, seg.node_states):
        assert np.array_equal(seg.evaluate(float(t)), y)


def test_interpolation_exponential():
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    seg, _ = integrate_segment(lambda t, y: (y, None), np.array([1.0]), (0.0, 1.0), cfg)
    for t in np.linspace(0.05, 0.95, 19):
        assert abs(seg.evaluate(t)[0] - np.exp(t)) < 10 * cfg.rtol * np.exp(t)


def test_interpolation_parabola_midstep():
    cfg = IntegratorConfig()
    seg, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    tm = 0.5 * (seg.node_times[0] + seg.node_times[1])
    y = seg.evaluate(float(tm))
    assert abs(y[0] - (1.0 - 0.5 * G * tm ** 2)) < 10 * cfg.rtol


def test_interpolation_outside_segment_raises():
    cfg = IntegratorConfig()
    seg, _ = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 0.4), cfg)
    with pytest.raises(IntegrationError):
        seg.evaluate(0.5)


def per_time_row(dense, t):
    """One time's row by the rule written out: t clamped to the span, a
    node's stored row, else ``_rk_dense`` in the step whose interior holds t."""
    t = min(max(t, dense.node_times[0]), dense.node_times[-1])
    nodes = dense.node_times.tolist()
    if t in nodes:
        return dense.node_states[nodes.index(t)]
    k = bisect.bisect(nodes, t) - 1
    Q = dense.stages[6 * k:6 * k + 7].T.dot(integrate.RK45.P)
    return _rk_dense(dense.node_times[k], dense.node_states[k], dense.steps[k], Q, t)


def _gallery_runs():
    from hybridsens.gallery import five_bar, register_gallery

    for name, build in sorted(register_gallery().items()):
        yield pytest.param(build(), id=name)
    yield pytest.param(five_bar(formulation="penalty"), id="five-bar-penalty")


@pytest.mark.parametrize("prob", _gallery_runs())
def test_evaluate_at_many_times_is_bitwise_each_time_alone(prob):
    # one call locates every time and forms each step's Q once; each row is
    # the bytes of that time evaluated alone and of the per-time rule, at the
    # nodes (the event times among them), inside steps, clamped at either
    # end, in any order and repeated
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    assert traj.events
    rng = np.random.default_rng(11)
    for seg in traj.segments:
        dense = seg.dense
        lo, hi = dense.node_times[0], dense.node_times[-1]
        slack = 0.5e-12 * max(hi - lo, 1.0)
        times = np.concatenate([dense.node_times, rng.uniform(lo, hi, 30),
                                [lo - slack, hi + slack]])
        rows = dense.evaluate(times)
        assert rows.shape == (times.size, dense.node_states.shape[1])
        for t, row in zip(times.tolist(), rows):
            alone = dense.evaluate(t).tobytes()
            assert row.tobytes() == alone == per_time_row(dense, t).tobytes()
        mixed = rng.permutation(np.concatenate([times, times[::3]]))
        expect = [per_time_row(dense, t).tobytes() for t in mixed.tolist()]
        assert [row.tobytes() for row in dense.evaluate(mixed)] == expect
        assert dense.evaluate(times[:0]).shape == (0, rows.shape[1])
        for bad in (lo - 1e-9 * max(hi - lo, 1.0), hi + 1e-9 * max(hi - lo, 1.0), math.nan):
            with pytest.raises(IntegrationError, match="outside segment"):
                dense.evaluate(bad)
            with pytest.raises(IntegrationError, match="outside segment"):
                dense.evaluate(np.array([lo, bad, hi]))


def test_tolerance_halving_improves_accuracy():
    errs = []
    for rtol in (1e-6, 5e-7):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        seg, _ = integrate_segment(lambda t, y: (y, None), np.array([1.0]), (0.0, 2.0), cfg)
        yf = seg.node_states[-1]
        errs.append(abs(yf[0] - np.exp(2.0)))
    assert errs[1] < errs[0] / 1.5


def test_determinism_bitwise():
    cfg = IntegratorConfig()
    outs = []
    for _ in range(2):
        seg, _ = integrate_segment(
            lambda t, y: (np.array([y[1], -np.sin(y[0])]), None),
            np.array([0.4, 0.0]), (0.0, 3.0), cfg)
        tf, yf = seg.node_times[-1], seg.node_states[-1]
        outs.append((tf, yf.tobytes(), np.asarray(seg.node_times).tobytes()))
    assert outs[0] == outs[1]


def test_simultaneous_events_error():
    cfg = IntegratorConfig()
    with pytest.raises(SimultaneousEventError):
        integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0), cfg,
                          [lambda t, y: y[0], lambda t, y: 2.0 * y[0]])


@pytest.mark.parametrize("tf", [2.0, 40.0])
def test_two_roots_twice_the_event_tolerance_apart_are_not_simultaneous_on_any_span(tf):
    # the second function's root trails the floor contact by 2e-9 s; the
    # event time tolerance is event_tol = 1e-9 however long the span (it
    # was floored at 1e-10 * span, 4e-9 over [0, 40], which raised)
    lag = 2e-9 * math.sqrt(2.0 * G)  # 2e-9 s at the contact speed
    _, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, tf),
                               IntegratorConfig(event_tol=1e-9),
                               [lambda t, y: y[0], lambda t, y: y[0] + lag])
    assert hit.index == 0
    assert abs(hit.t - math.sqrt(2.0 / G)) < 1e-12


@pytest.mark.parametrize("field, value", [
    ("rtol", np.nan), ("atol", np.inf), ("event_tol", np.nan), ("event_tol", 0.0),
    # max_steps=nan never limited (len(hs) >= nan is False); it must be an integer
    ("max_steps", np.nan), ("max_steps", 2.5), ("max_steps", True), ("max_steps", 0),
])
def test_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match=field):
        IntegratorConfig(**{field: value})


def test_max_steps_exceeded():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate_segment(lambda t, y: (np.array([np.cos(40 * t)]), None),
                          np.array([0.0]), (0.0, 10.0), cfg)


def test_max_steps_caps_each_segment_not_the_run():
    # 11 steps in all, none of the 7 segments over 4
    prob = bouncing_mass()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, (0.0, 4.0),
                    IntegratorConfig(max_steps=4))
    assert [len(seg.dense) for seg in traj.segments] == [4, 2, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (1.0, 1.0)])
def test_reversed_or_empty_span_refused(t_span):
    # integration runs forward only; a backward problem is posed in s = -t
    with pytest.raises(IntegrationError, match="empty or reversed"):
        integrate_segment(lambda t, y: (y, None), np.array([1.0]), t_span, IntegratorConfig())


@pytest.mark.parametrize("f", [np.array([1.0, -G]), np.array([1.0, 0.0, -G])])
def test_a_right_side_returning_f_alone_is_refused_at_its_first_evaluation(f):
    # the right side returns (f, mu); f alone is refused before any step,
    # also a 2-vector, which unpacks into a scalar "f" and a "mu"
    calls = []

    def rhs(t, y):
        calls.append(t)
        return f

    with pytest.raises(IntegrationError, match=r"expected \(f, mu\)"):
        integrate_segment(rhs, np.zeros(f.size), (0.0, 1.0), IntegratorConfig(),
                          [lambda t, y: y[0] - 0.5])
    assert calls == [0.0]


def test_the_multipliers_of_each_accepted_stage_are_recorded_in_the_stage_layout():
    # mu = [t] records each evaluation's time: row 6k + i is stage i of step k
    # at the time step_stages reports, the probe and rejected attempts are
    # dropped, and a right side returning no mu records none
    def f(t, y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    y0, cfg = np.array([1.2, 0.0]), IntegratorConfig(rtol=1e-4, atol=1e-6)
    seg, _ = integrate_segment(lambda t, y: (f(t, y), np.array([t])), y0, (0.0, 10.0), cfg)
    assert seg.multipliers.shape == (6 * len(seg) + 1, 1)
    for k in range(len(seg)):
        times = seg.step_stages(k, 1)[2]
        assert seg.multipliers[6 * k:6 * k + 7, 0].tobytes() == times.tobytes()
    bare, _ = integrate_segment(lambda t, y: (f(t, y), None), y0, (0.0, 10.0), cfg)
    assert bare.multipliers is None
    assert bare.stages.tobytes() == seg.stages.tobytes()


def test_double_crossing_within_step_detected():
    # dip below zero and back inside one step: endpoint signs match, only
    # the interior dense-output samples can reveal the crossing.  A constant
    # right side has no error, so every step grows by MAX_FACTOR and one
    # step spans both crossings
    cfg = IntegratorConfig(rtol=1e-4, atol=1e-6)
    seg, hit = integrate_segment(lambda t, y: (np.array([1.0]), None), np.array([0.0]),
                                 (0.0, 1.0), cfg,
                                 [lambda t, y: (t - 0.15) * (t - 0.35) + 1e-4])
    t_last = seg.node_times[-2]
    assert t_last <= 0.15 and t_last + seg.steps[-1] >= 0.35
    assert hit is not None
    assert 0.145 < hit.t < 0.16


def _one_step(event_fns, side, **kw):
    """y = t over [0, 2] in one step (a constant right side has no error),
    with event function 1 (or the only one) masked on its surface at t = 0."""
    monitor = EventMonitor(len(event_fns))
    monitor.mask(len(event_fns) - 1, 1e-8, side)
    seg, hit = integrate_segment(lambda t, y: (np.array([1.0]), None), np.array([0.0]),
                                 (0.0, 2.0), IntegratorConfig(), event_fns, monitor,
                                 first_step=2.0)
    assert len(seg) == 1
    return seg, hit, monitor


def test_a_masked_function_with_a_departure_side_leaves_and_returns_in_one_step():
    # r = y (0.6 - y) leaves its surface on its departure side by the first
    # interior sample, which unmasks it, and crosses back at t = 0.6 in the
    # same step
    seg, hit, monitor = _one_step([lambda t, y: y[0] * (0.6 - y[0])], 1.0)
    assert hit.index == 0 and abs(hit.t - 0.6) <= 1e-9 and seg.truncated
    assert not monitor.masked[0]


def test_a_masked_function_without_a_side_stays_masked_and_is_not_sampled():
    # a capture's function has no departure side: it is held for the whole
    # segment, so it is never evaluated, neither at the segment's start nor at
    # a step end nor inside the step, and its mask holds although it is past
    # the departure distance (r = -2.8 at the step end)
    calls = []

    def r(t, y):
        calls.append(t)
        return y[0] * (0.6 - y[0])

    seg, hit, monitor = _one_step([r], 0.0)
    assert hit is None and calls == [] and monitor.masked[0]
    assert abs(r(2.0, seg.node_states[-1])) > monitor.depart_tol[0]


@pytest.mark.parametrize("root, raises", [(0.3, False), (0.5, True)])
def test_a_return_past_the_departure_tolerance_counts_up_to_the_first_event(root, raises):
    # -y leaves its surface on the side opposite to its departure by the first
    # sample, t = 0.4: an accumulation if the step reaches it, not if another
    # function's event ends the segment first
    event_fns = [lambda t, y: root - y[0], lambda t, y: -y[0]]
    if raises:
        with pytest.raises(EventAccumulationError):
            _one_step(event_fns, 1.0)
        return
    _, hit, monitor = _one_step(event_fns, 1.0)
    assert hit.index == 0 and abs(hit.t - root) <= 1e-9 and monitor.masked[1]


def test_dense_output_matches_scipy_bitwise():
    # the stored stages reproduce scipy's per-step dense output exactly,
    # including the last step of a segment cut at an event root
    cfg = IntegratorConfig()

    def f(t, y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    def rhs(t, y):
        return f(t, y), None

    y0 = np.array([1.2, 0.0])
    samples = []  # every (t, y) the event function receives

    def event(t, y):
        samples.append((t, y.copy()))
        return y[0] + 0.9

    seg, hit = integrate_segment(rhs, y0, (0.0, 10.0), cfg, [event])
    y_eve = seg.node_states[-1]
    assert hit is not None and seg.truncated
    solver = RK45(f, 0.0, y0, 10.0, rtol=cfg.rtol, atol=cfg.atol)
    dense, nodes = [], {0.0: y0}
    while len(dense) < len(seg):
        solver.step()
        dense.append(solver.dense_output())
        nodes[solver.t] = solver.y.copy()
    assert [d.t_old for d in dense] == list(seg.node_times[:-1])
    assert np.array_equal(dense[-1](hit.t), y_eve)
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


def _refinements(monkeypatch):
    """Patch the root refinement to record, per root, the list of times it
    evaluates the event function at."""
    roots = []
    refine = integrate._refine_root

    def counted(rfun, *bracket):
        times = []
        roots.append(times)

        def r(s):
            times.append(s)
            return rfun(s)
        return refine(r, *bracket)

    monkeypatch.setattr(integrate, "_refine_root", counted)
    return roots


def test_bounces_refine_each_root_in_a_handful_of_evaluations(monkeypatch):
    # h0 = 1, e = 0.875 up to midway between the last impact before 0.9 of
    # the accumulation time and the next: 17 impacts.  Bisection with one
    # secant step per iteration, whose secant points all land on one side of
    # a convex flight's root, took 12 to 35 evaluations per root (22.9 on
    # average)
    h0, e = 1.0, 0.875
    t1 = math.sqrt(2.0 * h0 / GRAVITY)
    t_k = t1 * (1.0 + 2.0 * e * (1.0 - e ** np.arange(30)) / (1.0 - e))
    n = int(np.sum(t_k < 0.9 * t1 * (1.0 + e) / (1.0 - e)))
    tf = 0.5 * (t_k[n - 1] + t_k[n])
    roots = _refinements(monkeypatch)
    prob = bouncing_mass()
    traj = simulate(prob.dynamics, None, prob.events, np.array([h0, e]), (0.0, tf), prob.config)
    assert len(traj.events) == len(roots) == n == 17
    counts = [len(times) for times in roots]
    assert np.mean(counts) <= 10.0, counts
    t_eve = np.array([rec.t_eve for rec in traj.events])
    assert np.all(np.abs(t_eve - t_k[:n]) <= 1e-12 * t_k[:n])


def test_the_free_fall_root_is_at_round_off_and_its_residual_costs_no_evaluation(monkeypatch):
    # the closing secant step puts the root within 1e-15 of sqrt(2 / g); a
    # bracket end within t_tol is 3e-10 off.  The hit's residual and state
    # are those the refinement evaluated at its root: the event function is
    # evaluated there once
    roots = _refinements(monkeypatch)
    calls = []

    def r(t, y):
        calls.append(t)
        return y[0]

    seg, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0),
                                 IntegratorConfig(), [r])
    assert abs(hit.t - math.sqrt(2.0 / G)) <= 1e-15
    assert len(roots) == 1 and calls.count(hit.t) == roots[0].count(hit.t) == 1
    assert hit.r_residual == seg.node_states[-1][0]


def _bisection(r, ta, tb, t_tol):
    """Plain bisection of r on [ta, tb] down to t_tol: (midpoint, evaluations)."""
    ra, count = r(ta), 0
    while tb - ta > t_tol:
        tm = 0.5 * (ta + tb)
        rm, count = r(tm), count + 1
        if (rm < 0) == (ra < 0):
            ta, ra = tm, rm
        else:
            tb = tm
    return 0.5 * (ta + tb), count


def _quartic_brackets(rng, count):
    """Quartics in x on [0, 1], the form of a step's dense output, each with
    a bracket holding exactly one of its roots, a sign change between two of
    the scan's six samples."""
    x = np.linspace(0.0, 1.0, integrate._INTERIOR_CHECKS + 2)
    while count:
        c = rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 3.0, size=5)
        real = [z.real for z in np.roots(c) if abs(z.imag) < 1e-12]
        for lo, hi in zip(x[:-1], x[1:]):
            if sum(lo < z < hi for z in real) == 1 and (np.polyval(c, lo) < 0) != (np.polyval(c, hi) < 0):
                count -= 1
                yield (lambda s, c=c: float(np.polyval(c, s))), float(lo), float(hi)
                break


def test_the_refinement_finds_bisection_s_root_in_no_more_evaluations():
    # seeded random quartics, and exp(30 s) - 2 from both sides, on which
    # plain regula falsi stagnates (the secant of a convex function always
    # lands on the same side of its root)
    rng = np.random.default_rng(33)
    cases = list(_quartic_brackets(rng, 200))
    cases += [(lambda s: math.exp(30.0 * s) - 2.0, 0.0, 1.0),
              (lambda s: 2.0 - math.exp(30.0 * s), 0.0, 1.0),
              (lambda s: math.exp(30.0 * (1.0 - s)) - 2.0, 0.0, 1.0)]
    for t_tol in (1e-9, 1e-12):
        for r, ta, tb in cases:
            times = []

            def counted(s):
                times.append(s)
                return r(s)

            root, value = _refine_root(counted, ta, r(ta), tb, r(tb), t_tol)
            ref, bisections = _bisection(r, ta, tb, t_tol)
            assert abs(root - ref) <= t_tol and root in times and value == r(root)
            assert len(times) <= bisections, (ta, tb, t_tol, len(times), bisections)


def test_a_bracket_of_two_adjacent_floats_is_not_refined():
    # at |t| >= 2^23 s the default event_tol is below t's spacing, and the
    # midpoint of two adjacent floats is one of them: bisecting it again and
    # again ran to the 200-iteration cap
    ta = 1e8 + 0.45
    tb = float(np.nextafter(ta, np.inf))
    times = []

    def r(s):
        return (s - ta) - 0.5 * (tb - ta)

    def counted(s):
        times.append(s)
        return r(s)

    out = _refine_root(counted, ta, r(ta), tb, r(tb), 1e-9)
    assert times == []
    root, value = out
    assert r(ta) < 0.0 < r(tb) and root in (ta, tb) and value == r(root)


@pytest.mark.parametrize("t0", [1e7, 1e8])
def test_free_fall_far_from_t_zero_refines_its_root_in_a_handful_of_evaluations(t0):
    # t_tol = 1e-9 is below t's spacing here (1.9e-9 at 1e7, 1.5e-8 at 1e8):
    # the segment made 219 event-function evaluations, against 27 at t0 = 0
    calls = []

    def r(t, y):
        calls.append(t)
        return y[0]

    _, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (t0, t0 + 2.0),
                               IntegratorConfig(), [r])
    spacing = float(np.spacing(t0))
    assert len(calls) <= 40, len(calls)
    assert abs(hit.t - (t0 + math.sqrt(2.0 / G))) <= 2 * spacing


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["zero-at-bracket-end", "zero-at-bracket-start"])
def test_an_exact_zero_at_a_scan_sample_is_the_root_and_is_evaluated_once(sign):
    # one step over [0, 0.5] (free fall is quadratic, so the first step is
    # accepted) samples r at 0.1, 0.2, ...: r = +-(t - 0.2) is exactly zero
    # at the second sample.  Rising, that sample ends the bracket the scan
    # hands in; falling, it is no sign change, and starts the next bracket.
    # Either way the root is the sample and its residual the scan's value
    calls = []

    def r(t, y):
        calls.append(t)
        return sign * (t - 0.2)

    seg, hit = integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0),
                                 IntegratorConfig(), [r], first_step=0.5)
    assert len(seg) == 1 and seg.steps[0] == 0.5
    assert hit.t == 0.2 and hit.r_residual == 0.0 and seg.node_times[-1] == 0.2
    assert calls.count(0.2) == 1


@pytest.mark.parametrize("r, error", [
    (lambda t, y: y[0] + 1.0, IntegrationError),
    (lambda t, y: 1.0 / y[0], GrazingError),
], ids=["far-from-zero", "near-zero"])
def test_a_step_underflow_raises_and_names_grazing_near_a_surface(r, error):
    # y' = y^2 from y = 1 blows up at t = 1, where the stepper's step falls
    # below t's spacing; with an event function near zero there, the failure
    # is reported as grazing
    with pytest.raises(error) as err:
        integrate_segment(lambda t, y: (y * y, None), np.array([1.0]), (0.0, 2.0),
                          IntegratorConfig(rtol=1e-6, atol=1e-9), [r])
    assert type(err.value) is error
    if error is GrazingError:
        assert str(err.value).startswith("step underflow at t=1 with event function(s) [0]")
    else:
        assert str(err.value).startswith(
            "integration failed at t=1: Required step size is less than spacing")


@pytest.mark.parametrize("r, where", [
    # NaN below q = 0: the scan steps from r > 0 straight to NaN
    (lambda t, y: math.log(y[0]) - math.log(0.5) if y[0] > 0.0 else math.nan, "scan"),
    # NaN on 0.25 < q < 0.75, where a scan sample falls
    (lambda t, y: math.nan if 0.25 < y[0] < 0.75 else y[0] - 0.5, "scan"),
    # NaN on 0.4 < q < 0.51, between two scan samples around the root
    (lambda t, y: math.nan if 0.4 < y[0] < 0.51 else y[0] - 0.5, "refinement"),
    (lambda t, y: math.nan, "start"),
    (lambda t, y: -math.inf, "start"),
], ids=["below-zero", "hole-at-a-sample", "hole-between-samples", "nan-at-start",
        "inf-at-start"])
def test_a_non_finite_event_function_value_is_refused(r, where, monkeypatch):
    # the sign tests read a NaN as positive: the first case missed its root
    # and ran on to q = -18.6 at t = 2, the second returned a hit at
    # t = 0.391 with residual -0.25
    roots = _refinements(monkeypatch)
    with pytest.raises(IntegrationError, match=r"event function 0 = (nan|-inf) at t=") as err:
        integrate_segment(free_fall_rhs, np.array([1.0, 0.0]), (0.0, 2.0),
                          IntegratorConfig(), [r])
    t = float(str(err.value).split("at t=")[1].split(":")[0])
    assert t == 0.0 if where == "start" else 0.0 < t < 2.0
    assert (where == "refinement") == (len(roots) == 1 and t == roots[0][-1])
