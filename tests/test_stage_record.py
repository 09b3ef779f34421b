"""The forward pass records the saddle-solve multipliers of every accepted
Runge-Kutta stage, and the adjoint sweep reads them (with the acceleration
from the stored stage derivatives) instead of solving again.  Every row must
therefore be bitwise what a fresh solve returns at the stage state the sweep
reads; a row shifted by one evaluation moves the gradients only slightly,
so only a bitwise check catches it."""

import numpy as np
import pytest

import hybridsens.direct as direct
import hybridsens.integrate as integrate
from hybridsens.constrained import PenaltyDynamics
from hybridsens.direct import simulate, tlm_rhs
from hybridsens.gallery import FIVE_BAR_PARAMS, bouncing_mass, five_bar, pendulum, register_gallery
from hybridsens.model import OdeDynamics


@pytest.fixture
def attempts(monkeypatch):
    """Step attempts per accepted step of every segment integrated."""
    counts = []

    class CountingRK45(integrate.RK45):
        def step(self):
            before = self.nfev
            msg = super().step()
            counts.append((self.nfev - before) // self.n_stages)
            return msg

    monkeypatch.setattr(integrate, "RK45", CountingRK45)
    return counts


def fresh(dyn):
    """The same dynamics on the same model, as a second object."""
    if isinstance(dyn, PenaltyDynamics):
        return PenaltyDynamics(dyn.model, dyn.pcfg)
    return type(dyn)(dyn.model)


CASES = {
    "five-bar-penalty-all-parameters": (lambda: five_bar(param_names=FIVE_BAR_PARAMS),
                                        "int-ay2sq-vy2sq"),
    "five-bar-dae": (lambda: five_bar(formulation="dae"), "int-ay2"),
    "pendulum-capture": (pendulum, "int-vx"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stage_record_is_bitwise_the_saddle_solve(name, attempts):
    make, cname = CASES[name]
    prob = make()
    traj = simulate(prob.dynamics, prob.cost(cname), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    rho, n = traj.rho, traj.dims.n
    assert sum(a - 1 for a in attempts) > 0  # some step was rejected
    kinds = [type(seg.dynamics).__name__ for seg in traj.segments]
    if name == "pendulum-capture":
        assert kinds == ["OdeDynamics", "DaeDynamics"]
    for seg in traj.segments:
        dense, dyn = seg.dense, fresh(seg.dynamics)
        m = 0 if isinstance(dyn, OdeDynamics) else dyn.model.constraints.m
        assert dense.multipliers.shape == (6 * len(dense) + 1, m)
        assert not dense.multipliers.flags.writeable
        for k in range(len(dense)):
            K = dense.stages[6 * k:6 * k + 7]
            # the stage states exactly as both sensitivity sweeps read them
            _, _, times, q_rec, v_rec, _, _ = dense.step_stages(k, n)
            for i in range(7):
                t, q, v = times[i], q_rec[i], v_rec[i]
                vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
                assert vdot.tobytes() == K[i, n:2 * n].tobytes()
                if mu is None:  # ODE dynamics: an empty row
                    mu = np.empty(0)
                assert mu.tobytes() == dense.multipliers[6 * k + i].tobytes()


REPLAYS = {
    "five-bar-penalty": (five_bar, (0.0, 2.0)),
    "five-bar-dae": (lambda: five_bar(formulation="dae"), (0.0, 2.0)),
    "bouncing-mass": (bouncing_mass, None),
    "pendulum": (pendulum, None),
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_stage_record_stores_each_derivative_once(name):
    # a segment's stage record is one array laid out as its multipliers:
    # rows 6k..6k+6 are the K a fresh stepper holds after step k, so row 6k + 6
    # is step k's end derivative and step k + 1's first stage, stored once; a
    # post-event segment is replayed from the first step the run gave it
    make, t_span = REPLAYS[name]
    prob = make()
    cost = prob.cost()
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, t_span or prob.t_span,
                    prob.config)
    assert traj.events
    previous = None
    for seg in traj.segments:
        first_step = None
        if previous is not None and previous.dynamics is seg.dynamics:
            t_eve = previous.dense.node_times[-1]
            first_step = min(previous.dense.steps[-1], t_eve - previous.dense.node_times[0],
                             traj.tF - t_eve)
        dense = seg.dense
        assert dense.stages.shape == (6 * len(dense) + 1, dense.node_states.shape[1])
        solver = integrate.RK45(
            lambda t, y: tlm_rhs(seg.dynamics, cost, traj.dims, traj.rho, t, y)[0],
            dense.node_times[0], dense.node_states[0], traj.tF,
            traj.config.rtol, traj.config.atol, first_step)
        for k in range(len(dense)):
            solver.step()
            assert solver.h_previous == dense.steps[k]
            assert dense.stages[6 * k:6 * k + 7].tobytes() == solver.K.tobytes(), k
        previous = seg


@pytest.fixture
def logged(monkeypatch):
    """(log, marks, wrap): wrap(rhs) logs the (t, y, f, mu) of every call
    in log, the initial-step probe and rejected attempts included, and marks
    holds the log's length after each accepted step."""
    log, marks = [], []

    class MarkingRK45(integrate.RK45):
        def step(self):
            msg = super().step()
            marks.append(len(log))
            return msg

    monkeypatch.setattr(integrate, "RK45", MarkingRK45)

    def wrap(rhs):
        def logging_rhs(t, y):
            f, mu = rhs(t, y)
            log.append((t, y, f, mu))
            return f, mu
        return logging_rhs

    return log, marks, wrap


LOOSE = integrate.IntegratorConfig(rtol=1e-4)  # a few steps, some rejected


def damped_pendulum(t, y):
    f = np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])
    return f, np.array([t, f[1]])


def assert_records_are_the_accepted_evaluations(seg, log, marks):
    # the first evaluation, then the last n_stages of each accepted step: the
    # probe and the rejected attempts before them are dropped
    s = integrate.RK45.n_stages
    assert len(marks) == len(seg) and len(log) > 1 + s * len(seg)
    kept = [log[0]] + [e for m in marks for e in log[m - s:m]]
    records = (seg.stage_times, seg.stage_states, seg.stages, seg.multipliers)
    for record, column in zip(records, zip(*kept), strict=True):
        assert record.shape[0] == s * len(seg) + 1 and not record.flags.writeable
        assert record.tobytes() == np.array(column, dtype=float).tobytes()


def test_stage_records_are_the_evaluations_of_an_event_free_segment(logged):
    log, marks, wrap = logged
    seg, hit = integrate.integrate_segment(wrap(damped_pendulum), np.array([1.2, 0.0]),
                                           (0.0, 10.0), LOOSE)
    assert hit is None and not seg.truncated
    assert any(b - a > integrate.RK45.n_stages for a, b in zip(marks, marks[1:]))  # a rejection
    assert_records_are_the_accepted_evaluations(seg, log, marks)


def test_stage_records_of_a_truncated_segment_end_at_the_full_step(logged):
    # the last step is cut at the event by the continuous extension: its
    # stage 6 is the full step's end the stepper evaluated, not the event state
    log, marks, wrap = logged
    seg, hit = integrate.integrate_segment(wrap(damped_pendulum), np.array([1.2, 0.0]),
                                           (0.0, 10.0), LOOSE, [lambda t, y: y[0]])
    assert hit is not None and seg.truncated
    assert_records_are_the_accepted_evaluations(seg, log, marks)
    assert seg.stage_times[-1] > seg.node_times[-1] == hit.t
    assert seg.stage_states[-1].tobytes() != seg.node_states[-1].tobytes()


def test_stage_records_of_a_segment_started_from_a_given_evaluation(logged):
    # a post-event segment takes the caller's evaluation at its start as
    # its first, and a first step without the probe
    log, marks, wrap = logged
    rhs, y0 = wrap(damped_pendulum), np.array([-0.3, 1.1])
    start = rhs(2.5, y0)
    seg, _ = integrate.integrate_segment(rhs, y0, (2.5, 6.0), LOOSE, start=start,
                                         first_step=0.4)
    assert log[1][0] == 2.5 + 0.4 * integrate.RK45.C[1]  # no probe: stage 1 of step 0
    assert_records_are_the_accepted_evaluations(seg, log, marks)


def records(dense):
    return dense.stage_times, dense.stage_states, dense.stages, dense.multipliers


def test_a_five_bar_stage_row_holds_each_quantity_once():
    # a row is the stage's time, its positions (its velocities are the
    # derivative's leading rows), its derivative [v; vdot; g] and its
    # multipliers: 8 (1 + n + dim + m) bytes, 192 on the five-bar, where
    # keeping the whole state [q; v; z] took 248
    prob = five_bar()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, (0.0, 2.0),
                    prob.config)
    n, m = traj.dims.n, prob.dynamics.model.constraints.m
    dim = traj.segments[0].dense.node_states.shape[1]
    assert traj.events and (n, dim, m) == (6, 13, 4)
    for seg in traj.segments:
        dense = seg.dense
        rows = 6 * len(dense) + 1
        assert [r.shape[0] for r in records(dense)] == [rows] * 4
        assert sum(r.nbytes for r in records(dense)) == 8 * (1 + n + dim + m) * rows


def test_a_five_bar_run_peaks_at_one_segment_record_above_what_it_keeps():
    # accepted rows are copied into blocks of the segment's record every few
    # steps, and the blocks are stacked once, when the segment ends: the
    # transient is one segment's record beside its blocks, plus the arrays of
    # fewer than a flush's rows of evaluations, each well under 1 KB.
    # Holding every evaluation's own arrays until the segment ended peaked
    # 0.20 MB above the 0.82 MB the run keeps, 2.8 times its largest record
    import tracemalloc

    prob = five_bar(param_names=FIVE_BAR_PARAMS)
    request = (prob.dynamics, prob.cost("int-ay2sq-vy2sq"), prob.events, prob.rho0.rho,
               prob.t_span, prob.config)
    simulate(*request)  # what a first call builds and keeps is not the run's
    tracemalloc.start()
    try:
        traj = simulate(*request)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.events) >= 8
    row = sum(r[0].nbytes for r in records(traj.segments[0].dense))
    largest = max(len(seg.dense.stage_times) for seg in traj.segments) * row
    bound = largest + integrate._StageRecord._FLUSH_ROWS * 1024
    assert peak - retained <= bound, (peak, retained, bound)


@pytest.mark.parametrize("name", sorted(register_gallery()))
def test_each_recorded_derivative_leads_with_its_stage_velocity(name, monkeypatch):
    # the record keeps a stage's positions and the sweeps read its velocities
    # from the leading rows of its derivative f = [v; vdot; g], so every
    # evaluation a run records, by its right side or handed in at an event,
    # must lead with the velocity of the state it was evaluated at, bitwise
    log, integrate_segment = [], direct.integrate_segment

    def logging_segment(rhs, y0, t_span, config, event_fns, monitor, start, *rest, **kw):
        if start is not None:
            log.append((t_span[0], y0, start[0]))

        def logging_rhs(t, y):
            f, mu = rhs(t, y)
            log.append((t, y, f))
            return f, mu
        return integrate_segment(logging_rhs, y0, t_span, config, event_fns, monitor, start,
                                 *rest, **kw)

    monkeypatch.setattr(direct, "integrate_segment", logging_segment)
    prob = register_gallery()[name]()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    n = traj.dims.n
    assert traj.events and all(f[:n].tobytes() == y[n:2 * n].tobytes() for _, y, f in log)
    logged = {(t, y[:n].tobytes(), f.tobytes()) for t, y, f in log}
    for seg in traj.segments:
        dense = seg.dense
        for t, q, f in zip(dense.stage_times.tolist(), dense.stage_states[:, :n], dense.stages):
            assert (t, q.tobytes(), f.tobytes()) in logged
