"""The forward pass records the saddle-solve multipliers of every accepted
Runge-Kutta stage, and the adjoint sweep reads them (with the acceleration
from the stored stage derivatives) instead of solving again.  Every row must
therefore be bitwise what a fresh solve returns at the stage state the sweep
reads; a row shifted by one evaluation moves the gradients only slightly,
so only a bitwise check catches it."""

import numpy as np
import pytest

import hybridsens.integrate as integrate
from hybridsens.constrained import PenaltyDynamics
from hybridsens.direct import simulate, tlm_rhs
from hybridsens.gallery import FIVE_BAR_PARAMS, bouncing_mass, five_bar, pendulum
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
            _, _, times, states, _, _ = dense.step_stages(k, n)
            for i in range(7):
                t, y = times[i], states[i]
                q, v = y[:n], y[n:2 * n]
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
