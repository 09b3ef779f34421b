"""The forward pass records the saddle-solve multipliers of every accepted
Runge-Kutta stage, and the adjoint sweep reads them (with the acceleration
from the stored stage derivatives) instead of solving again.  Every row must
therefore be bitwise what a fresh solve returns at the stage state the sweep
rebuilds; a row shifted by one evaluation moves the gradients only slightly,
so only a bitwise check catches it."""

import numpy as np
import pytest

import hybridsens.integrate as integrate
from hybridsens.constrained import PenaltyDynamics
from hybridsens.direct import simulate
from hybridsens.gallery import FIVE_BAR_PARAMS, five_bar, pendulum
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
    assert prob.config.h0 is None  # the solver probes for its first step
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
            K = dense.stages[k]
            # the stage states exactly as both sensitivity sweeps rebuild them
            _, _, times, states, _, _ = dense.step_stages(k, n)
            for i in range(7):
                t, y = times[i], states[i]
                q, v = y[:n], y[n:2 * n]
                vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
                assert vdot.tobytes() == K[i, n:2 * n].tobytes()
                if mu is None:  # ODE dynamics: an empty row
                    mu = np.empty(0)
                assert mu.tobytes() == dense.multipliers[6 * k + i].tobytes()
