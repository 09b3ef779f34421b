"""Seeded random referee: every request is either right or a named error.

Each request draws parameters and a time span from a fixed-seed numpy
RNG, one stream per family, runs ``direct_gradient``, ``propagate_adjoint``
on its trajectory and ``fd_cost_sensitivity`` with that trajectory as the
nominal run.  It agrees when direct and adjoint match within 1e-10 and
direct and FD within 1e-4, both relative to max(1, |g|).  Any other
outcome must be one of the errors the README names; any other exception,
or a disagreement, fails.  The bouncing mass is also checked against its
closed form on every draw that runs.  The tally per outcome is printed
(visible with ``pytest -s``) and must equal the recorded ``TALLY``.  Fixed
bounces, up to their accumulation time, are checked against the same
closed form.

The draws are fixed by the seed: never re-draw or narrow the ranges to
hide a failure.
"""

from collections import Counter

import numpy as np
import pytest

from hybridsens.adjoint import propagate_adjoint
from hybridsens.constrained import ConstraintReleaseError, SingularKKTError
from hybridsens.direct import direct_gradient, simulate
from hybridsens.gallery import FIVE_BAR_DATA, GRAVITY, bouncing_mass, five_bar, pendulum
from hybridsens.hybrid import StickingContactError, TangentialCrossingError
from hybridsens.integrate import InadmissibleStartError, IntegrationError
from hybridsens.oracle import fd_cost_sensitivity
from conftest import elementwise_close, forced_mass

SEED = 12345

# the out-of-scope situations the README names; GrazingError,
# SimultaneousEventError and EventAccumulationError are IntegrationErrors
NAMED_ERRORS = (TangentialCrossingError, StickingContactError, IntegrationError,
                SingularKKTError, ConstraintReleaseError, InadmissibleStartError)


def _pendulum_draws(rng, count=20):
    prob = pendulum()
    for _ in range(count):
        rho = np.array([rng.uniform(-0.95, 0.95), rng.uniform(-8.0, 8.0), rng.uniform(0.3, 3.0)])
        yield prob, rho, (0.0, rng.uniform(0.2, 3.0))


def _bouncing_draws(rng, count=20):
    prob = bouncing_mass()
    for _ in range(count):
        h0, e = rng.uniform(0.1, 3.0), rng.uniform(0.2, 0.97)
        t1 = np.sqrt(2.0 * h0 / GRAVITY)
        yield prob, np.array([h0, e]), (0.0, rng.uniform(0.1, 1.2) * t1 * (1.0 + e) / (1.0 - e))


def _five_bar_draws(rng, per_formulation=2):
    names = ("k1", "k2", "L21")
    nominal = np.array([FIVE_BAR_DATA[nm] for nm in names])
    for formulation in ("penalty", "dae"):
        prob = five_bar(names, formulation)
        for _ in range(per_formulation):
            yield prob, nominal * rng.uniform(0.95, 1.05, size=3), (0.0, rng.uniform(0.4, 0.8))


def _forced_draws(rng, count=12):
    # forces and costs of t; most spans start before t = 0
    prob = forced_mass()
    for _ in range(count):
        h0, e, a = rng.uniform(0.3, 2.0), rng.uniform(0.3, 0.9), rng.uniform(-3.0, 3.0)
        t1 = np.sqrt(2.0 * h0 / GRAVITY)
        t0 = rng.uniform(-0.6, 0.2)
        span = rng.uniform(0.3, 1.0) * t1 * (1.0 + e) / (1.0 - e)
        yield prob, np.array([h0, e, a]), (t0, t0 + span)


def _check_bouncing_closed_form(traj, rho, tF):
    """Event count and times t_k = t1 (1 + 2e (1 - e^(k-1)) / (1 - e))."""
    h0, e = rho
    t1 = np.sqrt(2.0 * h0 / GRAVITY)
    k = np.arange(1, len(traj.events) + 2)
    t_k = t1 * (1.0 + 2.0 * e * (1.0 - e ** (k - 1)) / (1.0 - e))
    assert len(traj.events) == int(np.sum(t_k < tF))
    t_eve = np.array([rec.t_eve for rec in traj.events])
    assert np.all(np.abs(t_eve - t_k[:len(t_eve)]) <= 1e-9 * t_k[:len(t_eve)])


def _simulate_bounces(h0, e, tF):
    prob = bouncing_mass()
    rho = np.array([h0, e])
    traj = simulate(prob.dynamics, None, prob.events, rho, (0.0, tF), prob.config)
    _check_bouncing_closed_form(traj, rho, tF)
    return traj


def test_each_post_event_segment_restarts_from_the_step_its_event_cut_short():
    # the benchmark's bounce_horizon input with 15 impacts: started from the
    # initial-step heuristic, which begins near atol at the floor, a bounce
    # takes 3-4 steps; started from the cut-short step, at most 2
    traj = _simulate_bounces(1.18, 0.8585, 5.78877312266463)
    assert len(traj.events) == 15
    assert max(len(seg.dense) for seg in traj.segments[1:]) <= 2


@pytest.mark.parametrize("e", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_bounces_up_to_their_accumulation_time_are_closed_form(e):
    # at 0.995 of t1 (1 + e) / (1 - e): the step an impact cut short can be
    # far longer than the next bounce (small e), and the last bounces are tiny
    # (e near 1)
    t1 = np.sqrt(2.0 / GRAVITY)
    assert _simulate_bounces(1.0, e, 0.995 * t1 * (1.0 + e) / (1.0 - e)).events


def _request(prob, cost, rho, t_span):
    """'agree', or the name of the named error the request raised."""
    try:
        g_dir, traj, _ = direct_gradient(prob.dynamics, cost, prob.events, rho, t_span,
                                         prob.config)
        g_adj = propagate_adjoint(traj, cost).gradient
        g_fd = fd_cost_sensitivity(prob.dynamics, cost, prob.events, rho, t_span,
                                   prob.config, nominal=traj)
    except NAMED_ERRORS as exc:
        return type(exc).__name__
    where = f"{prob.name} {cost.name} rho={rho.tolist()} t_span={t_span!r}"
    assert elementwise_close(g_adj, g_dir, 1e-10), (where, g_dir, g_adj)
    assert elementwise_close(g_fd, g_dir, 1e-4), (where, g_dir, g_fd)
    if prob.name == "bouncing-mass":
        _check_bouncing_closed_form(traj, rho, t_span[1])
    return "agree"


DRAWS = {"pendulum": _pendulum_draws, "bouncing-mass": _bouncing_draws,
         "five-bar": _five_bar_draws, "forced-mass": _forced_draws}

# the recorded outcome of every family's draws: a change that moves an event
# enough to flip a draw's outcome fails here
TALLY = {
    "pendulum": {"agree": 15, "ConstraintReleaseError": 3, "InadmissibleStartError": 2},
    "bouncing-mass": {"agree": 17, "EventAccumulationError": 3},
    "five-bar": {"agree": 4},
    "forced-mass": {"agree": 12},
}


@pytest.mark.parametrize("family", list(DRAWS))
def test_every_request_agrees_or_raises_a_named_error(family):
    rng = np.random.default_rng(SEED)
    tally = Counter()
    for i, (prob, rho, t_span) in enumerate(DRAWS[family](rng)):
        names = sorted(prob.costs)
        tally[_request(prob, prob.cost(names[i % len(names)]), rho, t_span)] += 1
    print(f"\nreferee {family}: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    assert tally["agree"] > 0
    assert dict(tally) == TALLY[family]
