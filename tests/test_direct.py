import numpy as np
import pytest

from hybridsens.core import Dimensions, SensitivityState
from hybridsens.direct import (
    assemble_cost_sensitivity_direct,
    direct_gradient,
    propagate_direct,
    simulate,
    tangent_rhs,
    tlm_rhs,
)
from hybridsens.integrate import IntegratorConfig
from hybridsens.model import (
    CostFunctional,
    InitialConditions,
    MultibodyModel,
    OdeDynamics,
)
from hybridsens.oracle import fd_cost_sensitivity
from conftest import rel_err

G = 9.81


def linear_growth_model(p=1):
    """vdot = a v (in first-order form qdot = v, vdot = a v), rho = (a,)."""
    dims = Dimensions(n=1, p=p)
    return MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array([rho[0] * v[0]]),
        initial_state=lambda rho: InitialConditions(
            np.zeros(1), np.ones(1), np.zeros((1, p)), np.zeros((1, p))),
        name="linear-growth",
    )


def test_tlm_rhs_gamma_and_quadrature_rows():
    model = linear_growth_model()
    dyn = OdeDynamics(model)
    dims = model.dims
    cost = CostFunctional(nc=1)  # no density: Zdot must vanish identically
    rho = np.array([0.8])
    y = np.array([0.1, 1.2, 0.0])          # [q; v; z]
    X = np.array([0.3, 0.4, 0.5])          # [Q; V; Z]
    dy, mu = tlm_rhs(dyn, cost, dims, rho, 0.0, y)
    dX = tangent_rhs(dyn, cost, dims, rho, 0.0, y[:1], y[1:2], X, dy[1:2], mu)
    assert dy[2] == 0.0          # quadrature value rate (g = 0)
    assert dX[2] == 0.0          # Z block rate


def test_variational_equation_exponential():
    # v(t) = e^{a t}, dv/da = t e^{a t}
    model = linear_growth_model()
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1)
    a = 0.8
    XF = propagate_direct(simulate(dyn, cost, [], np.array([a]), (0.0, 1.5),
                                   IntegratorConfig()))
    tF = 1.5
    assert abs(XF.V[0, 0] - tF * np.exp(a * tF)) < 1e-6 * np.exp(a * tF)


def test_free_fall_terminal_cost_wrt_initial_velocity():
    dims = Dimensions(n=1, p=1)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array([-G]),
        initial_state=lambda rho: InitialConditions(
            np.zeros(1), rho.copy(), np.zeros((1, 1)), np.ones((1, 1))),
    )
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([q[0]]))
    tF = 0.7
    grad, traj, XF = direct_gradient(dyn, cost, [], np.array([2.0]), (0.0, tF),
                                     IntegratorConfig())
    assert abs(grad[0, 0] - tF) < 1e-9


def test_gamma_block_never_mutated():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    traj = simulate(prob.dynamics, prob.cost("int-vy"), prob.events, prob.rho0.rho,
                    prob.t_span, prob.config)
    XF = propagate_direct(traj)
    assert np.array_equal(XF.Gamma, np.eye(2))
    for t in np.linspace(0.05, 1.45, 10):
        assert np.array_equal(traj.sensitivity_at(t).Gamma, np.eye(2))


def test_bouncing_terminal_height_matches_fd():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("height-final")
    grad, traj, XF = direct_gradient(prob.dynamics, cost, prob.events,
                                     prob.rho0.rho, prob.t_span, prob.config)
    fd = fd_cost_sensitivity(prob.dynamics, cost, prob.events, prob.rho0.rho,
                             prob.t_span, prob.config)
    assert rel_err(grad, fd) < 1e-4


def test_assemble_direct_pure_quadrature():
    XF = SensitivityState(np.zeros((1, 2)), np.zeros((1, 2)), np.eye(2),
                          np.array([[3.0, -1.0]]))
    w_grads = (np.zeros(1), np.zeros((1, 4)))  # w_y over [q | v | rho]
    out = assemble_cost_sensitivity_direct(XF, w_grads)
    assert np.array_equal(out, [[3.0, -1.0]])


def test_assemble_direct_terminal_only():
    # g = 0, w = rho . rho: gradient is w_rho alone
    dims = Dimensions(n=1, p=2)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.zeros(1),
        initial_state=lambda rho: InitialConditions(
            np.zeros(1), np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2))),
    )
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1, w=lambda t, q, v, rho, u: np.array([rho @ rho]))
    rho = np.array([1.5, -0.5])
    grad, _, _ = direct_gradient(dyn, cost, [], rho, (0.0, 1.0), IntegratorConfig())
    assert np.allclose(grad, 2.0 * rho[None, :], rtol=1e-7, atol=1e-9)


def test_duplicated_parameter_duplicates_columns():
    # a two-parameter model where both parameters are the same physical
    # quantity must produce identical sensitivity columns
    dims = Dimensions(n=1, p=2)
    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array([-0.5 * (rho[0] + rho[1]) * q[0]]),
        initial_state=lambda rho: InitialConditions(
            np.ones(1), np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2))),
    )
    dyn = OdeDynamics(model)
    cost = CostFunctional(nc=1, g=lambda t, q, v, a, rho, u: np.array([q[0] ** 2]))
    XF = propagate_direct(simulate(dyn, cost, [], np.array([4.0, 4.0]), (0.0, 2.0),
                                   IntegratorConfig()))
    assert np.allclose(XF.Q[:, 0], XF.Q[:, 1], rtol=1e-12)
    assert np.allclose(XF.Z[:, 0], XF.Z[:, 1], rtol=1e-12)


def test_smooth_direct_matches_fd(curved_mass):
    model, dyn = curved_mass
    cost = CostFunctional(
        nc=1, g=lambda t, q, v, a, rho, u: np.array([q @ q + 0.1 * v @ v]))
    rho = np.array([3.0, 1.5])
    cfg = IntegratorConfig()
    grad, traj, XF = direct_gradient(dyn, cost, [], rho, (0.0, 1.0), cfg)
    fd = fd_cost_sensitivity(dyn, cost, [], rho, (0.0, 1.0), cfg)
    assert rel_err(grad, fd, floor=1.0) < max(1e-4, 100 * cfg.rtol)


def test_five_bar_direct_z_piecewise_smooth():
    # Z has jumps only at event times; in between it moves continuously
    from hybridsens.gallery import five_bar

    prob = five_bar()
    cost = prob.cost("int-vy2")
    traj = simulate(prob.dynamics, cost, prob.events, prob.rho0.rho, (0.0, 1.0), prob.config)
    propagate_direct(traj)
    recs = traj.events
    assert len(recs) >= 1
    seg = traj.segments[0]
    ts = np.linspace(seg.t_start, seg.t_end, 20)
    Z = np.array([traj.sensitivity_at(t).Z[0] for t in ts])
    steps = np.abs(np.diff(Z, axis=0)).max(axis=1)
    assert steps.max() < 0.2  # no delta-like spikes inside a smooth segment
    # and the recorded jump at the first event is genuine
    rec = recs[0]
    X_before = traj.sensitivity_at(rec.t_eve - 1e-9)
    X_after = traj.segments[1].dense.evaluate(rec.t_eve + 0.0)
    assert np.isfinite(X_after).all()


def test_simulate_z_accumulates_density():
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    cost = prob.cost("int-vy")
    traj = simulate(prob.dynamics, cost, [], prob.rho0.rho, (0.0, 0.3),
                    prob.config)
    _, _, z = traj.state_at(0.3)
    # int_0^T v dt = y(T) - y(0) = -g T^2 / 2
    assert abs(z[0] - (-0.5 * G * 0.09)) < 1e-8


def _gallery(name):
    from hybridsens.gallery import FIVE_BAR_PARAMS, bouncing_mass, five_bar, pendulum

    return {"five-bar-penalty-all-parameters": lambda: five_bar(param_names=FIVE_BAR_PARAMS),
            "five-bar-dae": lambda: five_bar(formulation="dae"),
            "bouncing-mass": bouncing_mass, "pendulum": pendulum}[name]()


@pytest.mark.parametrize("name", ["five-bar-penalty-all-parameters", "five-bar-dae",
                                  "bouncing-mass", "pendulum"])
def test_direct_pass_is_the_tangent_of_simulate_steps(name):
    # the direct pass differentiates simulate's own steps: its trajectory is
    # simulate's bitwise, its gradient is the discrete adjoint gradient over
    # that trajectory up to round-off, and the tangent sweep of simulate's
    # run is direct_gradient's byte for byte
    from hybridsens.adjoint import propagate_adjoint

    prob = _gallery(name)
    for cname in sorted(prob.costs):
        cost = prob.cost(cname)
        args = (prob.dynamics, cost, prob.events, prob.rho0.rho, prob.t_span, prob.config)
        grad, traj, XF = direct_gradient(*args)
        ref = simulate(*args)
        assert rel_err(grad, propagate_adjoint(ref, cost).gradient) <= 1e-12, cname
        assert len(traj.segments) == len(ref.segments)
        for seg, seg_ref in zip(traj.segments, ref.segments):
            assert seg.dense.node_times.tobytes() == seg_ref.dense.node_times.tobytes()
            assert seg.dense.node_states.tobytes() == seg_ref.dense.node_states.tobytes()
        assert [rec.t_eve for rec in traj.events] == [rec.t_eve for rec in ref.events]

        XF_ref = propagate_direct(ref)
        for a, b in ((XF.Q, XF_ref.Q), (XF.V, XF_ref.V), (XF.Z, XF_ref.Z)):
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        for seg, seg_ref in zip(traj.segments, ref.segments):
            assert seg.tangent.node_states.tobytes() == seg_ref.tangent.node_states.tobytes()
        assert (assemble_cost_sensitivity_direct(XF_ref, ref.terminal_gradients()).tobytes()
                == grad.tobytes())


@pytest.mark.parametrize("name", ["bouncing-mass", "pendulum"])
def test_sweeping_a_run_twice_rewrites_the_same_bytes(name):
    # the sweep writes the tangent and the event-time sensitivities and only
    # reads the run's states and jump matrices
    prob = _gallery(name)
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    assert traj.events
    run = ([seg.dense.node_states.tobytes() for seg in traj.segments],
           [rec.jump.S.tobytes() for rec in traj.events])

    def sweep():
        XF = propagate_direct(traj)
        return (np.vstack([XF.Q, XF.V, XF.Z]).tobytes(),
                [seg.tangent.node_states.tobytes() for seg in traj.segments],
                [(rec.dteve_drho.tobytes(), None if rec.delta_mu_sens is None
                  else rec.delta_mu_sens.tobytes()) for rec in traj.events])

    first = sweep()
    assert sweep() == first
    assert ([seg.dense.node_states.tobytes() for seg in traj.segments],
            [rec.jump.S.tobytes() for rec in traj.events]) == run


@pytest.mark.parametrize("name", ["bouncing-mass", "pendulum"])
def test_a_run_builds_its_initial_state_once_and_no_sweep_builds_it(monkeypatch, name):
    from hybridsens.adjoint import propagate_adjoint

    prob = _gallery(name)
    model, calls = prob.dynamics.model, []
    original = model.initial_state
    monkeypatch.setattr(model, "initial_state", lambda rho: calls.append(1) or original(rho))
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    assert len(calls) == 1
    propagate_direct(traj)
    propagate_adjoint(traj)
    assert len(calls) == 1


def test_sensitivity_at_on_a_run_not_yet_swept_names_the_sweep():
    prob = _gallery("bouncing-mass")
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    with pytest.raises(ValueError, match=r"propagate_direct\(traj\)"):
        traj.sensitivity_at(0.2)
    propagate_direct(traj)
    assert traj.sensitivity_at(0.2).Q.shape == (1, 2)


@pytest.mark.parametrize("sampled", [False, True], ids=["nodes", "nodes-and-samples"])
def test_the_sweep_retains_its_node_tangents_and_samples_only(sampled):
    # no step's tangent stages outlive the sweep of its segment: what it leaves
    # behind is each segment's node tangents (plus 10% for the records, the
    # event-time sensitivities and X(tF)) and the rows sampled at ``at``
    import tracemalloc

    from hybridsens.cli import _sample_times

    prob = _gallery("five-bar-penalty-all-parameters")
    request = (prob.dynamics, prob.cost("int-ay2sq-vy2sq"), prob.events, prob.rho0.rho,
               (0.0, 2.0), prob.config)
    propagate_direct(simulate(*request))  # what a first call builds and keeps is not the sweep's
    traj = simulate(*request)
    at = _sample_times(traj) if sampled else ()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        XF = propagate_direct(traj, at=at)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) >= 2 and XF.Q.shape == (6, 8)
    nodes = sum(seg.tangent.node_states.nbytes for seg in traj.segments)
    samples = sum(seg.tangent.samples.nbytes + seg.tangent.sample_times.nbytes
                  for seg in traj.segments)
    assert (samples > 0) == sampled
    assert retained <= 1.1 * nodes + samples, (retained, nodes, samples)


@pytest.mark.parametrize("at, match", [([0.5, 0.2], "sorted"), ([-0.1, 0.2], "outside"),
                                       ([0.2, 0.7], "outside"), ([0.2, float("nan")], "sorted")],
                         ids=["unsorted", "before-the-start", "after-the-end", "nan"])
def test_sample_times_outside_the_run_or_unsorted_are_refused(at, match):
    prob = _gallery("bouncing-mass")
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, (0.0, 0.6),
                    prob.config)
    with pytest.raises(ValueError, match=match):
        propagate_direct(traj, at=at)


def _count_residual_calls(monkeypatch):
    """Wrap ConstraintSet.residuals; returns the list its calls land in."""
    from hybridsens.model import ConstraintSet

    calls, original = [], ConstraintSet.residuals

    def counting(self, *args):
        calls.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(ConstraintSet, "residuals", counting)
    return calls


@pytest.mark.parametrize("name, t_span", [("five-bar", (0.0, 0.6)), ("pendulum", None)],
                         ids=["five-bar", "pendulum"])
def test_residuals_are_derived_only_when_read(monkeypatch, name, t_span):
    # no run evaluates a residual; reading traj.residuals evaluates one per
    # node of each constrained segment
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.gallery import five_bar, pendulum

    prob = {"five-bar": five_bar, "pendulum": pendulum}[name]()
    calls = _count_residual_calls(monkeypatch)
    cost = prob.cost()
    args = (prob.dynamics, cost, prob.events, prob.rho0.rho, t_span or prob.t_span, prob.config)
    traj = simulate(*args)
    direct_gradient(*args)
    propagate_adjoint(traj, cost)
    fd_cost_sensitivity(*args, nominal=traj)
    assert len(traj.events) == 1 and calls == []
    constrained = [seg for seg in traj.segments if seg.dynamics.model.constraints is not None]
    assert constrained
    res = traj.residuals
    assert len(calls) == sum(len(seg.dense.node_times) for seg in constrained)
    assert len(res.times) == sum(len(seg.dense.node_times) for seg in traj.segments)


def test_pendulum_residual_rows_at_the_stored_nodes():
    # free flight has no constraint set: (0, 0); on the tether each row is
    # max |Phi| and max |phi_q v| at the stored node state, bitwise
    from hybridsens.gallery import pendulum

    prob = pendulum()
    traj = simulate(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, prob.t_span,
                    prob.config)
    free, tethered = traj.segments
    res = traj.residuals
    rows = list(zip(res.times, res.pos, res.vel))
    n_free = len(free.dense.node_times)
    assert rows[:n_free] == [(t, 0.0, 0.0) for t in free.dense.node_times.tolist()]
    cons, rho = tethered.dynamics.model.constraints, traj.rho
    expect = [(t, float(np.max(np.abs(cons.value(t, y[:2], rho)))),
               float(np.max(np.abs(cons.jac_q(t, y[:2], rho) @ y[2:4]))))
              for t, y in zip(tethered.dense.node_times.tolist(), tethered.dense.node_states)]
    assert rows[n_free:] == expect
    assert 0.0 < res.max_pos() <= 1e-6 and 0.0 < res.max_vel() <= 1e-5


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (1.0, 0.5), (0.0, float("nan")),
                                    (0.0, float("inf")), (float("-inf"), 0.5)])
def test_empty_or_reversed_span_is_refused(t_span):
    # such a run would have no segment: no final state and no residuals
    # ((0, inf) used to return a run of 0 segments and 0 events)
    from hybridsens.gallery import bouncing_mass

    prob = bouncing_mass()
    for run in (simulate, direct_gradient):
        with pytest.raises(ValueError, match="empty or reversed"):
            run(prob.dynamics, prob.cost(), prob.events, prob.rho0.rho, t_span, prob.config)


def test_direct_gradient_refuses_a_missing_cost(monkeypatch):
    # refused up front, not by an AttributeError after the forward run and
    # the tangent sweep
    import hybridsens.direct as direct
    from hybridsens.gallery import bouncing_mass

    def no_run(*args):
        raise AssertionError("a run started without a cost")

    monkeypatch.setattr(direct, "_run_hybrid", no_run)
    prob = bouncing_mass()
    with pytest.raises(ValueError, match="needs the cost functional"):
        direct_gradient(prob.dynamics, None, prob.events, prob.rho0.rho, prob.t_span,
                        prob.config)


@pytest.mark.parametrize("model,rho", [
    ("bouncing-mass", [1.0, 0.9, 0.5]),
    ("bouncing-mass", [1.0]),
    ("pendulum", [0.15, -1.0, 1.0, 2.0]),
    ("five-bar", [100.0, 100.0, 1.0]),
])
def test_parameter_vector_of_the_wrong_length_is_refused(model, rho):
    # refused before the model reads it, naming both lengths and the model
    from hybridsens.core import DimensionError
    from hybridsens.gallery import register_gallery

    prob = register_gallery()[model]()
    msg = (f"model '{model}' has {prob.dynamics.dims.p} parameters, "
           f"but rho has {len(rho)} values")
    for run in (simulate, direct_gradient):
        with pytest.raises(DimensionError, match=msg):
            run(prob.dynamics, prob.cost(), prob.events, np.array(rho), prob.t_span,
                prob.config)


def test_warm_restarts_leave_the_five_bar_cost_smooth_in_its_parameters():
    # each post-contact segment starts with the length of the step its contact
    # cut short.  Taking only the part before the contact, which depends on
    # where the contact falls in its step, passed from segment to segment,
    # turns a parameter change of 1e-6 into other step sequences on this
    # input: the central difference missed the direct gradient by 1.3e-4
    # (1.9e-7 from the initial-step heuristic, 1.5e-6 from the full step)
    from hybridsens.gallery import five_bar
    from hybridsens.model import terminal_cost_gradients

    prob = five_bar(formulation="dae")
    cost = prob.cost("int-ay2")
    rng = np.random.default_rng([303, 0])
    rho = prob.rho0.rho * (1.0 + rng.uniform(-0.01, 0.01, 2))
    d = rng.standard_normal(2)
    d *= np.maximum(1.0, np.abs(rho)) / np.linalg.norm(d)
    grad = direct_gradient(prob.dynamics, cost, prob.events, rho, prob.t_span, prob.config)[0]
    psi = []
    for r in (rho + 1e-6 * d, rho - 1e-6 * d):
        traj = simulate(prob.dynamics, cost, prob.events, r, prob.t_span, prob.config)
        qF, vF, zF = traj.final_state
        psi.append(zF + terminal_cost_gradients(cost, traj.segments[-1].dynamics, traj.tF,
                                                qF, vF, r)[0])
    assert len(traj.events) == 10
    assert rel_err((psi[0] - psi[1]) / 2e-6, grad @ d) < 1e-5
