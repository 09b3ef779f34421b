import zlib

import numpy as np
import pytest

from hybridsens.core import Dimensions, ParameterVector
from hybridsens.gallery import GRAVITY, PENDULUM_LENGTH, GalleryProblem, pendulum_model
from hybridsens.hybrid import VelocityJumpEvent
from hybridsens.model import CostFunctional, InitialConditions, MultibodyModel, OdeDynamics


def columns(block, n):
    """The q, v and rho column blocks of one block over the columns
    [q | v | rho], n coordinates wide each for q and v."""
    return np.split(block, [n, 2 * n], axis=1)


def stable_seed(label: str) -> int:
    """RNG seed from a label, equal in every process (``hash`` of a str is
    salted per process, so a failing draw could not be replayed)."""
    return zlib.crc32(label.encode())


@pytest.fixture
def free_fall():
    """1-DOF free fall, rho = (h0, e); the canonical closed-form workhorse."""
    from hybridsens.gallery import bouncing_mass_model

    model = bouncing_mass_model()
    return model, OdeDynamics(model)


def make_curved_mass_model():
    """2-DOF system with a q-dependent mass matrix and nonlinear forces.

    No closed form; exists to exercise every finite-difference fallback and
    the mass-derivative terms of the acceleration Jacobians."""
    dims = Dimensions(n=2, p=2)

    def mass(t, q, rho):
        c = 0.3 * np.sin(q[0]) + 0.1 * q[1]
        return np.array([[2.0 + q[0] ** 2, c], [c, 1.5 + 0.2 * np.cos(q[1])]])

    def force(t, q, v, rho):
        return np.array([
            -rho[0] * q[0] - 0.4 * v[0] + 0.2 * q[1] * v[1],
            -rho[1] * np.sin(q[1]) - 0.1 * v[1] ** 2 + 0.05 * q[0],
        ])

    def initial_state(rho):
        return InitialConditions(np.array([0.4, -0.3]), np.array([0.2, 0.5]),
                                 np.zeros((2, 2)), np.zeros((2, 2)))

    return MultibodyModel(dims=dims, mass=mass, force=force,
                          initial_state=initial_state, name="curved-mass")


def pendulum_swing_model(theta0: float = 0.9) -> MultibodyModel:
    """Constrained pendulum started on the tether (for smooth-phase tests)."""
    model = pendulum_model(constrained=True)
    L = PENDULUM_LENGTH

    def initial_state(rho):
        q0 = np.array([L * np.sin(theta0), -L * np.cos(theta0)])
        v0 = np.array([0.0, 0.0])
        return InitialConditions(q0, v0, np.zeros((2, 3)), np.zeros((2, 3)))

    model.initial_state = initial_state
    return model


def forced_mass() -> GalleryProblem:
    """The bouncing mass, rho = (h0, e, a), driven by a(sin 3t) and damped
    by 0.2 cos(t) v, with costs whose density and terminal value depend on
    t: every sweep stage evaluated at another time than the forward pass
    evaluated it changes its bytes.  Its span starts before t = 0, where a
    step's end time t_k + h_k can differ from the next node time."""
    dims = Dimensions(n=1, p=3)

    def initial_state(rho):
        return InitialConditions(np.array([rho[0]]), np.zeros(1),
                                 np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))

    model = MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: np.eye(1),
        force=lambda t, q, v, rho: np.array(
            [-GRAVITY + rho[2] * np.sin(3.0 * t) - 0.2 * np.cos(t) * v[0]]),
        initial_state=initial_state,
        force_partials=lambda t, q, v, rho: (
            np.zeros((1, 1)), np.array([[-0.2 * np.cos(t)]]),
            np.array([[0.0, 0.0, np.sin(3.0 * t)]])),
        mass_constant=True,
        name="forced-mass",
    )
    floor = VelocityJumpEvent(
        name="ground",
        r=lambda q: q[0],
        dr_dq=lambda q: np.array([1.0]),
        admissible=1.0,
        h=lambda t, q, v, rho: np.array([-rho[1] * v[0]]),
        h_partials=lambda t, q, v, rho: (np.zeros(1), np.zeros((1, 1)),
                                         np.array([[-rho[1]]]), np.array([[0.0, -v[0], 0.0]])),
    )
    costs = {
        "int-forced": CostFunctional(
            nc=1,
            g=lambda t, q, v, a, rho, u: np.array([np.cos(2.0 * t) * v[0] + np.sin(t) * q[0]]),
            g_partials=lambda t, q, v, a, rho, u: (
                np.array([[np.sin(t)]]), np.array([[np.cos(2.0 * t)]]), np.zeros((1, 1)),
                np.zeros((1, 3)), None),
            name="int-forced",
        ),
        "final-forced": CostFunctional(
            nc=1,
            w=lambda t, q, v, rho, u: np.array([np.cos(t) * q[0] + np.sin(t) * v[0]]),
            w_partials=lambda t, q, v, rho, u: (
                np.array([[np.cos(t)]]), np.array([[np.sin(t)]]), np.zeros((1, 3)), None),
            name="final-forced",
        ),
    }
    return GalleryProblem(
        name="forced-mass",
        dynamics=OdeDynamics(model),
        events=[floor],
        costs=costs,
        default_cost="int-forced",
        rho0=ParameterVector(np.array([1.0, 0.8, 2.0]), ("h0", "e", "a")),
        t_span=(-0.4, 1.6),
    )


@pytest.fixture
def curved_mass():
    model = make_curved_mass_model()
    return model, OdeDynamics(model)


def cost_density_value(cost, dyn, t, q, v, rho) -> np.ndarray:
    """Resolved cost density at a state: acceleration (and multipliers for
    constrained dynamics) are recovered from the active dynamics."""
    vdot, mu = dyn.accel_and_multipliers(t, q, v, rho)
    return cost.g_value(t, q, v, vdot, rho, mu=mu)


def rel_err(a, b, floor=1e-30):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), floor))


def elementwise_close(a, b, tol):
    """|a - b| <= tol * max(1, |b|) elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))
