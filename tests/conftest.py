import numpy as np
import pytest

from hybridsens.core import Dimensions
from hybridsens.gallery import PENDULUM_LENGTH, pendulum_model
from hybridsens.model import InitialConditions, MultibodyModel, OdeDynamics


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
