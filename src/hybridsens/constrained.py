"""Constrained-dynamics formulations.

Two routes to the accelerations of a holonomically constrained system, both
one saddle-point system [[M, G^T], [G, -c I]] [vdot; mu] = [F; b] with
G = phi_q:

* Penalty ODE (c = 1/alpha, b = -s): the constraint reactions are
  approximated by stiff, critically-damped restoring terms s; the system
  integrates as a plain ODE and mu is an a-posteriori estimate.
* Index-1 DAE (c = 0, b = C): the position constraint is replaced by its
  second time derivative phi_q vdot = C, and mu are the exact multipliers.

The momentum-level KKT solve of an inelastic capture lives here too, and
``differentiate_saddle`` gives the partials of both kinds of saddle solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    MultibodyModel,
    SingularMatrixError,
    COND_LIMIT,
    pivot_ratio,
)


class SingularKKTError(SingularMatrixError):
    pass


class ConstraintReleaseError(RuntimeError):
    """A one-sided constraint held with a multiplier of the wrong sign (a
    tether that pushes): its release is not supported."""


_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1)),))


def checked_lu(A: np.ndarray, what: str):
    """LU-factorize A (partial pivoting) and return a solve closure.

    Refuses matrices whose reciprocal pivot ratio suggests rank deficiency;
    the error names the offending block and a condition estimate.  Factor
    and solve call LAPACK's getrf/getrs directly: the results are scipy's
    ``lu_factor``/``lu_solve`` bitwise, without their per-call wrapper cost.
    The getrs wrapper shifts the pivots in place with the GIL released, so
    each solve passes its own copy: threads may solve with one factor.
    """
    A = np.asarray(A, dtype=float)
    lu, piv, info = _getrf(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf ({what})")
    if not pivot_ratio(lu) <= COND_LIMIT:  # a NaN ratio is refused too
        d = np.abs(np.diag(lu))
        raise SingularKKTError(
            f"{what} numerically singular (pivot ratio ~{d.max() / max(d.min(), 1e-300):.3g})"
        )

    def solve(B):
        x, info = _getrs(lu, piv.copy(), B)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs ({what})")
        return x

    return solve


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty-formulation coefficients.

    alpha scales the constraint stiffness (scalar, applied as alpha * I);
    omega and xi set the frequency and damping of the violation dynamics.
    The defaults are the classical stabilized-penalty values.
    """

    alpha: float = 1e7
    xi: float = 1.0
    omega: float = 10.0

    def __post_init__(self):
        if self.alpha <= 0 or self.omega <= 0 or self.xi < 0:
            raise ValueError("require alpha > 0, omega > 0, xi >= 0")


@dataclass
class ConstraintResiduals:
    """Position / velocity constraint residual time series of one run."""

    times: tuple
    pos: tuple
    vel: tuple

    def max_pos(self) -> float:
        return max(self.pos, default=0.0)

    def max_vel(self) -> float:
        return max(self.vel, default=0.0)


def saddle_factor(M: np.ndarray, G: np.ndarray, c: float, what: str):
    """Factor the saddle matrix [[M, G^T], [G, -c I]] through checked_lu.

    c = 0 leaves the (2,2) block at exact zeros (the index-1 KKT matrix);
    c = 1/alpha is the regularized penalty form, whose solves stay well
    conditioned as alpha grows while the normal form M + alpha G^T G
    poisons every solve with cond * eps noise.
    """
    n, m = M.shape[0], G.shape[0]
    K = np.empty((n + m, n + m))
    K[:n, :n] = M
    K[:n, n:] = G.T
    K[n:, :n] = G
    if c:
        # the bytes of -c * eye(m): -c * 0.0 is a signed zero
        K[n:, n:] = -c * 0.0
        K.flat[n * (n + m + 1)::n + m + 1] = -c
    else:
        K[n:, n:] = 0.0
    return checked_lu(K, what)


class _SaddleDynamics:
    """Constrained dynamics as one saddle-point system

        [[M, G^T], [G, -c I]] [vdot; mu] = [F; b],    G = phi_q.

    Subclasses set the regularization ``_c`` and the bottom source b with
    its partials; everything else is shared.  ``model`` is the constrained
    model itself (events and residuals need its constraint set).  An object
    holds no per-call state, so threads may share it: each call factors K
    at its own state and hands back what it solved.
    """

    _c = 0.0
    _what = "KKT matrix"

    def __init__(self, model: MultibodyModel):
        if model.constraints is None or model.constraints.m == 0:
            raise ValueError(f"{type(self).__name__} needs a constrained model")
        self.model = model
        self.dims = model.dims

    def _factor(self, t, q, rho, G):
        return saddle_factor(self.model.mass_at(t, q, rho), G, self._c, self._what)

    def _solve_on(self, factor, t, q, v, rho, G):
        """(vdot, mu) at one state on its saddle factor."""
        b = self._source(t, q, v, rho, G, self.model.constraints.accel_rhs(t, q, v, rho))
        sol = factor(np.concatenate([self.model.force_at(t, q, v, rho), b]))
        return sol[:self.dims.n], sol[self.dims.n:]

    def _solve(self, t, q, v, rho):
        """(vdot, mu) at one state from one saddle solve."""
        G = self.model.constraints.jac_q(t, q, rho)
        return self._solve_on(self._factor(t, q, rho, G), t, q, v, rho, G)

    def _assemble_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        """(vdot, mu, (f_q, f_v, f_rho), (mu_q, mu_v, mu_rho)) at one state:
        the Jacobian blocks of the map (q, v, rho) -> (vdot, mu) are
        ``differentiate_saddle`` of the saddle solve, whose right side
        [F; b] has the partials [F_z; b_z] from one ``force_jacobians``
        evaluation and the source partials.  Given the state's solution
        (vdot, mu), as the sweeps read it from the forward pass's stage
        record, K is factored for the partials only; given neither, they
        are solved on that same factor.
        """
        model, cons, n = self.model, self.model.constraints, self.dims.n

        def rhs_partials():
            nonlocal vdot, mu
            G = cons.jac_q(t, q, rho)
            factor = self._factor(t, q, rho, G)
            if mu is None:
                vdot, mu = self._solve_on(factor, t, q, v, rho, G)
            rhs = np.empty((n + cons.m, 2 * n + self.dims.p))
            rhs[:n, :n], rhs[:n, n:2 * n], rhs[:n, 2 * n:] = model.force_jacobians(t, q, v, rho)
            rhs[n:, :n], rhs[n:, n:2 * n], rhs[n:, 2 * n:] = self._source_partials(
                t, q, v, rho, G, cons.qq_action(t, q, rho, v))
            return factor, vdot, mu, rhs

        sol = differentiate_saddle(model, t, q, v, rho,
                                   lambda *z: np.concatenate(self._solve(t, *z)), rhs_partials)
        if mu is None:  # central differences solve at the perturbed states only
            vdot, mu = self._solve(t, q, v, rho)
        blocks = (slice(0, n), slice(n, 2 * n), slice(2 * n, None))
        return vdot, mu, tuple(sol[:n, z] for z in blocks), tuple(sol[n:, z] for z in blocks)


class PenaltyDynamics(_SaddleDynamics):
    """Penalty-ODE dynamics of a constrained model.

    The extended system Mbar vdot = Fbar, Mbar = M + alpha G^T G and
    Fbar = F - alpha G^T s with s the violation restoring terms, is solved
    as the saddle system with c = 1/alpha and b = -s, never through the
    ill-conditioned normal form.  The second block is the multiplier
    estimate mu* = alpha (G vdot + s); the route integrates as an ODE, so
    the multipliers are not states, but ``accel_and_multipliers`` and
    ``jacobians`` hand out mu* and its partials as the DAE does its exact
    multipliers.
    """

    _what = "extended mass matrix (augmented)"

    def __init__(self, model: MultibodyModel, pcfg: PenaltyConfig | None = None):
        self.pcfg = pcfg or PenaltyConfig()
        self._c = 1.0 / self.pcfg.alpha
        super().__init__(model)

    def _source(self, t, q, v, rho, G, C):
        """b = -s, s = -C + 2 xi omega phi_d + omega^2 phi, from G = phi_q and
        the acceleration-constraint right side C."""
        cons = self.model.constraints
        phidot = G @ v
        return -(-C + 2.0 * self.pcfg.xi * self.pcfg.omega * phidot
                 + self.pcfg.omega ** 2 * cons.value(t, q, rho))

    def _source_partials(self, t, q, v, rho, G, H_v):
        """(b_q, b_v, b_rho) on the analytic route, where phi_q does not
        depend on rho."""
        xi, om = self.pcfg.xi, self.pcfg.omega
        return (-(2.0 * xi * om * H_v + om ** 2 * G),
                -(2.0 * H_v + 2.0 * xi * om * G),
                -(om ** 2 * self.model.constraints.jac_rho(t, q, rho)))

    # the four calls are defined on each class, where perfbench/spans.py
    # patches them
    def accel(self, t, q, v, rho) -> np.ndarray:
        return self.accel_and_multipliers(t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        return self._solve(t, q, v, rho)

    def jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self._assemble_jacobians(t, q, v, rho, vdot, mu)

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self.jacobians(t, q, v, rho, vdot, mu)[3]


class DaeDynamics(_SaddleDynamics):
    """Index-1 constrained dynamics with exact multipliers: the position
    constraint is replaced by phi_q vdot = C, i.e. c = 0 and b = C."""

    def _source(self, t, q, v, rho, G, C):
        return C

    def _source_partials(self, t, q, v, rho, G, H_v):
        return np.zeros_like(G), -2.0 * H_v, np.zeros((G.shape[0], self.dims.p))

    def accel(self, t, q, v, rho) -> np.ndarray:
        return self.accel_and_multipliers(t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        return self._solve(t, q, v, rho)

    def jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self._assemble_jacobians(t, q, v, rho, vdot, mu)

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self.jacobians(t, q, v, rho, vdot, mu)[3]


def check_one_sided(dyn, dense) -> None:
    """Refuse a smooth segment on which a one-sided row of the model's
    constraint set carried mu_i < 0 at a recorded stage, whatever the
    dynamics class.  Reads the segment's stored stage multipliers
    (``DenseSegment.multipliers``) and solves nothing; a segment recorded
    without multiplier columns (``OdeDynamics``) has none to check."""
    cons = dyn.model.constraints
    if cons is None or not cons.one_sided or dense.multipliers.shape[1] == 0:
        return
    rows = list(cons.one_sided)
    mu = dense.multipliers[:, rows]
    if (mu < 0.0).any():
        worst = np.unravel_index(np.argmin(mu), mu.shape)
        raise ConstraintReleaseError(
            f"one-sided constraint row {rows[worst[1]]} reached multiplier "
            f"{mu[worst]:.3g} < 0 on the segment [{dense.t_start:.6g}, {dense.t_end:.6g}]: "
            f"the constraint would push, and its release is not supported")


def differentiate_saddle(model: MultibodyModel, t, q, v, rho, solve_at, rhs_partials):
    """Partials in (q, v, rho) of the solution s = [x; mu] of a saddle system

        K [x; mu] = [a; b],    K = [[M, G^T], [G, -c I]],    G = phi_q,

    with K a function of (t, q, rho) and [a; b] one of (t, q, v, rho):

        K s_z = [a_z - M_z x - d(G^T mu)/dz ; b_z - d(G x)/dz].

    Analytic when the model's constraint set declares its constant
    ``hessian`` (phi_q affine in q and independent of rho), so that the G
    terms exist in q alone:

        z = q:    [a_q - M_q x - qqT(mu) ; b_q - qq(x)]
        z = v:    [a_v ; b_v]
        z = rho:  [a_rho - M_rho x ; b_rho].

    ``rhs_partials()`` returns (solve, x, mu, rhs): K's solve, the solution
    and [a_z; b_z] as one (n + m, 2n + p) array over the columns
    [q | v | rho], from which the K_z terms are subtracted in place (M_z
    skipped under ``mass_constant``) before one solve.  Any other constraint
    set takes central differences of ``solve_at(q, v, rho) -> s``.  Returns
    s_z as one (n + m, 2n + p) array.
    """
    cons, n = model.constraints, model.dims.n
    if cons.hessian is None:
        from .model import fd_jacobian as _fd

        return np.hstack([_fd(lambda x: solve_at(x, v, rho), q),
                          _fd(lambda x: solve_at(q, x, rho), v),
                          _fd(lambda x: solve_at(q, v, x), rho)])
    factor, x, mu, rhs = rhs_partials()
    top, bottom = rhs[:n], rhs[n:]
    if not model.mass_constant:
        M_q, M_rho = model.mass_jacobians(t, q, rho, x)
        top[:, :n] -= M_q
        top[:, 2 * n:] -= M_rho
    top[:, :n] -= cons.qqT_action(t, q, rho, mu)
    bottom[:, :n] -= cons.qq_action(t, q, rho, x)
    return factor(rhs)


def impulse_system(model: MultibodyModel, t_eve, q, v_minus, rho):
    """(M, solve, [v+; dmu]) of the momentum-level KKT solve of an inelastic
    constraint engagement,

        [[M, G^T], [G, 0]] [v+; dmu] = [M v-; 0],

    so that v+ carries the pre-event momentum projected onto the new
    velocity-constraint manifold.  Kinetic energy never increases across
    this projection.
    """
    M = model.mass_at(t_eve, q, rho)
    factor = saddle_factor(M, model.constraints.jac_q(t_eve, q, rho), 0.0, "impulse KKT matrix")
    return M, factor, factor(np.concatenate([M @ v_minus, np.zeros(model.constraints.m)]))


def impulse_solve(model: MultibodyModel, t_eve, q, v_minus, rho):
    """(v+, dmu) of ``impulse_system``."""
    sol = impulse_system(model, t_eve, q, v_minus, rho)[2]
    return sol[:model.dims.n], sol[model.dims.n:]
