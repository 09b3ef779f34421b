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

from .model import (
    MultibodyModel,
    SingularMatrixError,
    COND_LIMIT,
    flapack,
    pivot_ratio,
)


class SingularKKTError(SingularMatrixError):
    pass


class ConstraintReleaseError(RuntimeError):
    """A one-sided constraint held with a multiplier of the wrong sign (a
    tether that pushes): its release is not supported."""


_getrf, _getrs = flapack.dgetrf, flapack.dgetrs


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
        # comparisons with NaN are false, so each test is written to fail on it
        if not (np.isfinite([self.alpha, self.xi, self.omega]).all()
                and self.alpha > 0 and self.omega > 0 and self.xi >= 0):
            raise ValueError("require finite alpha > 0, omega > 0, xi >= 0")


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


def _saddle_zeros(n: int, m: int, c: float) -> np.ndarray:
    """The (n + m) square saddle matrix with only its (2,2) block filled:
    the bytes of -c * eye(m), whose off-diagonal zeros are signed, or exact
    zeros for c = 0."""
    K = np.zeros((n + m, n + m))
    if c:
        K[n:, n:] = -c * np.eye(m)
    return K


def saddle_factor(M: np.ndarray, G: np.ndarray, c: float, what: str):
    """Factor the saddle matrix [[M, G^T], [G, -c I]] through checked_lu.

    c = 0 leaves the (2,2) block at exact zeros (the index-1 KKT matrix);
    c = 1/alpha is the regularized penalty form, whose solves stay well
    conditioned as alpha grows while the normal form M + alpha G^T G
    poisons every solve with cond * eps noise.
    """
    n, m = M.shape[0], G.shape[0]
    K = _saddle_zeros(n, m, c)
    K[:n, :n] = M
    K[:n, n:] = G.T
    K[n:, :n] = G
    return checked_lu(K, what)


class _SaddleDynamics:
    """Constrained dynamics as one saddle-point system

        [[M, G^T], [G, -c I]] [vdot; mu] = [F; b],    G = phi_q.

    Subclasses set the regularization ``_c`` and the bottom source b with
    its partials; everything else is shared.  ``model`` is the constrained
    model itself (events and residuals need its constraint set).

    Each K starts as a copy of the object's read-only template, built once
    with the blocks that do not depend on the state: -c I and, under
    ``mass_constant``, M (read at t = 0 and the zero state and
    parameters).  An object holds no per-call state, so threads may share
    it: each call factors its own copy at its own state and hands back
    what it solved.
    """

    _c = 0.0
    _what = "KKT matrix"

    def __init__(self, model: MultibodyModel):
        if model.constraints is None:
            raise ValueError(f"{type(self).__name__} needs a constrained model")
        self.model = model
        self.dims = model.dims
        n = self.dims.n
        K = _saddle_zeros(n, model.constraints.m, self._c)
        if model.mass_constant:
            K[:n, :n] = model.mass_at(0.0, np.zeros(n), np.zeros(self.dims.p))
        K.flags.writeable = False
        self._template = K

    def _saddle_lu(self, t, q, rho):
        """(G, solve): G = phi_q and the checked LU solve of K at (t, q, rho),
        factored on a copy of the template with G (and M unless constant)
        written in."""
        model, n = self.model, self.dims.n
        G = model.constraints.jac_q(t, q, rho)
        K = self._template.copy()
        if not model.mass_constant:
            K[:n, :n] = model.mass_at(t, q, rho)
        K[:n, n:] = G.T
        K[n:, :n] = G
        return G, checked_lu(K, self._what)

    def _solve(self, t, q, v, rho, saddle=None):
        """(vdot, mu) at one state from one saddle solve, on the factor
        ``saddle = (G, solve)`` of ``_saddle_lu`` at the same state if given:
        [F; b] is filled into one vector and solved."""
        model, cons, n = self.model, self.model.constraints, self.dims.n
        G, solve = saddle or self._saddle_lu(t, q, rho)
        rhs = np.empty(n + cons.m)
        rhs[n:] = self._source(t, q, v, rho, G, cons.accel_rhs(t, q, v, rho))
        rhs[:n] = model.force_at(t, q, v, rho)
        sol = solve(rhs)
        return sol[:n], sol[n:]

    def _assemble_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        """(vdot, mu, f_y, mu_y) at one state: the Jacobian of the map
        (q, v, rho) -> (vdot, mu), the partials of the saddle solve by
        ``differentiate_saddle``, as the (n, 2n + p) block f_y and the
        (m, 2n + p) block mu_y over the columns [q | v | rho], the two row
        blocks of one solution.  Its analytic route factors K once, solves
        (vdot, mu) on that factor unless given (as the sweeps read them from
        the forward pass's stage record) and stacks one ``force_jacobians``
        evaluation over the source partials; central differences solve at
        the perturbed states, and at this one only when no solution is given.
        """
        model, cons, n = self.model, self.model.constraints, self.dims.n

        def rhs_partials():
            nonlocal vdot, mu
            saddle = self._saddle_lu(t, q, rho)
            if mu is None:
                vdot, mu = self._solve(t, q, v, rho, saddle)
            G, solve = saddle
            rhs = np.vstack([model.force_jacobians(t, q, v, rho),
                             self._source_partials(t, q, v, rho, G, cons.qq_action(t, q, rho, v))])
            return solve, vdot, mu, rhs

        sol = differentiate_saddle(model, t, q, v, rho,
                                   lambda *z: np.concatenate(self._solve(t, *z)), rhs_partials)
        if mu is None:  # central differences solve at the perturbed states only
            vdot, mu = self._solve(t, q, v, rho)
        return vdot, mu, sol[:n], sol[n:]


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

    The coefficients 2 xi omega and omega^2 of s are formed once, negated:
    b and its partials are sums of negated terms, bitwise the negated sums
    (IEEE negation is exact and rounding is symmetric).
    """

    _what = "extended mass matrix (augmented)"

    def __init__(self, model: MultibodyModel, pcfg: PenaltyConfig | None = None):
        self.pcfg = pcfg or PenaltyConfig()
        self._c = 1.0 / self.pcfg.alpha
        self._neg_damp = -(2.0 * self.pcfg.xi * self.pcfg.omega)  # -2 xi omega
        self._neg_stiff = -(self.pcfg.omega ** 2)                 # -omega^2
        super().__init__(model)

    def _source(self, t, q, v, rho, G, C):
        """b = -s, s = -C + 2 xi omega phi_d + omega^2 phi, from G = phi_q and
        the acceleration-constraint right side C."""
        return (C + self._neg_damp * (G @ v)
                + self._neg_stiff * self.model.constraints.value(t, q, rho))

    def _source_partials(self, t, q, v, rho, G, H_v):
        """b_y on the analytic route, where phi_q does not depend on rho: one
        (m, 2n + p) block over the columns [q | v | rho]."""
        return np.concatenate((self._neg_damp * H_v + self._neg_stiff * G,
                               -2.0 * H_v + self._neg_damp * G,
                               self._neg_stiff * self.model.constraints.jac_rho(t, q, rho)),
                              axis=1)

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
    constraint is replaced by phi_q vdot = C, i.e. c = 0 and b = C, whose
    partials in q and rho are zero."""

    def _source(self, t, q, v, rho, G, C):
        return C

    def _source_partials(self, t, q, v, rho, G, H_v):
        n = self.dims.n
        b_y = np.zeros((H_v.shape[0], 2 * n + self.dims.p))
        b_y[:, n:2 * n] = -2.0 * H_v
        return b_y

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
            f"{mu[worst]:.3g} < 0 on the segment "
            f"[{dense.node_times[0]:.6g}, {dense.node_times[-1]:.6g}]: "
            f"the constraint would push, and its release is not supported")


def differentiate_saddle(model: MultibodyModel, t, q, v, rho, solve_at, rhs_partials):
    """Partials in (q, v, rho) of the solution s = [x; mu] of a saddle system

        K [x; mu] = [a; b],    K = [[M, G^T], [G, -c I]],    G = phi_q,

    with K a function of (t, q, rho) and [a; b] one of (t, q, v, rho):

        K s_z = [a_z - M_z x - d(G^T mu)/dz ; b_z - d(G x)/dz].

    Analytic when the model's constraint set declares its constant
    ``hessian`` (phi_q affine in q and independent of rho, so that the G
    terms exist in q alone): ``rhs_partials()`` returns (solve, x, mu, rhs),
    K's solve, the solution and [a_z; b_z] as one (n + m, 2n + p) array over
    the columns [q | v | rho], whose K_z s terms are subtracted in place

        z = q:    [a_q - M_q x - qqT(mu) ; b_q - qq(x)]
        z = v:    [a_v ; b_v]
        z = rho:  [a_rho - M_rho x ; b_rho]

    (M_z by ``MultibodyModel.subtract_mass_partials``) before one solve.
    qqT(mu) = d(phi_q^T mu)/dq is the mu-weighted sum of the Hessians,
    contracted here and nowhere else; qq(x) = d(phi_q x)/dq contracts the
    other view, as ``qq_action`` does.  Any other constraint set takes
    central differences of ``solve_at(q, v, rho) -> s``, and
    ``rhs_partials`` is not called.  Returns s_z as one (n + m, 2n + p)
    array.
    """
    cons = model.constraints
    if cons.hessian is None:
        from .model import fd_jacobian as _fd

        return np.hstack([_fd(lambda x: solve_at(x, v, rho), q),
                          _fd(lambda x: solve_at(q, x, rho), v),
                          _fd(lambda x: solve_at(q, v, x), rho)])
    factor, x, mu, rhs = rhs_partials()
    n = model.dims.n
    model.subtract_mass_partials(t, q, rho, x, rhs[:n])
    rhs[:n, :n] -= (mu @ cons._hess_flat).reshape(n, n)
    rhs[n:, :n] -= (cons._hess_rows @ x).reshape(cons.m, n)
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

