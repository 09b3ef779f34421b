"""Constrained-dynamics formulations.

Two routes to the accelerations of a holonomically constrained system, both
one saddle-point system [[M, G^T], [G, -c I]] [vdot; mu] = [F; b] with
G = phi_q:

* Penalty ODE (c = 1/alpha, b = -s): the constraint reactions are
  approximated by stiff, critically-damped restoring terms s; the system
  integrates as a plain ODE and mu is an a-posteriori estimate.
* Index-1 DAE (c = 0, b = C): the position constraint is replaced by its
  second time derivative phi_q vdot = C, and mu are the exact multipliers.

The impulsive momentum-level KKT solve shared with the event machinery
lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    ConstraintSet,
    MultibodyModel,
    SingularMatrixError,
    COND_LIMIT,
)


class SingularKKTError(SingularMatrixError):
    pass


_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1)),))


def checked_lu(A: np.ndarray, what: str):
    """LU-factorize A (partial pivoting) and return a solve closure.

    Refuses matrices whose reciprocal pivot ratio suggests rank deficiency;
    the error names the offending block and a condition estimate.  Factor
    and solve call LAPACK's getrf/getrs directly: the results are scipy's
    ``lu_factor``/``lu_solve`` bitwise, without their per-call wrapper cost.
    """
    A = np.asarray(A, dtype=float)
    lu, piv, info = _getrf(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf ({what})")
    d = np.abs(np.diag(lu))
    if d.min() == 0.0 or d.max() / d.min() > COND_LIMIT:
        raise SingularKKTError(
            f"{what} numerically singular (pivot ratio ~{d.max() / max(d.min(), 1e-300):.3g})"
        )

    def solve(B):
        x, info = _getrs(lu, piv, B)
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

    times: list
    pos: list
    vel: list

    @classmethod
    def empty(cls) -> "ConstraintResiduals":
        return cls([], [], [])

    def append(self, t: float, pos_res: float, vel_res: float) -> None:
        self.times.append(float(t))
        self.pos.append(float(pos_res))
        self.vel.append(float(vel_res))

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
    K = np.zeros((n + m, n + m))
    K[:n, :n] = M
    K[:n, n:] = G.T
    K[n:, :n] = G
    if c:
        K[n:, n:] = -c * np.eye(m)
    return checked_lu(K, what)


def _state_key(t, q, v, rho):
    return (t, q.tobytes(), v.tobytes(), rho.tobytes())


class _SaddleDynamics:
    """Constrained dynamics as one saddle-point system

        [[M, G^T], [G, -c I]] [vdot; mu] = [F; b],    G = phi_q.

    Subclasses set the regularization ``_c`` and the bottom source b with
    its partials; everything else is shared.  ``model`` is the constrained
    model itself (events and residual monitoring need its constraint set).
    """

    _c = 0.0
    _what = "KKT matrix"

    def __init__(self, model: MultibodyModel):
        if model.constraints is None or model.constraints.m == 0:
            raise ValueError(f"{type(self).__name__} needs a constrained model")
        self.model = model
        self.dims = model.dims
        # (state key, (vdot, mu, factor)) and (state key, Jacobian blocks),
        # each read and replaced as one tuple so that threads sharing this
        # object never pair one state's key with another's solution
        self._memo = (None, None)
        self._jac_memo = (None, None)

    def _solve(self, t, q, v, rho):
        """(vdot, mu, factor) at one state from one saddle solve, memoized on
        (t, q, v, rho): the Jacobian solve at the state an acceleration was
        just computed at reuses its solution and factorization.  vdot and mu
        are read-only views, so no caller can alter the memoized values."""
        key = _state_key(t, q, v, rho)
        memo_key, solved = self._memo
        if memo_key != key:
            cons, n = self.model.constraints, self.dims.n
            G = cons.jac_q(t, q, rho)
            factor = saddle_factor(self.model.mass_at(t, q, rho), G, self._c, self._what)
            b = self._source(t, q, v, rho, G, cons.accel_rhs(t, q, v, rho))
            sol = factor(np.concatenate([self.model.force_at(t, q, v, rho), b]))
            sol.flags.writeable = False
            solved = (sol[:n], sol[n:], factor)
            self._memo = (key, solved)
        return solved

    def multipliers(self, t, q, v, rho) -> np.ndarray:
        """The m multipliers of the saddle solve at one state: the estimate
        mu* of the penalty form, the exact multipliers of the DAE.  Right
        after ``accel_and_multipliers`` at the same state this is a memo
        hit; the forward pass records it for every accepted stage."""
        return self._solve(t, q, v, rho)[1]

    def _all_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        """``_assemble_jacobians`` memoized on (t, q, v, rho): a cost that
        depends on the multipliers asks for the f-blocks and the mu-blocks
        at one state, and both come from one assembly.  The blocks are
        read-only."""
        key = _state_key(t, q, v, rho)
        memo_key, blocks = self._jac_memo
        if memo_key != key:
            blocks = self._assemble_jacobians(t, q, v, rho, vdot, mu)
            for block in blocks[0] + blocks[1]:
                block.flags.writeable = False
            self._jac_memo = (key, blocks)
        return blocks

    def _assemble_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        """Jacobian blocks ((f_q, f_v, f_rho), (mu_q, mu_v, mu_rho)) of the
        map (q, v, rho) -> (vdot, mu), from the differentiated system

            [f_z; mu_z] = K^-1 [F_z - M_z vdot - d(G^T mu)/dz ; b_z - d(G vdot)/dz].

        Analytic when the constraint set declares its constant ``hessian``
        (phi_q affine in q and independent of rho): every d(H_v)/dq and
        d(phi_q)/drho term then vanishes and

            z = q:    [F_q - M_q vdot - qqT(mu) ; b_q - qq(vdot)]
            z = v:    [F_v ; b_v]
            z = rho:  [F_rho - M_rho vdot ; b_rho]

        with H_v = d(G v)/dq, written into one right-side array (the M_z
        terms skipped under ``mass_constant``) and solved at once with the
        state's factor; the force and mass partials come from one
        ``force_jacobians`` and one ``mass_jacobians`` evaluation.
        Given the state's solution (vdot, mu), as the sweeps read it from
        the forward pass's stage record, K is factored here unless ``_solve``
        holds this state's factor; otherwise the solution and factor come
        from ``_solve``.  Any other constraint set takes central differences
        of (vdot, mu).
        """
        model, cons, n = self.model, self.model.constraints, self.dims.n
        if cons.hessian is None:
            from .model import fd_jacobian as _fd

            def stacked(qq, vv, rr):
                return np.concatenate(self._solve(t, qq, vv, rr)[:2])

            J = (_fd(lambda x: stacked(x, v, rho), q),
                 _fd(lambda x: stacked(q, x, rho), v),
                 _fd(lambda x: stacked(q, v, x), rho))
            return tuple(j[:n] for j in J), tuple(j[n:] for j in J)
        G = cons.jac_q(t, q, rho)
        memo_key, solved = self._memo
        if mu is None:
            vdot, mu, factor = self._solve(t, q, v, rho)
        elif memo_key == _state_key(t, q, v, rho):
            factor = solved[2]
        else:
            factor = saddle_factor(model.mass_at(t, q, rho), G, self._c, self._what)
        F_q, F_v, F_rho = model.force_jacobians(t, q, v, rho)
        b_q, b_v, b_rho = self._source_partials(t, q, v, rho, G, cons.qq_action(t, q, rho, v))
        rhs = np.empty((n + cons.m, 2 * n + self.dims.p))
        top, bottom = rhs[:n], rhs[n:]
        top[:, :n] = F_q
        top[:, n:2 * n] = F_v
        top[:, 2 * n:] = F_rho
        if not model.mass_constant:
            M_q, M_rho = model.mass_jacobians(t, q, rho, vdot)
            top[:, :n] -= M_q
            top[:, 2 * n:] -= M_rho
        top[:, :n] -= cons.qqT_action(t, q, rho, mu)
        np.subtract(b_q, cons.qq_action(t, q, rho, vdot), out=bottom[:, :n])
        bottom[:, n:2 * n] = b_v
        bottom[:, 2 * n:] = b_rho
        sol = factor(rhs)
        blocks = (slice(0, n), slice(n, 2 * n), slice(2 * n, None))
        return tuple(sol[:n, z] for z in blocks), tuple(sol[n:, z] for z in blocks)

    def residuals(self, t, q, v, rho):
        cons = self.model.constraints
        pos = float(np.max(np.abs(cons.value(t, q, rho))))
        vel = float(np.max(np.abs(cons.velocity_residual(t, q, v, rho))))
        return pos, vel


class PenaltyDynamics(_SaddleDynamics):
    """Penalty-ODE dynamics of a constrained model.

    The extended system Mbar vdot = Fbar, Mbar = M + alpha G^T G and
    Fbar = F - alpha G^T s with s the violation restoring terms, is solved
    as the saddle system with c = 1/alpha and b = -s, never through the
    ill-conditioned normal form.  The second block is the multiplier
    estimate mu* = alpha (G vdot + s); the route integrates as an ODE, so
    the multipliers are not states.
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

    def accel(self, t, q, v, rho) -> np.ndarray:
        return self._solve(t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        return self._solve(t, q, v, rho)[0], None

    def jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self._all_jacobians(t, q, v, rho, vdot, mu)[0]

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return None


class DaeDynamics(_SaddleDynamics):
    """Index-1 constrained dynamics with exact multipliers: the position
    constraint is replaced by phi_q vdot = C, i.e. c = 0 and b = C."""

    def _source(self, t, q, v, rho, G, C):
        return C

    def _source_partials(self, t, q, v, rho, G, H_v):
        return np.zeros_like(G), -2.0 * H_v, np.zeros((G.shape[0], self.dims.p))

    def accel(self, t, q, v, rho) -> np.ndarray:
        return self._solve(t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        return self._solve(t, q, v, rho)[:2]

    def jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self._all_jacobians(t, q, v, rho, vdot, mu)[0]

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return self._all_jacobians(t, q, v, rho, vdot, mu)[1]

    def multiplier_sensitivity(self, t, q, v, rho, Q, V):
        """Algebraic multiplier sensitivity Lambda = gq Q + gv V + grho."""
        gq, gv, grho = self.multiplier_jacobians(t, q, v, rho)
        return gq @ Q + gv @ V + grho


def impulse_solve(model: MultibodyModel, t_eve, q, v_minus, rho,
                  cons: ConstraintSet | None = None):
    """Momentum-level KKT solve for an inelastic constraint engagement.

    Solves [[M, G^T], [G, 0]] [v+; dmu] = [M v-; 0] so that v+ carries
    the pre-event momentum projected onto the new velocity-constraint
    manifold.  Kinetic energy never increases across this projection.
    """
    cons = cons or model.constraints
    n = model.dims.n
    M = model.mass_at(t_eve, q, rho)
    factor = saddle_factor(M, cons.jac_q(t_eve, q, rho), 0.0, "impulse KKT matrix")
    sol = factor(np.concatenate([M @ v_minus, np.zeros(cons.m)]))
    return sol[:n], sol[n:]
