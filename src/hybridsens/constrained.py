"""Constrained-dynamics formulations.

Two routes to the accelerations of a holonomically constrained system:

* Penalty ODE: the constraint reactions are approximated by stiff,
  critically-damped restoring terms folded into an extended mass matrix and
  force vector; the system integrates as a plain ODE and the multipliers
  are estimated a posteriori.
* Index-1 DAE: the position constraint is replaced by its second time
  derivative and the accelerations and exact multipliers come from one
  symmetric saddle-point (KKT) solve.

The impulsive momentum-level KKT solve shared with the event machinery
lives here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    ConstraintSet,
    MultibodyModel,
    OdeDynamics,
    SingularMatrixError,
    COND_LIMIT,
)


class SingularKKTError(SingularMatrixError):
    pass


def checked_lu(A: np.ndarray, what: str):
    """LU-factorize A (partial pivoting) and return a solve closure.

    Refuses matrices whose reciprocal pivot ratio suggests rank deficiency;
    the error names the offending block and a condition estimate.
    """
    A = np.asarray(A, dtype=float)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularKKTError(f"{what} singular (cond~{np.linalg.cond(A):.3g})") from exc
    d = np.abs(np.diag(lu))
    if d.min() == 0.0 or d.max() / d.min() > COND_LIMIT:
        raise SingularKKTError(
            f"{what} numerically singular (pivot ratio ~{d.max() / max(d.min(), 1e-300):.3g})"
        )

    def solve(B):
        return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)

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


def _augmented_factor(M: np.ndarray, G: np.ndarray, alpha: float):
    """Factor the regularized saddle matrix [[M, G^T], [G, -I/alpha]].

    Solving (M + G^T alpha G) X = top through this form stays well
    conditioned as alpha grows, while the normal form's condition number
    scales with alpha and poisons every solve with cond * eps noise.
    """
    n, m = M.shape[0], G.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = M
    K[:n, n:] = G.T
    K[n:, :n] = G
    K[n:, n:] = -np.eye(m) / alpha
    return checked_lu(K, "extended mass matrix (augmented)"), n, m


def _augmented_solve_with(factor, n: int, m: int, top: np.ndarray,
                          bottom: np.ndarray | None = None):
    """Solve with a factored saddle matrix; Y equals alpha (G X - bottom)."""
    rhs = np.zeros((n + m,) + top.shape[1:])
    rhs[:n] = top
    if bottom is not None:
        rhs[n:] = bottom
    sol = factor(rhs)
    return sol[:n], sol[n:]


class PenaltyDynamics:
    """Penalty-ODE dynamics of a constrained model.

    The extended system is Mbar vdot = Fbar with Mbar = M + alpha G^T G and
    Fbar = F - alpha G^T s, G = phi_q and s the violation restoring terms.
    Exposes the same interface as OdeDynamics; ``model`` is the constrained
    model itself (events and residual monitoring need its constraint set).
    All linear solves against Mbar go through the augmented saddle form,
    never the ill-conditioned normal form.
    """

    def __init__(self, model: MultibodyModel, pcfg: PenaltyConfig | None = None):
        if model.constraints is None:
            raise ValueError("penalty dynamics needs a constrained model")
        self.model = model
        self.pcfg = pcfg or PenaltyConfig()
        self.dims = model.dims
        # (point key, factor), read and replaced as one tuple so that threads
        # sharing this object never pair one point's key with another's factor
        self._memo = (None, None)

    @property
    def n_multipliers(self) -> int:
        return 0

    def _factored(self, t, q, rho, G):
        """Saddle factorization memoized on the (t, q, rho) point: the state
        and Jacobian solves of one right-hand-side evaluation share it."""
        key = (t, q.tobytes(), rho.tobytes())
        memo_key, factor = self._memo
        if memo_key != key:
            factor = _augmented_factor(self.model.mass_at(t, q, rho), G, self.pcfg.alpha)
            self._memo = (key, factor)
        return factor

    def _pen_source(self, t, q, v, rho, G, C):
        """s = -C + 2 xi omega phi_d + omega^2 phi, from G = phi_q and the
        acceleration-constraint right side C."""
        cons = self.model.constraints
        phidot = G @ v + cons.jac_t(t, q, rho)
        return (-C + 2.0 * self.pcfg.xi * self.pcfg.omega * phidot
                + self.pcfg.omega ** 2 * cons.value(t, q, rho))

    def accel(self, t, q, v, rho) -> np.ndarray:
        return self._accel_full(t, q, v, rho)[0]

    def _accel_full(self, t, q, v, rho):
        """(vdot, mu*) from one augmented solve; the second block is
        mu* = alpha (G vdot + s) = alpha (phi_dd + 2 xi omega phi_d + omega^2 phi)."""
        cons = self.model.constraints
        G = cons.jac_q(t, q, rho)
        s = self._pen_source(t, q, v, rho, G, cons.accel_rhs(t, q, v, rho))
        factor, n, m = self._factored(t, q, rho, G)
        return _augmented_solve_with(factor, n, m, self.model.force_at(t, q, v, rho), -s)

    def accel_and_multipliers(self, t, q, v, rho):
        # the penalty route is an ODE: multipliers are estimates, not states
        return self.accel(t, q, v, rho), None

    def jacobians(self, t, q, v, rho, vdot=None):
        """Extended-system Jacobians f_zeta = Mbar^-1 (Fbar_zeta - Mbar_zeta vdot).

        Analytic when the constraint set declares ``hessian_constant`` and
        ``scleronomic`` and phi_q does not depend on rho (assumed, not
        checked); every d(H_v)/dq and d(phi_q)/drho term then vanishes:

            rhs_q   = F_q - M_q vdot - alpha [qqT(s + G vdot)
                      + G^T (2 xi omega H_v + omega^2 G + qq(vdot))]
            rhs_v   = F_v - alpha G^T (2 H_v + 2 xi omega G)
            rhs_rho = F_rho - M_rho vdot
                      - alpha G^T (2 xi omega q_rho(v) + omega^2 phi_rho)

        with H_v = d(G v)/dq, all three solved at once through the augmented
        form.  Any other constraint set takes central differences of accel.
        """
        cons = self.model.constraints
        if not (cons.hessian_constant and cons.scleronomic):
            from .model import fd_jacobian as _fd
            return (_fd(lambda x: self.accel(t, x, v, rho), q),
                    _fd(lambda x: self.accel(t, q, x, rho), v),
                    _fd(lambda x: self.accel(t, q, v, x), rho))
        model = self.model
        a, xi, om = self.pcfg.alpha, self.pcfg.xi, self.pcfg.omega
        G = cons.jac_q(t, q, rho)
        H_v = cons.qq_action(t, q, rho, v)
        s = self._pen_source(t, q, v, rho, G, -(H_v @ v))
        factor, n, m = self._factored(t, q, rho, G)
        if vdot is None:
            vdot, _ = _augmented_solve_with(factor, n, m, model.force_at(t, q, v, rho), -s)
        rhs_q = (model.force_jac_q(t, q, v, rho) - model.mass_q_action(t, q, rho, vdot)
                 - a * (cons.qqT_action(t, q, rho, s + G @ vdot)
                        + G.T @ (2.0 * xi * om * H_v + om ** 2 * G
                                 + cons.qq_action(t, q, rho, vdot))))
        rhs_v = model.force_jac_v(t, q, v, rho) - a * (G.T @ (2.0 * H_v + 2.0 * xi * om * G))
        rhs_rho = (model.force_jac_rho(t, q, v, rho) - model.mass_rho_action(t, q, rho, vdot)
                   - a * (G.T @ (2.0 * xi * om * cons.q_rho_action(t, q, rho, v)
                                 + om ** 2 * cons.jac_rho(t, q, rho))))
        sol, _ = _augmented_solve_with(factor, n, m, np.hstack([rhs_q, rhs_v, rhs_rho]))
        return sol[:, :n], sol[:, n:2 * n], sol[:, 2 * n:]

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return None

    def multiplier_estimate(self, t, q, v, rho) -> np.ndarray:
        """mu* = alpha (phi_dd + 2 xi omega phi_d + omega^2 phi)."""
        return self._accel_full(t, q, v, rho)[1]

    def residuals(self, t, q, v, rho):
        cons = self.model.constraints
        pos = float(np.max(np.abs(cons.value(t, q, rho)))) if cons.m else 0.0
        vel = float(np.max(np.abs(cons.velocity_residual(t, q, v, rho)))) if cons.m else 0.0
        return pos, vel


# ---------------------------------------------------------------------------
# Index-1 DAE formulation
# ---------------------------------------------------------------------------


def _kkt_matrix(model: MultibodyModel, t, q, rho, cons: ConstraintSet | None = None) -> np.ndarray:
    cons = cons or model.constraints
    M = model.mass_at(t, q, rho)
    G = cons.jac_q(t, q, rho)
    m = G.shape[0]
    K = np.zeros((M.shape[0] + m, M.shape[0] + m))
    K[:M.shape[0], :M.shape[0]] = M
    K[:M.shape[0], M.shape[0]:] = G.T
    K[M.shape[0]:, :M.shape[0]] = G
    return K


def dae_solve(model: MultibodyModel, t, q, v, rho):
    """Accelerations and multipliers from the index-1 saddle-point system."""
    cons = model.constraints
    if cons is None or cons.m == 0:
        dyn = OdeDynamics(model)
        return dyn.accel(t, q, v, rho), np.zeros(0)
    n = model.dims.n
    K = _kkt_matrix(model, t, q, rho)
    rhs = np.concatenate([model.force_at(t, q, v, rho), cons.accel_rhs(t, q, v, rho)])
    sol = checked_lu(K, "KKT matrix")(rhs)
    return sol[:n], sol[n:]


def dae_jacobians(model: MultibodyModel, t, q, v, rho, vdot=None, mu=None):
    """Jacobian blocks of the index-1 acceleration/multiplier map.

    One KKT factorization serves all right-hand sides:

        [f_q]   = K^-1 [F_q - M_q vdot - d(G^T mu)/dq ; C_q - d(G vdot)/dq]
        [f_v]   = K^-1 [F_v                           ; C_v]
        [f_rho] = K^-1 [F_rho - M_rho vdot - d(G^T mu)/drho ; C_rho - d(G vdot)/drho]

    with the top n rows the acceleration blocks and the bottom m rows the
    multiplier blocks.  Returns ((fq, fv, frho), (gq, gv, grho)).
    """
    cons = model.constraints
    n, p, m = model.dims.n, model.dims.p, cons.m
    if vdot is None or mu is None:
        vdot, mu = dae_solve(model, t, q, v, rho)
    K = _kkt_matrix(model, t, q, rho)
    solve = checked_lu(K, "KKT matrix")

    top_q = (model.force_jac_q(t, q, v, rho) - model.mass_q_action(t, q, rho, vdot)
             - cons.qqT_action(t, q, rho, mu))
    bot_q = cons.accel_rhs_q(t, q, v, rho) - cons.qq_action(t, q, rho, vdot)
    top_v = model.force_jac_v(t, q, v, rho)
    bot_v = cons.accel_rhs_v(t, q, v, rho)
    top_r = (model.force_jac_rho(t, q, v, rho) - model.mass_rho_action(t, q, rho, vdot)
             - _qT_mu_rho(cons, t, q, rho, mu))
    bot_r = cons.accel_rhs_rho(t, q, v, rho) - cons.q_rho_action(t, q, rho, vdot)

    rhs = np.hstack([
        np.vstack([top_q, bot_q]),
        np.vstack([top_v, bot_v]),
        np.vstack([top_r, bot_r]),
    ])
    sol = solve(rhs)
    fq, fv, frho = sol[:n, :n], sol[:n, n:2 * n], sol[:n, 2 * n:]
    gq, gv, grho = sol[n:, :n], sol[n:, n:2 * n], sol[n:, 2 * n:]
    return (fq, fv, frho), (gq, gv, grho)


def _qT_mu_rho(cons: ConstraintSet, t, q, rho, mu) -> np.ndarray:
    """d(phi_q^T mu)/drho by central differences on the contraction."""
    from .model import fd_jacobian as _fd
    return _fd(lambda rr: cons.jac_q(t, q, rr).T @ mu, rho)


class DaeDynamics:
    """Index-1 constrained dynamics with exact multipliers."""

    def __init__(self, model: MultibodyModel):
        if model.constraints is None or model.constraints.m == 0:
            raise ValueError("DAE dynamics needs a constrained model")
        self.model = model
        self.dims = model.dims

    @property
    def n_multipliers(self) -> int:
        return self.model.constraints.m

    def accel(self, t, q, v, rho) -> np.ndarray:
        return dae_solve(self.model, t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        return dae_solve(self.model, t, q, v, rho)

    def jacobians(self, t, q, v, rho, vdot=None):
        (fq, fv, frho), _ = self._all_jacobians(t, q, v, rho, vdot)
        return fq, fv, frho

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        _, (gq, gv, grho) = self._all_jacobians(t, q, v, rho, vdot, mu)
        return gq, gv, grho

    def _all_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return dae_jacobians(self.model, t, q, v, rho, vdot=vdot, mu=mu)

    def multiplier_sensitivity(self, t, q, v, rho, Q, V):
        """Algebraic multiplier sensitivity Lambda = gq Q + gv V + grho."""
        gq, gv, grho = self.multiplier_jacobians(t, q, v, rho)
        return gq @ Q + gv @ V + grho

    def residuals(self, t, q, v, rho):
        cons = self.model.constraints
        pos = float(np.max(np.abs(cons.value(t, q, rho))))
        vel = float(np.max(np.abs(cons.velocity_residual(t, q, v, rho))))
        return pos, vel


def impulse_solve(model: MultibodyModel, t_eve, q, v_minus, rho,
                  cons: ConstraintSet | None = None):
    """Momentum-level KKT solve for an inelastic constraint engagement.

    Solves [[M, G^T], [G, 0]] [v+; dmu] = [M v-; -phi_t] so that v+ carries
    the pre-event momentum projected onto the new velocity-constraint
    manifold.  Kinetic energy never increases across this projection.
    """
    cons = cons or model.constraints
    n = model.dims.n
    M = model.mass_at(t_eve, q, rho)
    K = _kkt_matrix(model, t_eve, q, rho, cons)
    rhs = np.concatenate([M @ v_minus, -cons.jac_t(t_eve, q, rho)])
    sol = checked_lu(K, "impulse KKT matrix")(rhs)
    return sol[:n], sol[n:]
