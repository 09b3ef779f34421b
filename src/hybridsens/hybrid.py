"""Event semantics and the sensitivity jump algebra.

At a transversal event the positions and the quadrature accumulator are
continuous while the velocities jump; forward sensitivities therefore jump
as X+ = S X- with a generalized jump matrix S assembled per event kind, and
adjoints jump backward as lam- = S^T lam+.  Three kinds are supported:

* VelocityJumpEvent / RhsSwitchEvent: unconstrained state, full-velocity
  jump map h(t, q, v, rho) (identity for a pure right-hand-side switch).
* ConstrainedElasticEvent: the jump map acts on the independent (dof)
  velocity components; dependent components are re-solved from the
  (unchanged) velocity-level constraints.
* ConstrainedInelasticEvent: a new constraint set engages and an impulsive
  KKT solve produces the post-event velocities and impulse multipliers.

Every S is stored both as named blocks and as one dense matrix over the
stacked [Q; V; Gamma; Z] ordering, so that the direct jump, the adjoint
jump, and the bilinear identity (S^T lam)^T X = lam^T (S X) are exact by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AdjointState, Dimensions, SensitivityState
from .model import fd_jacobian, fd_derivative, ConstraintSet
from . import constrained as _constrained

TRANSVERSALITY_RTOL = 1e-8


class TangentialCrossingError(RuntimeError):
    """dr/dq . v vanished at the event: grazing contact is not supported."""


# ---------------------------------------------------------------------------
# Event specifications
# ---------------------------------------------------------------------------


@dataclass
class DofPartition:
    """Split of the n coordinates into independent (dof) and dependent ones.

    The partition is part of the problem definition; it is not chosen
    automatically.  Selection matrices satisfy P P^T = I blockwise and
    scatter/gather are exact permutations.
    """

    n: int
    dof: tuple[int, ...]

    def __post_init__(self):
        self.dof = tuple(int(i) for i in self.dof)
        if len(set(self.dof)) != len(self.dof) or not all(0 <= i < self.n for i in self.dof):
            raise ValueError(f"invalid dof index set {self.dof} for n={self.n}")

    @property
    def f(self) -> int:
        return len(self.dof)

    @property
    def dep(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.dof)

    def p_dof(self) -> np.ndarray:
        P = np.zeros((self.f, self.n))
        for r, i in enumerate(self.dof):
            P[r, i] = 1.0
        return P

    def p_dep(self) -> np.ndarray:
        dep = self.dep
        P = np.zeros((len(dep), self.n))
        for r, i in enumerate(dep):
            P[r, i] = 1.0
        return P


@dataclass
class EventSpec:
    """Scalar event function r(q) whose sign change in time triggers the event."""

    name: str
    r: Callable[[np.ndarray], float]
    dr_dq: Callable[[np.ndarray], np.ndarray] | None = None

    def r_value(self, q) -> float:
        return float(self.r(q))

    def r_jac(self, q) -> np.ndarray:
        if self.dr_dq is not None:
            return np.asarray(self.dr_dq(q), dtype=float).reshape(-1)
        return fd_jacobian(lambda qq: np.atleast_1d(self.r(qq)), q).reshape(-1)


@dataclass
class VelocityJumpEvent(EventSpec):
    """v+ = h(t_eve, q, v-, rho) acting on the full velocity vector."""

    h: Callable = None
    h_t: Callable | None = None
    h_q: Callable | None = None
    h_v: Callable | None = None
    h_rho: Callable | None = None
    post_dynamics: object = None

    def jump(self, t, q, v, rho) -> np.ndarray:
        return np.asarray(self.h(t, q, v, rho), dtype=float)

    def jacobians(self, t, q, v, rho):
        ht = (np.asarray(self.h_t(t, q, v, rho), dtype=float) if self.h_t is not None
              else fd_derivative(lambda tt: self.jump(tt, q, v, rho), t))
        hq = (np.asarray(self.h_q(t, q, v, rho), dtype=float) if self.h_q is not None
              else fd_jacobian(lambda qq: self.jump(t, qq, v, rho), q))
        hv = (np.asarray(self.h_v(t, q, v, rho), dtype=float) if self.h_v is not None
              else fd_jacobian(lambda vv: self.jump(t, q, vv, rho), v))
        hrho = (np.asarray(self.h_rho(t, q, v, rho), dtype=float) if self.h_rho is not None
                else fd_jacobian(lambda rr: self.jump(t, q, v, rr), rho))
        return ht.reshape(-1), hq, hv, hrho


@dataclass
class RhsSwitchEvent(EventSpec):
    """Velocity-continuous event that swaps the equations of motion."""

    post_dynamics: object = None  # required; the new dynamics after the switch


@dataclass
class ConstrainedElasticEvent(EventSpec):
    """Elastic impact on the dof velocities of a constrained system.

    The constraint set is unchanged across the event; the dependent
    velocities after the jump follow from the velocity-level constraints.
    """

    dof_jump: Callable = None  # (t, q, v_dof, rho) -> (f,)
    partition: DofPartition = None
    h_t: Callable | None = None
    h_q: Callable | None = None
    h_vdof: Callable | None = None
    h_rho: Callable | None = None

    def jump_dof(self, t, q, v_dof, rho) -> np.ndarray:
        return np.asarray(self.dof_jump(t, q, v_dof, rho), dtype=float)

    def jacobians(self, t, q, v_dof, rho):
        ht = (np.asarray(self.h_t(t, q, v_dof, rho), dtype=float) if self.h_t is not None
              else fd_derivative(lambda tt: self.jump_dof(tt, q, v_dof, rho), t))
        hq = (np.asarray(self.h_q(t, q, v_dof, rho), dtype=float) if self.h_q is not None
              else fd_jacobian(lambda qq: self.jump_dof(t, qq, v_dof, rho), q))
        hv = (np.asarray(self.h_vdof(t, q, v_dof, rho), dtype=float) if self.h_vdof is not None
              else fd_jacobian(lambda vv: self.jump_dof(t, q, vv, rho), v_dof))
        hrho = (np.asarray(self.h_rho(t, q, v_dof, rho), dtype=float) if self.h_rho is not None
                else fd_jacobian(lambda rr: self.jump_dof(t, q, v_dof, rr), rho))
        return ht.reshape(-1), hq, hv, hrho


@dataclass
class ConstrainedInelasticEvent(EventSpec):
    """Inelastic impact engaging a new constraint set.

    The impulsive solve distributes the pre-event momentum onto the new
    constraint manifold; the event surface must coincide with activation of
    the new constraints (r = 0 exactly when the new Phi is satisfied).
    """

    post_dynamics: object = None  # constrained dynamics active after the event
    partition: DofPartition = None

    @property
    def post_constraints(self) -> ConstraintSet:
        return self.post_dynamics.model.constraints


# ---------------------------------------------------------------------------
# Event records and jump matrices
# ---------------------------------------------------------------------------


@dataclass
class JumpMatrix:
    """Generalized sensitivity jump matrix for one event.

    ``blocks`` holds the named sub-matrices used to assemble S; ``S`` is the
    dense (2n+p+nc) square matrix over [Q; V; Gamma; Z].  The Gamma and Z
    diagonal blocks are exact identities.
    """

    dims: Dimensions
    kind: str
    blocks: dict
    S: np.ndarray

    def apply_direct(self, X: SensitivityState) -> SensitivityState:
        """X+ = S X- blockwise on the stacked sensitivity matrix."""
        return SensitivityState.from_stacked(self.S @ X.stacked(), self.dims)

    def apply_adjoint(self, lam: AdjointState) -> AdjointState:
        """lam- = S^T lam+ blockwise on the stacked adjoint matrix."""
        return AdjointState.from_stacked(self.S.T @ lam.stacked(), self.dims)


@dataclass
class EventRecord:
    """Everything recorded about one processed event.

    ``dteve_drho`` (the 1 x p event-time sensitivity) requires the forward
    sensitivity Q- and is therefore filled only by the direct pass; the jump
    matrix itself depends on state-only quantities.
    """

    name: str
    kind: str
    t_eve: float
    q: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    vdot_minus: np.ndarray
    vdot_plus: np.ndarray
    g_minus: np.ndarray
    g_plus: np.ndarray
    z: np.ndarray
    r_row: np.ndarray                   # (dt/drho) as a row functional of Q-
    jump: JumpMatrix
    dteve_drho: np.ndarray | None = None
    delta_mu: np.ndarray | None = None
    delta_mu_sens: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "t_eve": self.t_eve,
            "v_minus": self.v_minus.tolist(),
            "v_plus": self.v_plus.tolist(),
            "jump_block_norms": {k: float(np.linalg.norm(v))
                                 for k, v in self.jump.blocks.items()
                                 if isinstance(v, np.ndarray)},
        }
        if self.dteve_drho is not None:
            d["dteve_drho"] = np.asarray(self.dteve_drho).ravel().tolist()
        if self.delta_mu is not None:
            d["delta_mu"] = self.delta_mu.tolist()
        return d


# ---------------------------------------------------------------------------
# Elementary jump quantities
# ---------------------------------------------------------------------------


def check_transversality(r_q: np.ndarray, v_minus: np.ndarray) -> float:
    """Return dr/dq . v-, refusing tangential (grazing) crossings."""
    r_q = np.asarray(r_q, dtype=float).reshape(-1)
    rdot = float(r_q @ v_minus)
    scale = float(np.linalg.norm(r_q) * np.linalg.norm(v_minus))
    if abs(rdot) <= TRANSVERSALITY_RTOL * max(scale, 1e-300):
        raise TangentialCrossingError(
            f"|dr/dq . v| = {abs(rdot):.3g} below transversality threshold "
            f"({TRANSVERSALITY_RTOL:.1g} * {scale:.3g})"
        )
    return rdot


def event_time_row(r_q: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """Row functional mapping Q- columns to event-time sensitivities,
    (dt/drho) = row . Q-, i.e. -dr/dq / (dr/dq . v-)."""
    rdot = check_transversality(r_q, v_minus)
    return -np.asarray(r_q, dtype=float).reshape(1, -1) / rdot


def event_time_sensitivity(r_q: np.ndarray, Q_minus: np.ndarray,
                           v_minus: np.ndarray) -> np.ndarray:
    """Event-time sensitivity dt_eve/drho = -(dr/dq Q-) / (dr/dq v-)."""
    return event_time_row(r_q, v_minus) @ np.atleast_2d(Q_minus)


# ---------------------------------------------------------------------------
# State jumps
# ---------------------------------------------------------------------------


def apply_state_jump(spec: EventSpec, t_eve: float, q: np.ndarray,
                     v_minus: np.ndarray, rho: np.ndarray, dyn_minus):
    """Post-event velocities (and impulse multipliers) for an event spec.

    Returns (v_plus, delta_mu_or_None, dyn_plus).  Positions and quadrature
    values never jump; the caller keeps them verbatim.
    """
    if isinstance(spec, VelocityJumpEvent):
        v_plus = spec.jump(t_eve, q, v_minus, rho)
        return v_plus, None, (spec.post_dynamics or dyn_minus)
    if isinstance(spec, RhsSwitchEvent):
        if spec.post_dynamics is None:
            raise ValueError(f"event '{spec.name}': a switch event needs post_dynamics")
        return v_minus.copy(), None, spec.post_dynamics
    if isinstance(spec, ConstrainedElasticEvent):
        part = spec.partition
        cons = dyn_minus.model.constraints
        v_dof_plus = spec.jump_dof(t_eve, q, v_minus[list(part.dof)], rho)
        G = cons.jac_q(t_eve, q, rho)
        phit = cons.jac_t(t_eve, q, rho)
        Gdep = G[:, list(part.dep)]
        Gdof = G[:, list(part.dof)]
        try:
            v_dep_plus = np.linalg.solve(Gdep, -(Gdof @ v_dof_plus + phit))
        except np.linalg.LinAlgError as exc:
            raise _constrained.SingularKKTError(
                f"event '{spec.name}': dependent-coordinate constraint block singular "
                f"(cond~{np.linalg.cond(Gdep):.3g})"
            ) from exc
        v_plus = np.empty_like(v_minus)
        v_plus[list(part.dof)] = v_dof_plus
        v_plus[list(part.dep)] = v_dep_plus
        return v_plus, None, dyn_minus
    if isinstance(spec, ConstrainedInelasticEvent):
        dyn_plus = spec.post_dynamics
        v_plus, dmu = _constrained.impulse_solve(
            dyn_plus.model, t_eve, q, v_minus, rho, dyn_plus.model.constraints)
        return v_plus, dmu, dyn_plus
    raise TypeError(f"unknown event spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Jump matrix assembly
# ---------------------------------------------------------------------------


def _identity_blocks(dims: Dimensions):
    n, p, nc = dims.n, dims.p, dims.nc
    return np.zeros((2 * n + p + nc, 2 * n + p + nc))


def _assemble(dims: Dimensions, SQQ, SQG, SVQ, SVV, SVG, SZQ) -> np.ndarray:
    """Place named blocks into the dense stacked matrix.

    Row/column order is [Q (n); V (n); Gamma (p); Z (nc)].  Blocks not
    listed are zero except the exact identity on Gamma and Z."""
    n, p, nc = dims.n, dims.p, dims.nc
    S = _identity_blocks(dims)
    iQ, iV, iG, iZ = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + p), slice(2 * n + p, None)
    S[iQ, iQ] = SQQ
    S[iQ, iG] = SQG
    S[iV, iQ] = SVQ
    S[iV, iV] = SVV
    S[iV, iG] = SVG
    S[iG, iG] = np.eye(p)
    S[iZ, iQ] = SZQ
    S[iZ, iZ] = np.eye(nc)
    return S


def build_jump_matrix(spec: EventSpec, dims: Dimensions, t_eve: float,
                      q: np.ndarray, v_minus: np.ndarray, v_plus: np.ndarray,
                      vdot_minus: np.ndarray, vdot_plus: np.ndarray,
                      g_minus: np.ndarray, g_plus: np.ndarray,
                      rho: np.ndarray, dyn_minus, dyn_plus) -> JumpMatrix:
    """Assemble the generalized sensitivity jump matrix for one event.

    One-sided accelerations are the respective right-hand sides evaluated at
    (t_eve, q, v-) and (t_eve, q, v+); one-sided cost densities likewise.
    """
    n, p, nc = dims.n, dims.p, dims.nc
    r_q = spec.r_jac(q)
    w = event_time_row(r_q, v_minus)           # (1, n)
    dv = (v_plus - v_minus).reshape(n, 1)
    dg = (g_plus - g_minus).reshape(nc, 1)
    A = np.eye(n) - dv @ w                      # full-vector position-sensitivity jump
    SZQ = -dg @ w

    if isinstance(spec, (VelocityJumpEvent, RhsSwitchEvent)):
        if isinstance(spec, RhsSwitchEvent):
            ht, hq, hv, hrho = (np.zeros(n), np.zeros((n, n)), np.eye(n), np.zeros((n, p)))
        else:
            ht, hq, hv, hrho = spec.jacobians(t_eve, q, v_minus, rho)
        bracket = hq @ v_minus - vdot_plus + hv @ vdot_minus + ht
        SVQ = hq + bracket.reshape(n, 1) @ w
        S = _assemble(dims, A, np.zeros((n, p)), SVQ, hv, hrho, SZQ)
        blocks = {
            "Q_plus_wrt_Q": A, "V_plus_wrt_Q": SVQ, "h_v": hv, "h_rho": hrho,
            "Z_plus_wrt_Q": SZQ, "dt_row": w,
        }
        return JumpMatrix(dims, type(spec).__name__, blocks, S)

    if isinstance(spec, ConstrainedElasticEvent):
        part = spec.partition
        cons = dyn_plus.model.constraints
        dof, dep = list(part.dof), list(part.dep)
        G = cons.jac_q(t_eve, q, rho)
        Gdep = G[:, dep]
        Gdof = G[:, dof]
        lu = _constrained.checked_lu(Gdep, f"event '{spec.name}' dependent constraint block")
        R = -lu(Gdof)                                            # (m, f)
        Rbar = -lu(cons.qq_action(t_eve, q, rho, v_plus) + cons.tq_jac(t_eve, q, rho))
        Cblk = -lu(cons.q_rho_action(t_eve, q, rho, v_plus) + cons.t_rho_jac(t_eve, q, rho))
        D = -lu(cons.jac_rho(t_eve, q, rho))

        A_dof = A[dof, :]
        A_dep = R @ A_dof
        SQQ = np.zeros((n, n))
        SQQ[dof, :] = A_dof
        SQQ[dep, :] = A_dep
        SQG = np.zeros((n, p))
        SQG[dep, :] = D

        ht, hq, hv, hrho = spec.jacobians(t_eve, q, v_minus[dof], rho)
        bracket = hq @ v_minus - vdot_plus[dof] + hv @ vdot_minus[dof] + ht
        B_dof = hq + bracket.reshape(-1, 1) @ w                  # (f, n)
        # the dependent rows see the *post-jump* position sensitivities:
        # V_dep+ = R V_dof+ + Rbar Q+ + C, with Q+ = SQQ Q- + SQG Gamma
        B_dep = R @ B_dof + Rbar @ SQQ
        SVQ = np.zeros((n, n))
        SVQ[dof, :] = B_dof
        SVQ[dep, :] = B_dep
        SVV = np.zeros((n, n))
        SVV[np.ix_(dof, dof)] = hv
        SVV[np.ix_(dep, dof)] = R @ hv
        K = Cblk + R @ hrho + Rbar @ SQG
        SVG = np.zeros((n, p))
        SVG[dof, :] = hrho
        SVG[dep, :] = K

        S = _assemble(dims, SQQ, SQG, SVQ, SVV, SVG, SZQ)
        blocks = {
            "Q_plus_wrt_Q": SQQ, "V_plus_wrt_Q": SVQ, "V_plus_wrt_V": SVV,
            "D": D, "K": K, "R": R, "Rbar": Rbar, "C": Cblk,
            "h_v": hv, "h_rho": hrho, "Z_plus_wrt_Q": SZQ, "dt_row": w,
        }
        return JumpMatrix(dims, type(spec).__name__, blocks, S)

    if isinstance(spec, ConstrainedInelasticEvent):
        part = spec.partition
        cons = spec.post_constraints
        dof, dep = list(part.dof), list(part.dep)
        jt, jq, jv, jrho = impulse_map_jacobians(
            dyn_plus.model, t_eve, q, v_minus, rho, cons)
        jt_v, jq_v, jv_v, jrho_v = jt[:n], jq[:n], jv[:n], jrho[:n]
        jt_m, jq_m, jv_m, jrho_m = jt[n:], jq[n:], jv[n:], jrho[n:]

        G = cons.jac_q(t_eve, q, rho)
        lu = _constrained.checked_lu(G[:, dep], f"event '{spec.name}' dependent constraint block")
        R = -lu(G[:, dof])
        D = -lu(cons.jac_rho(t_eve, q, rho))
        A_dof = A[dof, :]
        SQQ = np.zeros((n, n))
        SQQ[dof, :] = A_dof
        SQQ[dep, :] = R @ A_dof
        SQG = np.zeros((n, p))
        SQG[dep, :] = D

        bracket = jt_v + jq_v @ v_minus + jv_v @ vdot_minus - vdot_plus
        SVQ = jq_v + bracket.reshape(n, 1) @ w
        SVV = jv_v
        SVG = jrho_v

        S = _assemble(dims, SQQ, SQG, SVQ, SVV, SVG, SZQ)
        blocks = {
            "Q_plus_wrt_Q": SQQ, "V_plus_wrt_Q": SVQ, "V_plus_wrt_V": SVV,
            "D": D, "R": R, "imp_v_q": jq_v, "imp_v_v": jv_v, "imp_v_rho": jrho_v,
            "imp_mu_q": jq_m, "imp_mu_v": jv_m, "imp_mu_rho": jrho_m,
            "imp_mu_t": jt_m, "imp_v_t": jt_v,
            "Z_plus_wrt_Q": SZQ, "dt_row": w,
        }
        return JumpMatrix(dims, type(spec).__name__, blocks, S)

    raise TypeError(f"unknown event spec type {type(spec).__name__}")


def impulse_map_jacobians(model, t, q, v_minus, rho, cons: ConstraintSet):
    """Partial derivatives of the impulsive KKT solution map.

    The map (t, q, v-, rho) -> (v+, delta_mu) is differentiated by central
    differences around the event state; the solve itself is cheap and the
    map is smooth wherever the KKT matrix is regular.  Returns
    (d/dt, d/dq, d/dv, d/drho) each stacked as (n+m, .) arrays.
    """

    def solve_at(tt, qq, vv, rr):
        vp, dmu = _constrained.impulse_solve(model, tt, qq, vv, rr, cons)
        return np.concatenate([vp, dmu])

    jt = fd_derivative(lambda tt: solve_at(tt, q, v_minus, rho), t)
    jq = fd_jacobian(lambda qq: solve_at(t, qq, v_minus, rho), q)
    jv = fd_jacobian(lambda vv: solve_at(t, q, vv, rho), v_minus)
    jrho = fd_jacobian(lambda rr: solve_at(t, q, v_minus, rr), rho)
    return jt, jq, jv, jrho


# ---------------------------------------------------------------------------
# Componentwise jump formulas (the non-matrix route; used for cross-checks)
# ---------------------------------------------------------------------------


def jump_componentwise_unconstrained(X: SensitivityState, w_row, dv, hq, hv, ht, hrho,
                                     vdot_minus, vdot_plus, v_minus, dg) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the unconstrained case."""
    dt_drho = w_row @ X.Q                        # (1, p)
    Qp = X.Q - dv.reshape(-1, 1) @ dt_drho
    bracket = hq @ v_minus - vdot_plus + hv @ vdot_minus + ht
    Vp = hq @ X.Q + hv @ X.V + bracket.reshape(-1, 1) @ dt_drho + hrho @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)


def jump_componentwise_elastic(X: SensitivityState, part: DofPartition, w_row, dv,
                               hq, hv, ht, hrho, vdot_minus, vdot_plus, v_minus,
                               dg, R, Rbar, Cblk, D) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the elastic case."""
    dof, dep = list(part.dof), list(part.dep)
    dt_drho = w_row @ X.Q
    Qp = np.empty_like(X.Q)
    Qp[dof, :] = X.Q[dof, :] - dv[dof].reshape(-1, 1) @ dt_drho
    Qp[dep, :] = R @ Qp[dof, :] + D @ X.Gamma
    bracket = hq @ v_minus - vdot_plus[dof] + hv @ vdot_minus[dof] + ht
    Vp = np.empty_like(X.V)
    Vp[dof, :] = (hq @ X.Q + hv @ X.V[dof, :]
                  + bracket.reshape(-1, 1) @ dt_drho + hrho @ X.Gamma)
    Vp[dep, :] = R @ Vp[dof, :] + Rbar @ Qp + Cblk @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)


def jump_componentwise_inelastic(X: SensitivityState, part: DofPartition, w_row, dv,
                                 jt_v, jq_v, jv_v, jrho_v, vdot_minus, vdot_plus,
                                 v_minus, dg, R, D) -> SensitivityState:
    """Direct evaluation of the scalar jump equations for the impulsive case."""
    dof, dep = list(part.dof), list(part.dep)
    dt_drho = w_row @ X.Q
    Qp = np.empty_like(X.Q)
    Qp[dof, :] = X.Q[dof, :] - dv[dof].reshape(-1, 1) @ dt_drho
    Qp[dep, :] = R @ Qp[dof, :] + D @ X.Gamma
    bracket = jt_v + jq_v @ v_minus + jv_v @ vdot_minus - vdot_plus
    Vp = jq_v @ X.Q + jv_v @ X.V + bracket.reshape(-1, 1) @ dt_drho + jrho_v @ X.Gamma
    Zp = X.Z - dg.reshape(-1, 1) @ dt_drho
    return SensitivityState(Qp, Vp, X.Gamma.copy(), Zp)
