"""Event semantics and the sensitivity jump algebra.

At a transversal event the positions and the quadrature accumulator are
continuous while the velocities jump; forward sensitivities therefore jump
as X+ = S X- with a generalized jump matrix S assembled per event kind, and
adjoints jump backward as lam- = S^T lam+.  Each event kind is one
EventSpec subclass that owns its state jump, which hands over its blocks
of S, and whether its post-event velocity must leave the event surface:

* VelocityJumpEvent: unconstrained state, full-velocity jump map
  h(t, q, v, rho).
* RhsSwitchEvent: a velocity jump with the identity map that swaps the
  equations of motion.
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
from typing import Callable, ClassVar

import numpy as np

from .core import AdjointState, Dimensions, SensitivityState
from .model import fd_jacobian, fd_derivative, _partials
from . import constrained as _constrained

TRANSVERSALITY_RTOL = 1e-8


class TangentialCrossingError(RuntimeError):
    """dr/dq . v vanished at the event: grazing contact is not supported."""


class StickingContactError(RuntimeError):
    """dr/dq . v+ vanished after a jump that must leave the event surface:
    sticking (zero restitution) is not supported."""


# ---------------------------------------------------------------------------
# Event specifications
# ---------------------------------------------------------------------------


@dataclass
class EventSpec:
    """Scalar event function r(q) whose sign change in time triggers the event.

    Each subclass is one event kind and owns everything specific to it:
    ``state_jump`` gives the post-event velocities and its blocks of the
    sensitivity jump matrix S, and ``must_depart`` whether the post-event
    velocity must leave the event surface.
    """

    name: str
    r: Callable[[np.ndarray], float]
    dr_dq: Callable[[np.ndarray], np.ndarray] | None = None

    must_depart: ClassVar[bool] = True

    def r_value(self, q) -> float:
        return float(self.r(q))

    def r_jac(self, q) -> np.ndarray:
        if self.dr_dq is not None:
            return np.asarray(self.dr_dq(q), dtype=float).reshape(-1)
        return fd_jacobian(lambda qq: np.atleast_1d(self.r(qq)), q).reshape(-1)

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        """(v_plus, delta_mu or None, dyn_plus, blocks) at the event state:
        ``blocks(vdot_minus, vdot_plus, A, w)`` gives ((SQQ, SQG, SVQ, SVV,
        SVG), named blocks) of S from the one-sided accelerations, the shared
        full-vector position jump A = I - dv w and the event-time row w, on
        the factors the jump itself used.  Threads share specs, so the
        factors live in the closure, never on the spec."""
        raise NotImplementedError

    def delta_mu_sensitivity(self, record, X_minus):
        """Sensitivity of the impulse multipliers; None for kinds without any."""
        return None


def _jump_jacobians(what, partials, jump, t, q, v, rho):
    """(h_t, h_q, h_v, h_rho) of a jump map v+ = jump(t, q, v, rho): those of
    the ``partials`` callback, else central differences."""
    f = v.size
    return _partials(partials, what, jump, (t, q, v, rho),
                     (("h_t", (f,)), ("h_q", (f, q.size)), ("h_v", (f, f)),
                      ("h_rho", (f, rho.size))))


def _dof_split(spec, n):
    """(dof, dep): the event's independent coordinates ``spec.dof`` and the
    rest of range(n), the dependent ones, in increasing order.  The dof set
    is part of the problem definition; it is not chosen automatically."""
    dof = [int(i) for i in spec.dof]
    if len(set(dof)) != len(dof) or not all(0 <= i < n for i in dof):
        raise ValueError(f"event '{spec.name}': invalid dof index set {tuple(spec.dof)} "
                         f"for n={n}")
    return dof, [i for i in range(n) if i not in dof]


def _dependent_solve(spec, G, dep):
    """Solve with the dependent-coordinate block G_dep, refusing a singular one."""
    return _constrained.checked_lu(G[:, dep], f"event '{spec.name}' dependent constraint block")


def _dependent_blocks(dof, dep, G, lu, phi_rho, A):
    """Dependent-coordinate part of a partitioned jump, from G = phi_q, the
    solve ``lu`` with its dependent block G_dep and phi_rho: R = -G_dep^-1
    G_dof, D = -G_dep^-1 phi_rho and the position rows of S, SQQ (dof rows
    A_dof, dependent rows R A_dof) and SQG (dependent rows D).
    """
    n, p = A.shape[0], phi_rho.shape[1]
    R = -lu(G[:, dof])
    D = -lu(phi_rho)
    A_dof = A[dof, :]
    SQQ = np.zeros((n, n))
    SQQ[dof, :] = A_dof
    SQQ[dep, :] = R @ A_dof
    SQG = np.zeros((n, p))
    SQG[dep, :] = D
    return R, D, SQQ, SQG


@dataclass
class VelocityJumpEvent(EventSpec):
    """v+ = h(t_eve, q, v-, rho) acting on the full velocity vector, with
    the optional callback h_partials(t, q, v, rho) -> (h_t, h_q, h_v, h_rho)."""

    h: Callable = None
    h_partials: Callable | None = None
    post_dynamics: object = None

    def jump(self, t, q, v, rho) -> np.ndarray:
        return np.asarray(self.h(t, q, v, rho), dtype=float)

    def jacobians(self, t, q, v, rho):
        return _jump_jacobians(f"h_partials of event '{self.name}'", self.h_partials,
                               self.jump, t, q, v, rho)

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        def blocks(vdot_minus, vdot_plus, A, w):
            n = v_minus.size
            ht, hq, hv, hrho = self.jacobians(t, q, v_minus, rho)
            bracket = hq @ v_minus - vdot_plus + hv @ vdot_minus + ht
            SVQ = hq + bracket.reshape(n, 1) @ w
            named = {"Q_plus_wrt_Q": A, "V_plus_wrt_Q": SVQ, "h_v": hv, "h_rho": hrho}
            return (A, np.zeros((n, rho.size)), SVQ, hv, hrho), named

        return self.jump(t, q, v_minus, rho), None, (self.post_dynamics or dyn_minus), blocks


@dataclass
class RhsSwitchEvent(VelocityJumpEvent):
    """Velocity-continuous event that swaps the equations of motion: a
    velocity jump whose map h and partials are set to the identity, onto a
    required ``post_dynamics``."""

    def __post_init__(self):
        if self.post_dynamics is None:
            raise ValueError(f"event '{self.name}': a switch event needs post_dynamics")
        self.h = lambda t, q, v, rho: v.copy()
        self.h_partials = lambda t, q, v, rho: (np.zeros(v.size), np.zeros((v.size, q.size)),
                                                np.eye(v.size), np.zeros((v.size, rho.size)))


@dataclass
class ConstrainedElasticEvent(EventSpec):
    """Elastic impact on the dof velocities of a constrained system.

    The constraint set is unchanged across the event; the dependent
    velocities after the jump follow from the velocity-level constraints.
    The optional callback dof_jump_partials(t, q, v_dof, rho) returns
    (h_t, h_q, h_v, h_rho) of ``dof_jump``, h_v its partial in v_dof.
    """

    dof_jump: Callable = None  # (t, q, v_dof, rho) -> (f,)
    dof: tuple[int, ...] = None  # independent coordinates; the rest are dependent
    dof_jump_partials: Callable | None = None

    def jump_dof(self, t, q, v_dof, rho) -> np.ndarray:
        return np.asarray(self.dof_jump(t, q, v_dof, rho), dtype=float)

    def jacobians(self, t, q, v_dof, rho):
        return _jump_jacobians(f"dof_jump_partials of event '{self.name}'",
                               self.dof_jump_partials, self.jump_dof, t, q, v_dof, rho)

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        n = v_minus.size
        dof, dep = _dof_split(self, n)
        cons = dyn_minus.model.constraints
        v_dof_plus = self.jump_dof(t, q, v_minus[dof], rho)
        G = cons.jac_q(t, q, rho)
        lu = _dependent_solve(self, G, dep)
        v_plus = np.empty_like(v_minus)
        v_plus[dof] = v_dof_plus
        v_plus[dep] = lu(-(G[:, dof] @ v_dof_plus))

        def blocks(vdot_minus, vdot_plus, A, w):
            R, D, SQQ, SQG = _dependent_blocks(dof, dep, G, lu, cons.jac_rho(t, q, rho), A)
            Rbar = -lu(cons.qq_action(t, q, rho, v_plus))
            Cblk = -lu(cons.q_rho_action(t, q, rho, v_plus))

            ht, hq, hv, hrho = self.jacobians(t, q, v_minus[dof], rho)
            bracket = hq @ v_minus - vdot_plus[dof] + hv @ vdot_minus[dof] + ht
            B_dof = hq + bracket.reshape(-1, 1) @ w                  # (f, n)
            # the dependent rows see the *post-jump* position sensitivities:
            # V_dep+ = R V_dof+ + Rbar Q+ + C, with Q+ = SQQ Q- + SQG Gamma
            SVQ = np.zeros((n, n))
            SVQ[dof, :] = B_dof
            SVQ[dep, :] = R @ B_dof + Rbar @ SQQ
            SVV = np.zeros((n, n))
            SVV[np.ix_(dof, dof)] = hv
            SVV[np.ix_(dep, dof)] = R @ hv
            K = Cblk + R @ hrho + Rbar @ SQG
            SVG = np.zeros((n, rho.size))
            SVG[dof, :] = hrho
            SVG[dep, :] = K
            named = {
                "Q_plus_wrt_Q": SQQ, "V_plus_wrt_Q": SVQ, "V_plus_wrt_V": SVV,
                "D": D, "K": K, "R": R, "Rbar": Rbar, "C": Cblk,
                "h_v": hv, "h_rho": hrho,
            }
            return (SQQ, SQG, SVQ, SVV, SVG), named

        return v_plus, None, dyn_minus, blocks


@dataclass
class ConstrainedInelasticEvent(EventSpec):
    """Inelastic impact engaging a new constraint set.

    The impulsive solve distributes the pre-event momentum onto the new
    constraint manifold; the event surface must coincide with activation of
    the new constraints (r = 0 exactly when the new Phi is satisfied), so
    the post-event velocity stays on the surface.
    """

    post_dynamics: object = None  # constrained dynamics active after the event
    dof: tuple[int, ...] = None  # independent coordinates; the rest are dependent

    must_depart: ClassVar[bool] = False

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        """``impulse_system`` gives [v+; dmu] and the factor its blocks
        reuse: the partials of the impulse map (q, v-, rho) -> [v+; dmu] by
        ``differentiate_saddle``, from those of its right side [M v-; 0],
        [M_q v-, M, M_rho v-; 0]; M and so the map do not depend on t."""
        n, model = v_minus.size, self.post_dynamics.model
        dof, dep = _dof_split(self, n)
        M, factor, s = _constrained.impulse_system(model, t, q, v_minus, rho)

        def rhs_partials():
            rhs = np.zeros((s.size, 2 * n + rho.size))
            rhs[:n, :n], rhs[:n, 2 * n:] = model.mass_jacobians(t, q, rho, v_minus)
            rhs[:n, n:2 * n] = M
            return factor, s[:n], s[n:], rhs

        def blocks(vdot_minus, vdot_plus, A, w):
            J = _constrained.differentiate_saddle(
                model, t, q, v_minus, rho,
                lambda *z: np.concatenate(_constrained.impulse_solve(model, t, *z)),
                rhs_partials)
            jq, jv, jrho = J[:, :n], J[:, n:2 * n], J[:, 2 * n:]
            G, G_rho = model.constraints.jac_q(t, q, rho), model.constraints.jac_rho(t, q, rho)
            R, D, SQQ, SQG = _dependent_blocks(dof, dep, G, _dependent_solve(self, G, dep),
                                               G_rho, A)
            bracket = jq[:n] @ v_minus + jv[:n] @ vdot_minus - vdot_plus
            SVQ = jq[:n] + bracket.reshape(n, 1) @ w
            named = {
                "Q_plus_wrt_Q": SQQ, "V_plus_wrt_Q": SVQ, "V_plus_wrt_V": jv[:n],
                "D": D, "R": R, "imp_v_q": jq[:n], "imp_v_v": jv[:n], "imp_v_rho": jrho[:n],
                "imp_mu_q": jq[n:], "imp_mu_v": jv[n:], "imp_mu_rho": jrho[n:],
            }
            return (SQQ, SQG, SVQ, jv[:n], jrho[:n]), named

        return s[:n], s[n:], self.post_dynamics, blocks

    def delta_mu_sensitivity(self, record, X_minus):
        """d(delta_mu)/drho through the impulse map at the perturbed event
        state (q, v) + (Q-, V-) + (v-, vdot-) dt/drho."""
        b = record.jump.blocks
        dt_drho = record.dteve_drho
        dq_eve = X_minus.Q + np.outer(record.v_minus, dt_drho)
        dv_eve = X_minus.V + np.outer(record.vdot_minus, dt_drho)
        return b["imp_mu_q"] @ dq_eve + b["imp_mu_v"] @ dv_eve + b["imp_mu_rho"]


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

    The forward run records the state-only quantities, the jump matrix
    among them.  ``dteve_drho`` (the 1 x p event-time sensitivity, the
    jump's ``dt_row`` applied to Q-) and ``delta_mu_sens`` need the forward
    sensitivities at the event and are filled by the direct pass's sweep.
    """

    spec: EventSpec
    t_eve: float
    q: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    vdot_minus: np.ndarray
    z: np.ndarray
    jump: JumpMatrix
    dteve_drho: np.ndarray | None = None
    delta_mu: np.ndarray | None = None
    delta_mu_sens: np.ndarray | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        return type(self.spec).__name__

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "t_eve": self.t_eve,
            "v_minus": self.v_minus.tolist(),
            "v_plus": self.v_plus.tolist(),
            "jump_block_norms": {k: float(np.linalg.norm(v))
                                 for k, v in self.jump.blocks.items()},
        }
        if self.dteve_drho is not None:
            d["dteve_drho"] = np.asarray(self.dteve_drho).ravel().tolist()
        if self.delta_mu is not None:
            d["delta_mu"] = self.delta_mu.tolist()
        return d


# ---------------------------------------------------------------------------
# Elementary jump quantities
# ---------------------------------------------------------------------------


def event_time_row(r_q: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """Row functional mapping Q- columns to event-time sensitivities,
    (dt/drho) = row . Q-, i.e. -dr/dq / (dr/dq . v-), refusing tangential
    (grazing) crossings."""
    r_q = np.asarray(r_q, dtype=float).reshape(-1)
    rdot = float(r_q @ v_minus)
    scale = float(np.linalg.norm(r_q) * np.linalg.norm(v_minus))
    if abs(rdot) <= TRANSVERSALITY_RTOL * max(scale, 1e-300):
        raise TangentialCrossingError(
            f"|dr/dq . v| = {abs(rdot):.3g} below transversality threshold "
            f"({TRANSVERSALITY_RTOL:.1g} * {scale:.3g})"
        )
    return -r_q.reshape(1, -1) / rdot


# ---------------------------------------------------------------------------
# State jumps
# ---------------------------------------------------------------------------


def apply_state_jump(spec: EventSpec, t_eve: float, q: np.ndarray,
                     v_minus: np.ndarray, rho: np.ndarray, dyn_minus):
    """Post-event velocities (and impulse multipliers) for an event spec.

    Returns (v_plus, delta_mu_or_None, dyn_plus, blocks), ``blocks`` the
    closure ``build_jump_matrix`` takes (``EventSpec.state_jump``).
    Positions and quadrature values never jump; the caller keeps them
    verbatim.
    """
    return spec.state_jump(t_eve, q, v_minus, rho, dyn_minus)


def check_departure(spec: EventSpec, r_q: np.ndarray, v_minus: np.ndarray,
                    v_plus: np.ndarray) -> float:
    """Return dr/dq . v+, refusing a post-event velocity that does not leave
    the surface of an event kind that must leave it."""
    rdot = float(r_q @ v_plus)
    scale = float(np.linalg.norm(r_q) * np.linalg.norm(v_minus))
    if spec.must_depart and abs(rdot) <= TRANSVERSALITY_RTOL * scale:
        raise StickingContactError(
            f"event '{spec.name}': |dr/dq . v+| = {abs(rdot):.3g} after the jump is "
            f"below the departure threshold ({TRANSVERSALITY_RTOL:.1g} * {scale:.3g})"
        )
    return rdot


# ---------------------------------------------------------------------------
# Jump matrix assembly
# ---------------------------------------------------------------------------


def _assemble(dims: Dimensions, SQQ, SQG, SVQ, SVV, SVG, SZQ) -> np.ndarray:
    """Place named blocks into the dense stacked matrix.

    Row/column order is [Q (n); V (n); Gamma (p); Z (nc)], nc the rows of
    SZQ.  Blocks not listed are zero except the exact identity on Gamma
    and Z."""
    n, p, nc = dims.n, dims.p, SZQ.shape[0]
    S = np.zeros((2 * n + p + nc, 2 * n + p + nc))
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


def build_jump_matrix(dims: Dimensions, r_q: np.ndarray, v_minus: np.ndarray,
                      v_plus: np.ndarray, vdot_minus: np.ndarray, vdot_plus: np.ndarray,
                      g_minus: np.ndarray, g_plus: np.ndarray, blocks) -> JumpMatrix:
    """Assemble the generalized sensitivity jump matrix for one event.

    r_q is dr/dq at the event.  One-sided accelerations are the respective
    right-hand sides evaluated at (t_eve, q, v-) and (t_eve, q, v+);
    one-sided cost densities likewise.  The event kind supplies its position
    and velocity blocks through ``blocks``, the closure its ``state_jump``
    returned; the event-time row and the quadrature block are common to all
    kinds.
    """
    n, nc = dims.n, g_plus.size
    w = event_time_row(r_q, v_minus)           # (1, n)
    dv = (v_plus - v_minus).reshape(n, 1)
    dg = (g_plus - g_minus).reshape(nc, 1)
    A = np.eye(n) - dv @ w                      # full-vector position-sensitivity jump
    SZQ = -dg @ w
    own, named = blocks(vdot_minus, vdot_plus, A, w)
    S = _assemble(dims, *own, SZQ)
    named.update({"Z_plus_wrt_Q": SZQ, "dt_row": w})
    return JumpMatrix(dims, named, S)
