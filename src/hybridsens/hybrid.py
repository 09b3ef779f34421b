"""Event semantics and the sensitivity jump algebra.

At a transversal event the positions and the quadrature accumulator are
continuous while the velocities jump; forward sensitivities therefore jump
as X+ = S X- with a generalized jump matrix S assembled per event kind, and
adjoints jump backward as lam- = S^T lam+, S = S0 + u w^T.  Each event
kind is one EventSpec subclass that owns its state jump, which hands over
S0, its jump with the event time held fixed as one (2n, 2n + p) block
(rows [Q; V], columns [q | v | rho]), and u, the rate mismatch over those
rows, and whether its post-event velocity must leave the event surface;
``build_jump_matrix`` alone adds u w^T, w the event-time row, and the
quadrature rows (g- - g+) w:

* VelocityJumpEvent: unconstrained state, full-velocity jump map
  h(t, q, v, rho).
* RhsSwitchEvent: a velocity jump with the identity map that swaps the
  equations of motion.
* ConstrainedElasticEvent: the jump map acts on the independent (dof)
  velocity components; dependent components are re-solved from the
  (unchanged) velocity-level constraints.
* ConstrainedInelasticEvent: a new constraint set engages and an impulsive
  KKT solve produces the post-event velocities and impulse multipliers.

Every S is one dense matrix over the stacked [Q; V; Gamma; Z] ordering,
so that the direct jump, the adjoint jump, and the bilinear identity
(S^T lam)^T X = lam^T (S X) are exact by construction; its named blocks
are views of it or the kind's own factors.  The sweeps apply S and S^T to
their own arrays, which leave out the identity blocks
(``JumpMatrix.direct`` and ``JumpMatrix.adjoint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .core import Dimensions
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

    ``admissible`` declares the sign (+1 or -1) r must have where a run
    starts, the side of the surface the model lives on; a run starting on
    the surface or past it raises ``InadmissibleStartError``.  0 (the
    default) admits either side; any other value is refused.

    Each subclass is one event kind and owns everything specific to it:
    ``state_jump`` gives the post-event velocities and its part of the
    sensitivity jump matrix S, and ``must_depart`` whether the post-event
    velocity must leave the event surface.  Its ``_required`` fields may not be None.
    """

    name: str
    r: Callable[[np.ndarray], float]
    dr_dq: Callable[[np.ndarray], np.ndarray] | None = None
    admissible: float = 0.0

    must_depart: ClassVar[bool] = True
    _required: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        if self.admissible not in (-1, 0, 1):
            raise ValueError(f"event '{self.name}': admissible must be -1, 0 or +1, "
                             f"got {self.admissible!r}")
        for field in self._required:
            if getattr(self, field) is None:
                raise ValueError(f"event '{self.name}': {type(self).__name__} needs {field}")

    def r_value(self, q) -> float:
        return float(self.r(q))

    def r_jac(self, q) -> np.ndarray:
        if self.dr_dq is not None:
            return np.asarray(self.dr_dq(q), dtype=float).reshape(-1)
        return fd_jacobian(lambda qq: np.atleast_1d(self.r(qq)), q).reshape(-1)

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        """(v_plus, delta_mu or None, dyn_plus, blocks) at the event state:
        ``blocks(vdot_minus, vdot_plus)`` gives (S0, u, named blocks) from
        the one-sided accelerations, on the factors the jump itself used:
        S0, the kind's jump with the event time held fixed, one (2n, 2n + p)
        array over the rows [Q; V] and the columns [q | v | rho], and u, the
        (2n,) rate mismatch across the event over those rows, its Q part
        S0_QQ (v- - v+).  Threads share specs, so the factors live in the
        closure, never on the spec."""
        raise NotImplementedError

    def delta_mu_sensitivity(self, record, Q, V):
        """Sensitivity of the impulse multipliers from the pre-event position
        and velocity sensitivities Q- and V-; None for kinds without any."""
        return None


def _jump_jacobians(what, partials, jump, t, q, v, rho):
    """(h_t, h_q, h_v, h_rho) of a jump map v+ = jump(t, q, v, rho): those of
    the ``partials`` callback, else central differences; ``what()`` labels a
    shape error."""
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


def _dependent_blocks(dof, dep, G, lu, phi_rho):
    """Dependent-coordinate part of a partitioned jump, from G = phi_q, the
    solve ``lu`` with its dependent block G_dep and phi_rho: R = -G_dep^-1
    G_dof, D = -G_dep^-1 phi_rho and P, the position rows of S0 over
    [q | v | rho]: dof rows I_dof in the dof columns, dependent rows R
    there and D in the rho columns.
    """
    n, p = G.shape[1], phi_rho.shape[1]
    R = -lu(G[:, dof])
    D = -lu(phi_rho)
    P = np.zeros((n, 2 * n + p))
    P[dof, dof] = 1.0
    P[np.ix_(dep, dof)] = R
    P[dep, 2 * n:] = D
    return R, D, P


@dataclass
class VelocityJumpEvent(EventSpec):
    """v+ = h(t_eve, q, v-, rho) acting on the full velocity vector, with
    the optional callback h_partials(t, q, v, rho) -> (h_t, h_q, h_v, h_rho)."""

    h: Callable = None
    h_partials: Callable | None = None
    post_dynamics: object = None
    _required = ("h",)

    def jump(self, t, q, v, rho) -> np.ndarray:
        return np.asarray(self.h(t, q, v, rho), dtype=float)

    def jacobians(self, t, q, v, rho):
        return _jump_jacobians(lambda: f"h_partials of event '{self.name}'", self.h_partials,
                               self.jump, t, q, v, rho)

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        v_plus = self.jump(t, q, v_minus, rho)

        def blocks(vdot_minus, vdot_plus):
            n = v_minus.size
            ht, hq, hv, hrho = self.jacobians(t, q, v_minus, rho)
            S0 = np.vstack([np.eye(n, 2 * n + rho.size), np.hstack([hq, hv, hrho])])
            u = np.concatenate([v_minus - v_plus,
                                hq @ v_minus - vdot_plus + hv @ vdot_minus + ht])
            return S0, u, {"h_v": hv, "h_rho": hrho}

        return v_plus, None, (self.post_dynamics or dyn_minus), blocks


@dataclass
class RhsSwitchEvent(VelocityJumpEvent):
    """Velocity-continuous event that swaps the equations of motion: a
    velocity jump whose map h and partials are set to the identity, onto a
    required ``post_dynamics``."""

    _required = ("h", "post_dynamics")

    def __post_init__(self):
        self.h = lambda t, q, v, rho: v.copy()
        self.h_partials = lambda t, q, v, rho: (np.zeros(v.size), np.zeros((v.size, q.size)),
                                                np.eye(v.size), np.zeros((v.size, rho.size)))
        super().__post_init__()


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
    _required = ("dof_jump", "dof")

    def jump_dof(self, t, q, v_dof, rho) -> np.ndarray:
        return np.asarray(self.dof_jump(t, q, v_dof, rho), dtype=float)

    def jacobians(self, t, q, v_dof, rho):
        return _jump_jacobians(lambda: f"dof_jump_partials of event '{self.name}'",
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

        def blocks(vdot_minus, vdot_plus):
            R, D, P = _dependent_blocks(dof, dep, G, lu, cons.jac_rho(t, q, rho))
            Rbar = -lu(cons.qq_action(t, q, rho, v_plus))
            Cblk = -lu(cons.q_rho_action(t, q, rho, v_plus))

            ht, hq, hv, hrho = self.jacobians(t, q, v_minus[dof], rho)
            S0 = np.zeros((2 * n, 2 * n + rho.size))
            S0[:n] = P
            V = S0[n:]
            V[dof, :n], V[np.ix_(dof, np.add(n, dof))], V[dof, 2 * n:] = hq, hv, hrho
            u_Q, u_V = P[:, :n] @ (v_minus - v_plus), np.empty(n)
            u_V[dof] = hq @ v_minus - vdot_plus[dof] + hv @ vdot_minus[dof] + ht
            # the dependent rows see the *post-jump* position sensitivities,
            # V_dep+ = R V_dof+ + Rbar Q+ + C: R and Rbar carry the dof rows'
            # and the position rows' S0 and rate mismatch, C the rho columns
            RV = R @ V[dof]
            RV[:, 2 * n:] += Cblk
            V[dep] = RV + Rbar @ P
            u_V[dep] = R @ u_V[dof] + Rbar @ u_Q
            named = {
                "V_plus_wrt_V": V[:, n:2 * n], "D": D, "K": V[dep, 2 * n:], "R": R,
                "Rbar": Rbar, "C": Cblk, "h_v": hv, "h_rho": hrho,
            }
            return S0, np.concatenate([u_Q, u_V]), named

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
    _required = ("post_dynamics", "dof")

    def state_jump(self, t, q, v_minus, rho, dyn_minus):
        """``impulse_system`` gives [v+; dmu] and the factor its blocks
        reuse: the partials of the impulse map (q, v-, rho) -> [v+; dmu] by
        ``differentiate_saddle``, from those of its right side [M v-; 0],
        [M_q v-, M, M_rho v-; 0]; M and so the map do not depend on t."""
        n, model = v_minus.size, self.post_dynamics.model
        dof, dep = _dof_split(self, n)
        M, factor, s = _constrained.impulse_system(model, t, q, v_minus, rho)

        def linearize(t, q, v, rho, x, mu):
            rhs = np.zeros((s.size, 2 * n + rho.size))
            rhs[:n, :n], rhs[:n, 2 * n:] = model.mass_jacobians(t, q, rho, v)
            rhs[:n, n:2 * n] = M
            return factor, x, mu, rhs

        def blocks(vdot_minus, vdot_plus):
            J = _constrained.differentiate_saddle(
                model, t, q, v_minus, rho, s[:n], s[n:],
                lambda *z: np.split(_constrained.impulse_system(model, *z)[2], [n]), linearize)[2]
            jq, jv, jrho = J[:, :n], J[:, n:2 * n], J[:, 2 * n:]
            G, G_rho = model.constraints.jac_q(t, q, rho), model.constraints.jac_rho(t, q, rho)
            R, D, P = _dependent_blocks(dof, dep, G, _dependent_solve(self, G, dep), G_rho)
            u = np.concatenate([P[:, :n] @ (v_minus - s[:n]),
                                jq[:n] @ v_minus + jv[:n] @ vdot_minus - vdot_plus])
            named = {
                "V_plus_wrt_V": jv[:n], "D": D, "R": R, "imp_v_q": jq[:n], "imp_v_v": jv[:n],
                "imp_v_rho": jrho[:n], "imp_mu_q": jq[n:], "imp_mu_v": jv[n:],
                "imp_mu_rho": jrho[n:],
            }
            return np.vstack([P, J[:n]]), u, named

        return s[:n], s[n:], self.post_dynamics, blocks

    def delta_mu_sensitivity(self, record, Q, V):
        """d(delta_mu)/drho through the impulse map at the perturbed event
        state (q, v) + (Q-, V-) + (v-, vdot-) dt/drho."""
        b = record.jump.blocks
        dt_drho = record.dteve_drho
        dq_eve = Q + np.outer(record.v_minus, dt_drho)
        dv_eve = V + np.outer(record.vdot_minus, dt_drho)
        return b["imp_mu_q"] @ dq_eve + b["imp_mu_v"] @ dv_eve + b["imp_mu_rho"]


# ---------------------------------------------------------------------------
# Event records and jump matrices
# ---------------------------------------------------------------------------


@dataclass
class JumpMatrix:
    """Generalized sensitivity jump matrix for one event.

    ``blocks`` holds the q columns of S's Q, V and Z rows as views of S, the
    event-time row and the factors the kind formed S0 from; ``S`` is the
    dense (2n+p+nc) square matrix over [Q; V; Gamma; Z].  The Gamma and Z
    diagonal blocks are exact identities.

    ``direct`` and ``adjoint`` apply S and S^T to the arrays the sweeps
    carry, which leave out the identity blocks Gamma = I and lamZ = I: each
    puts them back in place for the one product with S and drops their
    rows from the result, so that both are the products over the full
    stacked matrices, bitwise.
    """

    dims: Dimensions
    blocks: dict
    S: np.ndarray

    def direct(self, x: np.ndarray) -> np.ndarray:
        """X+ = S X- on the tangent's (2n + nc, p) array [Q; V; Z]."""
        n, p = self.dims.n, self.dims.p
        out = self.S @ np.vstack([x[:2 * n], np.eye(p), x[2 * n:]])
        return np.vstack([out[:2 * n], out[2 * n + p:]])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """lam- = S^T lam+ on the adjoint's (2n + p, nc) array
        [lamQ; lamV; lamGamma]."""
        nc = y.shape[1]
        return (self.S.T @ np.vstack([y, np.eye(nc)]))[:-nc]


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


def build_jump_matrix(dims: Dimensions, r_q: np.ndarray, v_minus: np.ndarray,
                      vdot_minus: np.ndarray, vdot_plus: np.ndarray,
                      g_minus: np.ndarray, g_plus: np.ndarray, blocks) -> JumpMatrix:
    """Assemble the generalized sensitivity jump matrix for one event.

    r_q is dr/dq at the event.  One-sided accelerations are the respective
    right-hand sides evaluated at (t_eve, q, v-) and (t_eve, q, v+);
    one-sided cost densities likewise.  The event kind supplies S0 over
    [q | v | rho] and u, the rate mismatch over its Q and V rows, through
    ``blocks``, the closure its ``state_jump`` returned.  S starts as the
    identity over [Q; V; Gamma; Z]: S0 fills the Q and V rows and the
    event-time term u w^T, w the event-time row, is added here only, in
    the q columns, with the Z rows' (g- - g+) w.
    """
    n, p, nc = dims.n, dims.p, g_plus.size
    w = event_time_row(r_q, v_minus)           # (1, n)
    S0, u, own = blocks(vdot_minus, vdot_plus)
    S = np.eye(2 * n + p + nc)
    S[:2 * n, :2 * n + p] = S0
    S[:2 * n, :n] += u.reshape(2 * n, 1) @ w
    S[2 * n + p:, :n] = -(g_plus - g_minus).reshape(nc, 1) @ w
    named = {"Q_plus_wrt_Q": S[:n, :n], "V_plus_wrt_Q": S[n:2 * n, :n], **own,
             "Z_plus_wrt_Q": S[2 * n + p:, :n], "dt_row": w}
    return JumpMatrix(dims, named, S)
