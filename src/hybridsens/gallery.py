"""Built-in benchmark problems.

five-bar        Planar five-bar mechanism in natural point coordinates with
                two degrees of freedom, four squared-length constraints, two
                anchor springs, and an elastic ground contact under point 2.
bouncing-mass   One vertical point mass with restitution at the ground;
                every quantity has a closed form, which the tests exploit.
pendulum        Point mass dropped inside a circular tether: free flight
                until the tether engages inelastically, then a constrained
                swing (the smooth constrained phase doubles as the
                penalty-vs-index-1 cross-check model).

The five-bar's published data (masses, stiffnesses, natural lengths, link
lengths, anchors, ground height) fix everything except the initial pose and
the spring attachment points.  The pose used here is the symmetric assembly
q1=(-1.5,-1), q2=(0,-2), q3=(1.5,-1) (consistent with the link lengths to
four digits) with spring 1 from anchor A to point 3 and spring 2 from
anchor B to point 2; both natural lengths then match the published values
at the initial pose, so the springs start unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dimensions, ParameterVector
from .model import (
    ConstraintSet,
    CostFunctional,
    InitialConditions,
    MultibodyModel,
    OdeDynamics,
)
from .constrained import DaeDynamics, PenaltyDynamics
from .hybrid import ConstrainedElasticEvent, ConstrainedInelasticEvent, VelocityJumpEvent
from .integrate import IntegratorConfig

GRAVITY = 9.81


class AssemblyError(RuntimeError):
    """Newton projection onto the constraint manifold failed to converge."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: a constant block that callbacks hand out at
    every state, so that a caller writing into it fails instead of
    corrupting the next state."""
    a.flags.writeable = False
    return a


@dataclass
class GalleryProblem:
    """A ready-to-run benchmark: dynamics, events, cost menu, defaults."""

    name: str
    dynamics: object
    events: list
    costs: dict
    default_cost: str
    rho0: ParameterVector
    t_span: tuple
    config: IntegratorConfig = field(default_factory=IntegratorConfig)

    def cost(self, name: str | None = None) -> CostFunctional:
        key = name or self.default_cost
        if key not in self.costs:
            raise KeyError(f"unknown cost '{key}' for {self.name}; "
                           f"available: {sorted(self.costs)}")
        return self.costs[key]


# ---------------------------------------------------------------------------
# Five-bar mechanism
# ---------------------------------------------------------------------------

FIVE_BAR_DATA = dict(
    m1=1.0, m2=1.5, m3=1.5, m4=1.0,
    k1=100.0, k2=100.0,
    L01=2.2360, L02=2.0615,
    LA1=1.4142, L21=1.8027, L32=1.8027, LB3=1.4142,
    qA=np.array([-0.5, 0.0]),
    qB=np.array([0.5, 0.0]),
    ground=-2.35,
)

# nominal pose used to seed the assembly Newton solve
_FIVE_BAR_POSE = np.array([-1.5, -1.0, 0.0, -2.0, 1.5, -1.0])
_FIVE_BAR_DOF = (2, 3)  # (x2, y2)

FIVE_BAR_PARAMS = ("k1", "k2", "LA1", "L21", "L32", "LB3", "L01", "L02")

# the two springs: (point, anchor, stiffness, natural length); spring 1
# pulls point 3 (q[4:6]) towards anchor A, spring 2 point 2 (q[2:4])
# towards anchor B
_FIVE_BAR_SPRINGS = ((4, tuple(FIVE_BAR_DATA["qA"]), "k1", "L01"),
                     (2, tuple(FIVE_BAR_DATA["qB"]), "k2", "L02"))


def _five_bar_mass() -> np.ndarray:
    """Constant natural-coordinate mass matrix for uniform slender rods.

    Each rod connecting two model points contributes the consistent
    two-node block (m/6) [[2I, I], [I, 2I]]; rod ends attached to a fixed
    anchor contribute only their free-point diagonal block m/3 I.
    """
    d = FIVE_BAR_DATA
    M = np.zeros((6, 6))
    I2 = np.eye(2)
    M[0:2, 0:2] += (d["m1"] / 3.0) * I2
    M[0:2, 0:2] += (d["m2"] / 3.0) * I2
    M[0:2, 2:4] += (d["m2"] / 6.0) * I2
    M[2:4, 0:2] += (d["m2"] / 6.0) * I2
    M[2:4, 2:4] += (d["m2"] / 3.0) * I2
    M[2:4, 2:4] += (d["m3"] / 3.0) * I2
    M[2:4, 4:6] += (d["m3"] / 6.0) * I2
    M[4:6, 2:4] += (d["m3"] / 6.0) * I2
    M[4:6, 4:6] += (d["m3"] / 3.0) * I2
    M[4:6, 4:6] += (d["m4"] / 3.0) * I2
    return M


def _five_bar_weight() -> np.ndarray:
    """Consistent nodal gravity loads (half of each rod's weight per end)."""
    d = FIVE_BAR_DATA
    F = np.zeros(6)
    F[1] = -GRAVITY * (d["m1"] + d["m2"]) / 2.0
    F[3] = -GRAVITY * (d["m2"] + d["m3"]) / 2.0
    F[5] = -GRAVITY * (d["m3"] + d["m4"]) / 2.0
    return F


def _spring(x: float, y: float, anchor, k: float, L0: float):
    """One anchor spring on the point (x, y), in scalars: the offset
    (dx, dy) from the anchor, the length L and the force
    (fx, fy) = -k (L - L0) (dx, dy) / L it puts on the point."""
    dx, dy = x - anchor[0], y - anchor[1]
    L = math.sqrt(dx * dx + dy * dy)
    s = -k * (L - L0)
    return dx, dy, L, s * dx / L, s * dy / L


class _FiveBarParameterMap:
    """Maps a chosen subset of the named constants onto the rho vector."""

    def __init__(self, names):
        self.names = tuple(names)
        unknown = set(names) - set(FIVE_BAR_PARAMS)
        repeated = {nm for nm in self.names if self.names.count(nm) > 1}
        if unknown or repeated:  # a repeated name would leave all but its last slot unread
            raise ValueError(f"five-bar parameters: unknown {sorted(unknown)}, "
                             f"repeated {sorted(repeated)}; choose from {FIVE_BAR_PARAMS}")
        self.index = {nm: j for j, nm in enumerate(self.names)}

    def defaults(self) -> np.ndarray:
        return np.array([FIVE_BAR_DATA[nm] for nm in self.names])

    def resolve(self, name):
        """(rho slot or None, nominal value) of a named constant: a callback
        reads it as ``r[slot]`` of ``r = rho.tolist()``, else the nominal."""
        return self.index.get(name), FIVE_BAR_DATA[name]


def _five_bar_constraints(pm: _FiveBarParameterMap) -> ConstraintSet:
    """Four squared-length constraints between consecutive points."""
    d = FIVE_BAR_DATA
    pairs = (  # (length name, tail point slice or anchor, head point slice or anchor)
        ("LA1", None, slice(0, 2)),
        ("L21", slice(0, 2), slice(2, 4)),
        ("L32", slice(2, 4), slice(4, 6)),
        ("LB3", slice(4, 6), None),
    )
    # constant Hessians of the squared lengths |D_i q + c_i|^2: 2 D_i^T D_i,
    # D_i = d(head - tail)/dq
    D = np.zeros((4, 2, 6))
    for i, (_, tail, head) in enumerate(pairs):
        if head is not None:
            D[i, :, head] = np.eye(2)
        if tail is not None:
            D[i, :, tail] = -np.eye(2)
    hess = 2.0 * np.einsum("iak,ial->ikl", D, D)
    hess_rows = hess.reshape(24, 6)
    lengths = tuple(pm.resolve(nm) for nm, _, _ in pairs)
    # phi_rho's nonzeros: (row, rho slot) of each length parameter
    rho_entries = tuple((i, j) for i, (j, _) in enumerate(lengths) if j is not None)
    qA, qB = d["qA"], d["qB"]

    def diffs(q):
        """The four link vectors head - tail as the rows of one (4, 2)
        array, from one subtraction along the chain qA, q1, q2, q3, qB."""
        chain = np.concatenate((qA, q, qB))
        return (chain[2:] - chain[:-2]).reshape(4, 2)

    def phi(t, q, rho):
        dv = diffs(q)
        r = rho.tolist()
        L = [L0 if j is None else r[j] for j, L0 in lengths]
        # the squared lengths stay numpy dots (ndarray.dot runs the BLAS dot
        # the @ operator runs, at less call overhead): a BLAS dot may
        # contract to FMA, so the scalar sum would differ in the last bit
        return np.array([
            dv[0].dot(dv[0]) - L[0] ** 2,
            dv[1].dot(dv[1]) - L[1] ** 2,
            dv[2].dot(dv[2]) - L[2] ** 2,
            dv[3].dot(dv[3]) - L[3] ** 2,
        ])

    # phi_q = 2 (D_i q + c_i)^T D_i, row by row: hess[i] q + 2 c_i^T D_i
    G_at_zero = 2.0 * np.einsum("ia,iak->ik", diffs(np.zeros(6)), D)

    def phi_q(t, q, rho):
        return (hess_rows @ q).reshape(4, 6) + G_at_zero

    def phi_rho(t, q, rho):
        out = np.zeros((4, len(pm.names)))
        r = rho.tolist()
        for i, j in rho_entries:
            out[i, j] = -2.0 * r[j]
        return out

    return ConstraintSet(m=4, phi=phi, phi_q=phi_q, phi_rho=phi_rho, hessian=hess)


def _newton_assemble(cons: ConstraintSet, q_guess: np.ndarray, dof, rho,
                     tol: float = 1e-13, max_iter: int = 60) -> np.ndarray:
    """Project the dependent coordinates onto Phi = 0 with the dof held fixed."""
    q = q_guess.copy()
    dep = [i for i in range(q.size) if i not in dof]
    for _ in range(max_iter):
        res = cons.value(0.0, q, rho)
        if np.max(np.abs(res)) <= tol:
            return q
        G = cons.jac_q(0.0, q, rho)[:, dep]
        try:
            dq = np.linalg.solve(G, -res)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("assembly failure: singular dependent Jacobian") from exc
        # damped update guards against overshooting from a poor seed
        step = 1.0
        base = np.max(np.abs(res))
        for _ in range(30):
            trial = q.copy()
            trial[dep] += step * dq
            if np.max(np.abs(cons.value(0.0, trial, rho))) < base or step < 1e-6:
                q = trial
                break
            step *= 0.5
    res = np.max(np.abs(cons.value(0.0, q, rho)))
    if res > tol:
        raise AssemblyError(f"assembly failure: residual {res:.3g} after {max_iter} iterations")
    return q


def five_bar_model(param_names=("k1", "k2")) -> MultibodyModel:
    """Five-bar mechanism with the chosen constants promoted to parameters."""
    pm = _FiveBarParameterMap(param_names)
    dims = Dimensions(n=6, p=len(pm.names))
    cons = _five_bar_constraints(pm)
    M = _read_only(_five_bar_mass())
    Fg = _five_bar_weight()
    F_v = _read_only(np.zeros((6, 6)))
    # per spring: point index, anchor, and the resolved (slot, nominal) of
    # its stiffness and natural length
    table = tuple((i, anchor, pm.resolve(k_name), pm.resolve(L_name))
                  for i, anchor, k_name, L_name in _FIVE_BAR_SPRINGS)

    def force(t, q, v, rho):
        F = Fg.copy()
        x, r = q.tolist(), rho.tolist()
        for i, anchor, (jk, k), (jL, L0) in table:
            k = k if jk is None else r[jk]
            L0 = L0 if jL is None else r[jL]
            _, _, _, fx, fy = _spring(x[i], x[i + 1], anchor, k, L0)
            F[i] += fx
            F[i + 1] += fy
        return F

    def force_partials(t, q, v, rho):
        """(F_q, F_v, F_rho): per spring the Jacobian
        -k ((1 - L0/L) I + (L0/L^3) d d^T) in its point, and the columns
        f/k and k d/L of its stiffness and natural length; F_v is a shared
        read-only zero block."""
        F_q = np.zeros((6, 6))
        F_rho = np.zeros((6, dims.p))
        x, r = q.tolist(), rho.tolist()
        for i, anchor, (jk, k), (jL, L0) in table:
            k = k if jk is None else r[jk]
            L0 = L0 if jL is None else r[jL]
            dx, dy, L, fx, fy = _spring(x[i], x[i + 1], anchor, k, L0)
            a, b = 1.0 - L0 / L, L0 / L ** 3
            F_q[i, i] = -k * (a + b * (dx * dx))
            F_q[i, i + 1] = F_q[i + 1, i] = -k * (b * (dx * dy))
            F_q[i + 1, i + 1] = -k * (a + b * (dy * dy))
            if jk is not None:
                F_rho[i, jk], F_rho[i + 1, jk] = fx / k, fy / k
            if jL is not None:
                F_rho[i, jL], F_rho[i + 1, jL] = k * dx / L, k * dy / L
        return F_q, F_v, F_rho

    def initial_state(rho):
        q0 = _newton_assemble(cons, _FIVE_BAR_POSE, _FIVE_BAR_DOF, rho)
        dep = [i for i in range(6) if i not in _FIVE_BAR_DOF]
        dq0 = np.zeros((6, dims.p))
        phir = cons.jac_rho(0.0, q0, rho)
        if np.any(phir):
            Gdep = cons.jac_q(0.0, q0, rho)[:, dep]
            dq0[dep, :] = np.linalg.solve(Gdep, -phir)
        return InitialConditions(q0=q0, v0=np.zeros(6),
                                 dq0_drho=dq0, dv0_drho=np.zeros((6, dims.p)))

    return MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: M,
        force=force,
        initial_state=initial_state,
        constraints=cons,
        force_partials=force_partials,
        mass_constant=True,
        name="five-bar",
    )


def _five_bar_costs() -> dict:
    """The five-bar cost menu.  Its constant partial blocks in q, v and vdot
    are built once, read-only; the rho block takes its width from the rho
    in hand, so a cost serves a five-bar with any parameter set."""
    sel_vy2 = np.zeros((1, 6))
    sel_vy2[0, 3] = 1.0
    sel_vy2 = _read_only(sel_vy2)
    zeros16 = _read_only(np.zeros((1, 6)))

    int_vy2 = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([v[3]]),
        g_partials=lambda t, q, v, a, rho, u: (zeros16, sel_vy2, zeros16,
                                               np.zeros((1, rho.size)), None),
        name="int-vy2",
    )
    int_ay2 = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([a[3]]),
        g_partials=lambda t, q, v, a, rho, u: (zeros16, zeros16, sel_vy2,
                                               np.zeros((1, rho.size)), None),
        name="int-ay2",
    )
    # integrand ay2^2 + vy2^2, with the acceleration entering through the
    # argument function u = ay2 (the one place the u-chain is exercised)
    int_sq = CostFunctional(
        nc=1,
        g=lambda t, q, v, a, rho, u: np.array([u[0] ** 2 + v[3] ** 2]),
        g_partials=lambda t, q, v, a, rho, u: (
            zeros16, np.array([[0, 0, 0, 2.0 * v[3], 0, 0]]), zeros16,
            np.zeros((1, rho.size)), np.array([[2.0 * u[0]]])),
        u_fn=lambda t, q, v, a, rho: np.array([a[3]]),
        u_partials=lambda t, q, v, a, rho: (zeros16, zeros16, sel_vy2, np.zeros((1, rho.size))),
        name="int-ay2sq-vy2sq",
    )
    return {"int-vy2": int_vy2, "int-ay2": int_ay2, "int-ay2sq-vy2sq": int_sq}


def five_bar(param_names=("k1", "k2"), formulation: str = "penalty") -> GalleryProblem:
    model = five_bar_model(param_names)
    if formulation == "penalty":
        dynamics = PenaltyDynamics(model)
    elif formulation == "dae":
        dynamics = DaeDynamics(model)
    else:
        raise ValueError(f"unknown formulation '{formulation}'")
    ground = FIVE_BAR_DATA["ground"]
    event = ConstrainedElasticEvent(
        name="ground-contact",
        r=lambda q: q[3] - ground,
        dr_dq=lambda q: np.array([0, 0, 0, 1.0, 0, 0]),
        admissible=1.0,  # point 2 above the ground
        dof_jump=lambda t, q, vdof, rho: np.array([vdof[0], -vdof[1]]),
        dof_jump_partials=lambda t, q, vdof, rho: (
            np.zeros(2), np.zeros((2, 6)), np.array([[1.0, 0.0], [0.0, -1.0]]),
            np.zeros((2, rho.size))),
        dof=_FIVE_BAR_DOF,
    )
    pm = _FiveBarParameterMap(param_names)
    return GalleryProblem(
        name="five-bar",
        dynamics=dynamics,
        events=[event],
        costs=_five_bar_costs(),
        default_cost="int-vy2",
        rho0=ParameterVector(pm.defaults(), pm.names),
        t_span=(0.0, 5.0),
    )


# ---------------------------------------------------------------------------
# Bouncing point mass
# ---------------------------------------------------------------------------


def bouncing_mass_model() -> MultibodyModel:
    dims = Dimensions(n=1, p=2)
    M = _read_only(np.eye(1))
    zeros11 = _read_only(np.zeros((1, 1)))
    zeros12 = _read_only(np.zeros((1, 2)))

    def initial_state(rho):
        return InitialConditions(
            q0=np.array([rho[0]]), v0=np.zeros(1),
            dq0_drho=np.array([[1.0, 0.0]]), dv0_drho=np.zeros((1, 2)),
        )

    return MultibodyModel(
        dims=dims,
        mass=lambda t, q, rho: M,
        force=lambda t, q, v, rho: np.array([-GRAVITY]),
        initial_state=initial_state,
        force_partials=lambda t, q, v, rho: (zeros11, zeros11, zeros12),
        mass_constant=True,
        name="bouncing-mass",
    )


def bouncing_mass() -> GalleryProblem:
    """Point mass dropped from height rho[0] with restitution rho[1]."""
    model = bouncing_mass_model()
    dynamics = OdeDynamics(model)
    event = VelocityJumpEvent(
        name="ground",
        r=lambda q: q[0],
        dr_dq=lambda q: np.array([1.0]),
        admissible=1.0,  # above the floor
        h=lambda t, q, v, rho: np.array([-rho[1] * v[0]]),
        h_partials=lambda t, q, v, rho: (np.zeros(1), np.zeros((1, 1)),
                                         np.array([[-rho[1]]]), np.array([[0.0, -v[0]]])),
    )
    one, zero, zeros12 = (_read_only(a) for a in (np.ones((1, 1)), np.zeros((1, 1)),
                                                   np.zeros((1, 2))))
    costs = {
        "height-final": CostFunctional(
            nc=1,
            w=lambda t, q, v, rho, u: np.array([q[0]]),
            w_partials=lambda t, q, v, rho, u: (one, zero, zeros12, None),
            name="height-final",
        ),
        "int-vy": CostFunctional(
            nc=1,
            g=lambda t, q, v, a, rho, u: np.array([v[0]]),
            g_partials=lambda t, q, v, a, rho, u: (zero, one, zero, zeros12, None),
            name="int-vy",
        ),
    }
    return GalleryProblem(
        name="bouncing-mass",
        dynamics=dynamics,
        events=[event],
        costs=costs,
        default_cost="height-final",
        rho0=ParameterVector(np.array([1.0, 0.9]), ("h0", "e")),
        t_span=(0.0, 1.5),
    )


# ---------------------------------------------------------------------------
# Tethered point mass (pendulum capture)
# ---------------------------------------------------------------------------

PENDULUM_LENGTH = 1.0


def pendulum_model(constrained: bool = True) -> MultibodyModel:
    """Planar point mass; with the tether constraint when ``constrained``.

    Parameters: rho = (x0, vy0, m) -- drop abscissa, initial vertical
    velocity, and mass.  The tether length is a fixed constant so the event
    function depends on the positions alone.
    """
    L = PENDULUM_LENGTH
    dims = Dimensions(n=2, p=3)

    def mass(t, q, rho):
        return rho[2] * np.eye(2)

    def mass_partials(t, q, rho, w):
        M_rho = np.zeros((2, 3))
        M_rho[:, 2] = w
        return np.zeros((2, 2)), M_rho

    def force(t, q, v, rho):
        return np.array([0.0, -rho[2] * GRAVITY])

    def force_partials(t, q, v, rho):
        F_rho = np.zeros((2, 3))
        F_rho[1, 2] = -GRAVITY
        return np.zeros((2, 2)), np.zeros((2, 2)), F_rho

    def initial_state(rho):
        q0 = np.array([rho[0], -0.6 * L])
        v0 = np.array([0.0, rho[1]])
        dq0 = np.zeros((2, 3))
        dq0[0, 0] = 1.0
        dv0 = np.zeros((2, 3))
        dv0[1, 1] = 1.0
        return InitialConditions(q0, v0, dq0, dv0)

    cons = None
    if constrained:
        cons = ConstraintSet(
            m=1,
            phi=lambda t, q, rho: np.array([q @ q - L ** 2]),
            phi_q=lambda t, q, rho: 2.0 * q[None, :],
            phi_rho=lambda t, q, rho: np.zeros((1, 3)),
            hessian=2.0 * np.eye(2)[None],
            one_sided=(0,),  # the tether pulls (mu > 0) and never pushes
        )

    return MultibodyModel(
        dims=dims,
        mass=mass,
        force=force,
        initial_state=initial_state,
        constraints=cons,
        mass_partials=mass_partials,
        force_partials=force_partials,
        name="pendulum",
    )


def pendulum() -> GalleryProblem:
    """Free fall inside the tether disc, inelastic capture, constrained swing."""
    free = pendulum_model(constrained=False)
    tethered = pendulum_model(constrained=True)
    dyn_free = OdeDynamics(free)
    dyn_tethered = DaeDynamics(tethered)
    L = PENDULUM_LENGTH
    event = ConstrainedInelasticEvent(
        name="tether-capture",
        r=lambda q: q @ q - L ** 2,
        dr_dq=lambda q: 2.0 * q,
        admissible=-1.0,  # inside the tether disc
        post_dynamics=dyn_tethered,
        dof=(0,),
    )
    sel_x, zeros12, zeros13 = (_read_only(a) for a in (np.array([[1.0, 0.0]]),
                                                       np.zeros((1, 2)), np.zeros((1, 3))))
    costs = {
        "x-final": CostFunctional(
            nc=1,
            w=lambda t, q, v, rho, u: np.array([q[0]]),
            w_partials=lambda t, q, v, rho, u: (sel_x, zeros12, zeros13, None),
            name="x-final",
        ),
        "int-vx": CostFunctional(
            nc=1,
            g=lambda t, q, v, a, rho, u: np.array([v[0]]),
            g_partials=lambda t, q, v, a, rho, u: (zeros12, sel_x, zeros12, zeros13, None),
            name="int-vx",
        ),
    }
    return GalleryProblem(
        name="pendulum",
        dynamics=dyn_free,
        events=[event],
        costs=costs,
        default_cost="x-final",
        rho0=ParameterVector(np.array([0.15, -1.0, 1.0]), ("x0", "vy0", "m")),
        t_span=(0.0, 1.2),
    )


def register_gallery() -> dict:
    """Name -> factory for every built-in problem."""
    return {
        "five-bar": five_bar,
        "bouncing-mass": bouncing_mass,
        "pendulum": pendulum,
    }
