"""System description: mass matrix, forces, constraints, cost functions.

A MultibodyModel supplies M(q,rho), F(t,q,v,rho), initial conditions with
their parameter Jacobians, and (optionally) a holonomic constraint block.
Any partial derivative the user does not supply analytically is replaced by
a central finite-difference fallback with step h = eps**(1/3) * max(1, |x|),
the standard optimal step for central differences.

CostFunctional holds the trajectory cost density g and the terminal cost w.
Both may depend on the acceleration (resolved through the active dynamics)
and on an optional argument function u(t, q, v, vdot, rho); the chain-rule
assembly of the resolved gradients lives here as well.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .core import DimensionError, Dimensions, _check_size

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

COND_LIMIT = 1e12  # mass factorization refused above this condition estimate


class SingularMatrixError(RuntimeError):
    """A mass or KKT factorization failed or is numerically rank deficient."""


def fd_step(x: float) -> float:
    """Central-difference step for the scalar coordinate value x."""
    return _CBRT_EPS * max(1.0, abs(x))


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of fun at x, one column per coordinate."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    jac = np.empty(f0.shape + (x.size,))
    for j in range(x.size):
        h = fd_step(x[j])
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        # recompute the actually-representable step
        d = xp[j] - xm[j]
        jac[..., j] = (np.asarray(fun(xp), dtype=float) - np.asarray(fun(xm), dtype=float)) / d
    return jac


def fd_derivative(fun: Callable[[float], np.ndarray], x: float) -> np.ndarray:
    """Central-difference derivative of a vector function of a scalar."""
    h = fd_step(x)
    return (np.asarray(fun(x + h), dtype=float) - np.asarray(fun(x - h), dtype=float)) / (2.0 * h)


def _refuse_shape(what, val, shape):
    """Refuse a callback's value of the wrong shape, which numpy
    broadcasting would otherwise carry on: a DimensionError naming the
    callback, the shape it returned and the shape expected.  The callers
    test the shape inline, as the values are read at every stage."""
    raise DimensionError(f"{what} returned shape {val.shape}; expected {shape}")


def _partials(callback, what, fun, args, blocks):
    """Partials of fun(*args) in its trailing arguments, one per (name,
    shape) of ``blocks``; a block whose shape is None (an absent argument)
    is None.

    With a ``callback``, ``callback(*args)`` returns all blocks at once and
    each is checked against its shape as it is read: a mismatch raises a
    DimensionError naming ``what()``, the label formed only then, and every
    block of the wrong shape.  Without one, every block is a central
    difference of fun (``fd_derivative`` in a scalar argument).
    """
    if callback is not None:
        out = tuple(callback(*args))
        if len(out) != len(blocks):
            raise DimensionError(f"{what()} returned {len(out)} blocks; expected "
                                 + ", ".join(name for name, _ in blocks))
        checked = []
        for b, (_, shape) in zip(out, blocks):
            if shape is None:
                b = None
            else:
                b = np.asarray(b, dtype=float)
                if b.shape != shape:  # name every block of the wrong shape
                    bad = []
                    for c, (name, want) in zip(out, blocks):
                        got = None if want is None else np.asarray(c, dtype=float).shape
                        if got != want:
                            bad.append(f"{name} of shape {got} (expected {want})")
                    raise DimensionError(f"{what()} returned " + ", ".join(bad))
            checked.append(b)
        return tuple(checked)
    out = []
    for i, (_, shape) in enumerate(blocks, len(args) - len(blocks)):
        if shape is None:
            out.append(None)
            continue

        def at(x, i=i):
            return fun(*args[:i], x, *args[i + 1:])
        out.append((fd_derivative if np.ndim(args[i]) == 0 else fd_jacobian)(at, args[i]))
    return tuple(out)


def _load_flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``.

    Its routines are the very objects scipy's own LAPACK lookup returns for
    float64, so every factorization is scipy's bitwise.  The scipy.linalg
    package costs more start-up time than the rest of this package, so the
    extension is loaded from its file without running that package's init;
    ``import scipy`` (a light init) has set up the bundled BLAS/LAPACK
    library path.  A module already imported is reused.  The extension's
    init leaves it in ``sys.modules``; the entry is dropped again, so that
    scipy.linalg, when imported later, binds the submodule itself, from the
    interpreter's cache of the extension: the routine objects are the same.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    base = Path(scipy.__file__).parent / "linalg" / "_flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, str(path))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"scipy's LAPACK extension {base}<suffix> not found for any of "
                      f"the suffixes {importlib.machinery.EXTENSION_SUFFIXES}")


flapack = _load_flapack()
_potrf, _potrs = flapack.dpotrf, flapack.dpotrs


def pivot_ratio(factor: np.ndarray) -> float:
    """max |d| / min |d| over the diagonal d of a triangular factor: inf for
    a zero pivot, NaN for a NaN pivot, as numpy's reductions give them.

    The diagonal is read as Python floats and scanned once: on a small
    factor numpy's reductions cost more than the factorization.  A NaN
    fails both comparisons of the scan, so it is caught where it stands.
    """
    d = factor.diagonal().tolist()
    lo = hi = abs(d[0])
    for x in d:
        x = abs(x)
        if x < lo:
            lo = x
        elif x > hi:
            hi = x
        elif x != x:
            return math.nan
    return math.inf if lo == 0.0 else hi / lo


def _spd_solve(M: np.ndarray, B: np.ndarray, what: str, t: float) -> np.ndarray:
    """Solve M X = B for symmetric positive definite M via Cholesky.

    Fails loudly (with a condition estimate) instead of returning garbage
    when M is numerically singular.  Factor and solve call LAPACK's
    potrf/potrs directly, as scipy's ``cho_factor``/``cho_solve`` do.
    """
    c, info = _potrf(M, clean=False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf ({what})")
    if info > 0:
        cond = float(np.linalg.cond(M))
        raise SingularMatrixError(
            f"{what} not positive definite at t={t:.6g} (cond~{cond:.3g})"
        )
    cond_est = np.float64(pivot_ratio(c)) ** 2  # inf on overflow, where a float's ** raises
    if not cond_est <= COND_LIMIT:  # a NaN estimate is refused too
        raise SingularMatrixError(
            f"{what} numerically singular at t={t:.6g} (cond~{cond_est:.3g})"
        )
    x, info = _potrs(c, B)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrs ({what})")
    return x


@dataclass
class ConstraintSet:
    """Holonomic constraints Phi(q, rho) = 0 and their derivative actions.

    The constraints do not depend on time; every callback still takes t
    first, as the model's do.  Only ``phi`` is mandatory:

    phi_q(t,q,rho)    -> (m, n)   Jacobian d Phi / d q
    phi_rho(t,q,rho)  -> (m, p)   d Phi / d rho

    ``hessian`` (m, n, n), symmetric in its last two axes, declares the
    curvature as data: phi_q is affine in q with d(phi_q[i])/dq = hessian[i]
    (quadratic constraints) and independent of rho.  The second-derivative
    actions then contract it exactly, and the analytic Jacobians of both
    constrained formulations rely on it; without it every action is a
    central difference of ``jac_q``.

    ``one_sided`` lists the rows i that hold as Phi_i <= 0 and can only act
    toward it, as a tether pulls but never pushes: the constraint force
    -phi_q^T mu allows them mu_i >= 0 only.  The other rows are bilateral.

    The Hessian is stored read-only, with the two read-only views the
    actions contract, (m n, n) and (m, n n), formed once.
    """

    m: int
    phi: Callable
    phi_q: Callable | None = None
    phi_rho: Callable | None = None
    hessian: np.ndarray | None = None
    one_sided: tuple[int, ...] = ()

    def __post_init__(self):
        _check_size("m", self.m)
        self.one_sided = tuple(int(i) for i in self.one_sided)
        if len(set(self.one_sided)) != len(self.one_sided) or not all(
                0 <= i < self.m for i in self.one_sided):
            raise DimensionError(f"invalid one_sided rows {self.one_sided} for m={self.m}")
        if self.hessian is None:
            return
        H = np.array(self.hessian, dtype=float)
        if H.ndim != 3 or H.shape[0] != self.m or H.shape[1] != H.shape[2]:
            raise DimensionError(f"hessian must have shape (m, n, n) with m={self.m}, got {H.shape}")
        if not np.array_equal(H, H.transpose(0, 2, 1)):
            raise DimensionError("hessian must be symmetric in its last two axes")
        H.flags.writeable = False
        self.hessian = H
        self._hess_rows = H.reshape(self.m * H.shape[1], H.shape[1])
        self._hess_flat = H.reshape(self.m, -1)

    # -- evaluations with finite-difference fallbacks ---------------------

    def value(self, t, q, rho) -> np.ndarray:
        val = np.asarray(self.phi(t, q, rho), dtype=float)
        if val.shape != (self.m,):
            _refuse_shape("constraint phi", val, (self.m,))
        return val

    def jac_q(self, t, q, rho) -> np.ndarray:
        if self.phi_q is None:
            return fd_jacobian(lambda qq: self.value(t, qq, rho), q)
        G = np.asarray(self.phi_q(t, q, rho), dtype=float)
        if G.shape != (self.m, q.size):
            _refuse_shape("constraint phi_q", G, (self.m, q.size))
        return G

    def qq_action(self, t, q, rho, w) -> np.ndarray:
        """d(phi_q @ w)/dq as an (m, n) matrix."""
        if self.hessian is not None:
            return (self._hess_rows @ w).reshape(self.m, q.size)
        return fd_jacobian(lambda qq: self.jac_q(t, qq, rho) @ w, q)

    def jac_rho(self, t, q, rho) -> np.ndarray:
        if self.phi_rho is None:
            return fd_jacobian(lambda rr: self.value(t, q, rr), rho)
        G_rho = np.asarray(self.phi_rho(t, q, rho), dtype=float)
        if G_rho.shape != (self.m, rho.size):
            _refuse_shape("constraint phi_rho", G_rho, (self.m, rho.size))
        return G_rho

    def q_rho_action(self, t, q, rho, w) -> np.ndarray:
        """d(phi_q @ w)/drho as an (m, p) matrix."""
        if self.hessian is not None:
            return np.zeros((self.m, rho.size))
        return fd_jacobian(lambda rr: self.jac_q(t, q, rr) @ w, rho)

    # -- derived kinematic quantities --------------------------------------

    def residuals(self, t, q, v, rho) -> tuple[float, float]:
        """(max |Phi|, max |phi_q v|): how far (q, v) lies off the position
        and velocity constraint manifolds (d/dt Phi = phi_q v)."""
        return (float(np.max(np.abs(self.value(t, q, rho)))),
                float(np.max(np.abs(self.jac_q(t, q, rho) @ v))))

    def accel_rhs(self, t, q, v, rho) -> np.ndarray:
        """Right side C of the acceleration constraint phi_q vdot = C."""
        return -(self.qq_action(t, q, rho, v) @ v)


@dataclass
class InitialConditions:
    q0: np.ndarray
    v0: np.ndarray
    dq0_drho: np.ndarray
    dv0_drho: np.ndarray


@dataclass
class MultibodyModel:
    """Second-order mechanical system M(q,rho) vdot = F(t,q,v,rho).

    The mass matrix does not depend on time; ``mass(t,q,rho)`` still takes
    t first, as the other callbacks do.

    Optional analytic partials (mass_partials, force_partials) override the
    finite-difference fallback.  ``mass_partials(t,q,rho,w)`` returns the
    directional contractions (M_q w (n, n), M_rho w (n, p)) of the mass
    matrix, column j being (dM/dq_j) @ w, resp. (dM/drho_j) @ w.
    ``force_partials(t,q,v,rho)`` returns all three force partials
    (F_q (n, n), F_v (n, n), F_rho (n, p)) from one evaluation, so a model
    can share their intermediates.  Without a callback every block is a
    central difference.  ``mass_constant`` declares M constant in q and rho,
    so both mass partials vanish.
    """

    dims: Dimensions
    mass: Callable
    force: Callable
    initial_state: Callable  # rho -> InitialConditions
    constraints: ConstraintSet | None = None
    mass_partials: Callable | None = None
    force_partials: Callable | None = None
    mass_constant: bool = False
    name: str = "model"

    def mass_at(self, t, q, rho) -> np.ndarray:
        M = np.asarray(self.mass(t, q, rho), dtype=float)
        if M.shape != (self.dims.n, self.dims.n):
            _refuse_shape(f"mass of '{self.name}'", M, (self.dims.n, self.dims.n))
        return M

    def force_at(self, t, q, v, rho) -> np.ndarray:
        F = np.asarray(self.force(t, q, v, rho), dtype=float)
        if F.shape != (self.dims.n,):
            _refuse_shape(f"force of '{self.name}'", F, (self.dims.n,))
        return F

    def mass_jacobians(self, t, q, rho, w):
        """(M_q w, M_rho w): zeros under ``mass_constant``, else
        ``mass_partials`` with its block shapes checked, else central
        differences of M @ w."""
        n, p = self.dims.n, self.dims.p
        if self.mass_constant:
            return np.zeros((n, n)), np.zeros((n, p))
        callback = None if self.mass_partials is None else (
            lambda *a: self.mass_partials(*a, w))
        return _partials(callback, lambda: f"mass_partials of '{self.name}'",
                         lambda t, q, rho: self.mass_at(t, q, rho) @ w, (t, q, rho),
                         (("M_q", (n, n)), ("M_rho", (n, p))))

    def subtract_mass_partials(self, t, q, rho, w, rhs) -> None:
        """rhs[:, :n] -= M_q w and rhs[:, 2n:] -= M_rho w, in place, on an
        (n, 2n + p) block over the columns [q | v | rho]: the mass term of
        the partials of a solve M w = F.  Skipped under ``mass_constant``,
        where M_q = M_rho = 0 and x - 0.0 is x bitwise."""
        if self.mass_constant:
            return
        n = self.dims.n
        M_q, M_rho = self.mass_jacobians(t, q, rho, w)
        rhs[:, :n] -= M_q
        rhs[:, 2 * n:] -= M_rho

    def force_jacobians(self, t, q, v, rho, out=None):
        """F_y at one state, one (n, 2n + p) block over the columns
        [q | v | rho], into ``out`` if given: the triple (F_q, F_v, F_rho) of
        ``force_partials`` if supplied, each block's shape checked, else
        central differences of ``force`` for all three."""
        n, p = self.dims.n, self.dims.p
        return np.concatenate(
            _partials(self.force_partials, lambda: f"force_partials of '{self.name}'",
                      self.force_at, (t, q, v, rho),
                      (("F_q", (n, n)), ("F_v", (n, n)), ("F_rho", (n, p)))), axis=1, out=out)


class OdeDynamics:
    """Unconstrained dynamics vdot = M^{-1} F."""

    def __init__(self, model: MultibodyModel):
        self.model = model
        self.dims = model.dims

    def accel(self, t, q, v, rho) -> np.ndarray:
        return self.accel_and_multipliers(t, q, v, rho)[0]

    def accel_and_multipliers(self, t, q, v, rho):
        """(M^{-1} F, None) via symmetric factorization (never an explicit
        inverse): no constraints, no multipliers."""
        M = self.model.mass_at(t, q, rho)
        F = self.model.force_at(t, q, v, rho)
        return _spd_solve(M, F, "mass matrix", t), None

    def jacobians(self, t, q, v, rho, vdot=None, mu=None):
        """(vdot, None, f_y, None): f_y, of shape (n, 2n + p), is the
        Jacobian of the acceleration map over the columns [q | v | rho].

        For each zeta in {q, v, rho}:  f_zeta = M^{-1} (F_zeta - M_zeta vdot),
        obtained by differentiating M vdot = F through the factorization:
        the right side is the (n, 2n + p) block F_y of ``force_jacobians``,
        as the saddle formulations fill theirs, and is solved at once.
        Without a given vdot it is solved here.  ``mu`` is accepted for the
        constrained formulations' signature.
        """
        model = self.model
        M = model.mass_at(t, q, rho)
        if vdot is None:
            vdot = _spd_solve(M, model.force_at(t, q, v, rho), "mass matrix", t)
        rhs = model.force_jacobians(t, q, v, rho)
        model.subtract_mass_partials(t, q, rho, vdot, rhs)
        return vdot, None, _spd_solve(M, rhs, "mass matrix", t), None

    def multiplier_jacobians(self, t, q, v, rho, vdot=None, mu=None):
        return None


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------


@dataclass
class CostFunctional:
    """Trajectory cost density g and terminal cost w.

    g(t, q, v, vdot, rho, u) -> (nc,)
    w(tF, q, v, rho, u)      -> (nc,)

    The optional argument function u(t, q, v, vdot, rho) is composed into
    both; the size of u is that of its value.  The terminal cost has no
    direct acceleration or multiplier argument (its resolved gradients would
    otherwise require the sensitivity of the final acceleration, which the
    terminal condition structure does not provide); acceleration may still
    enter w through u.

    Each function's partials come from one optional callback, evaluated once
    per state; without it every block is a central difference:

    g_partials(t,q,v,vdot,rho,u) -> (g_q, g_v, g_vdot, g_rho, g_u)
    u_partials(t,q,v,vdot,rho)   -> (u_q, u_v, u_vdot, u_rho)
    w_partials(t,q,v,rho,u)      -> (w_q, w_v, w_rho, w_u)

    with g_u and w_u None when the cost has no ``u_fn``.

    A dependence of the density on the saddle multipliers of a constrained
    formulation (the DAE's exact ones, the penalty estimate mu*) is declared
    separately through ``g_of_mu`` (an additive term
    g_of_mu(t, q, v, vdot, rho, mu) -> (nc,)) so that unconstrained costs
    never see a multiplier argument; its partials, in (q, v, vdot, rho, mu),
    are central differences.  Either term may be absent (a zero term).
    """

    nc: int
    g: Callable | None = None
    w: Callable | None = None
    u_fn: Callable | None = None
    g_partials: Callable | None = None
    u_partials: Callable | None = None
    w_partials: Callable | None = None
    g_of_mu: Callable | None = None
    name: str = "cost"

    def __post_init__(self):
        _check_size("nc", self.nc)

    # -- raw evaluations ----------------------------------------------------

    def _width(self, what, val):
        if val.shape != (self.nc,):
            raise DimensionError(f"{what} of cost '{self.name}' has shape {val.shape}, "
                                 f"expected ({self.nc},)")
        return val

    def _u(self, t, q, v, vdot, rho):
        if self.u_fn is None:
            return None
        return np.atleast_1d(np.asarray(self.u_fn(t, q, v, vdot, rho), dtype=float))

    def g_value(self, t, q, v, vdot, rho, mu=None) -> np.ndarray:
        if self.g is None:
            val = np.zeros(self.nc)
        else:
            u = self._u(t, q, v, vdot, rho)
            val = np.atleast_1d(np.asarray(self.g(t, q, v, vdot, rho, u), dtype=float))
        if self.g_of_mu is not None:
            if mu is None:
                raise ValueError(f"cost '{self.name}' needs multipliers but dynamics has none")
            val = val + np.atleast_1d(np.asarray(self.g_of_mu(t, q, v, vdot, rho, mu), dtype=float))
        return self._width("density", val)

    def w_value(self, t, q, v, rho, u=None) -> np.ndarray:
        if self.w is None:
            return np.zeros(self.nc)
        return self._width("terminal value",
                           np.atleast_1d(np.asarray(self.w(t, q, v, rho, u), dtype=float)))

    # -- partials: the callback, or central differences ----------------------

    def g_jacobians(self, t, q, v, vdot, rho, u):
        """(g_q, g_v, g_vdot, g_rho, g_u) with (t, q, v, vdot, rho, u) all
        independent; g_u is None without u."""
        nc, n = self.nc, q.size
        return _partials(self.g_partials, lambda: f"g_partials of cost '{self.name}'",
                         lambda *a: np.atleast_1d(self.g(*a)), (t, q, v, vdot, rho, u),
                         (("g_q", (nc, n)), ("g_v", (nc, n)), ("g_vdot", (nc, n)),
                          ("g_rho", (nc, rho.size)),
                          ("g_u", None if u is None else (nc, u.size))))

    def u_jacobians(self, t, q, v, vdot, rho, u):
        """(u_q, u_v, u_vdot, u_rho) of the argument function, whose value
        at this state is u."""
        nu, n = u.size, q.size
        return _partials(self.u_partials, lambda: f"u_partials of cost '{self.name}'",
                         lambda *a: np.atleast_1d(self.u_fn(*a)), (t, q, v, vdot, rho),
                         (("u_q", (nu, n)), ("u_v", (nu, n)), ("u_vdot", (nu, n)),
                          ("u_rho", (nu, rho.size))))

    def w_jacobians(self, t, q, v, rho, u):
        """(w_q, w_v, w_rho, w_u) with (t, q, v, rho, u) all independent;
        w_u is None without u."""
        nc, n = self.nc, q.size
        return _partials(self.w_partials, lambda: f"w_partials of cost '{self.name}'",
                         lambda *a: np.atleast_1d(self.w(*a)), (t, q, v, rho, u),
                         (("w_q", (nc, n)), ("w_v", (nc, n)), ("w_rho", (nc, rho.size)),
                          ("w_u", None if u is None else (nc, u.size))))

    def g_of_mu_jacobians(self, t, q, v, vdot, rho, mu):
        """(g_q, g_v, g_vdot, g_rho, g_mu) of the multiplier term, with
        (t, q, v, vdot, rho, mu) all independent, by central differences."""
        nc, n = self.nc, q.size
        return _partials(None, lambda: f"g_of_mu of cost '{self.name}'",
                         lambda *a: np.atleast_1d(self.g_of_mu(*a)), (t, q, v, vdot, rho, mu),
                         (("g_q", (nc, n)), ("g_v", (nc, n)), ("g_vdot", (nc, n)),
                          ("g_rho", (nc, rho.size)), ("g_mu", (nc, mu.size))))


# what a run without a cost integrates: one zero quadrature, so its state,
# and with it the step control's error norm, has the size a one-output
# cost gives it
ZERO_COST = CostFunctional(nc=1, name="zero")


def _y_partials(d_q, d_v, d_vdot, d_rho, *rest):
    """(d_y, d_vdot, *rest): one function's partials in (q, v, vdot, rho,
    ...) with the q, v and rho blocks joined into one block d_y over the
    columns [q | v | rho]."""
    return (np.concatenate((d_q, d_v, d_rho), axis=1), d_vdot, *rest)


def cost_density_gradients(cost: CostFunctional, t, q, v, rho, jac):
    """Resolved gradient g_y of the cost density along the dynamics, one
    (nc, 2n + p) block over the columns [q | v | rho].

    Accelerations are not independent variables, so the returned gradient
    folds the acceleration map into the direct partials:

        resolved g_y = g_y + g_vdot f_y + g_u (u_y + u_vdot f_y)
                       [+ g_mu mu_y for constrained dynamics],

    where a multiplier term g_of_mu first adds its own partials to g's (its
    acceleration partial to g_vdot).  Each term is one product, added into
    g_y in this order.

    ``jac`` is what the dynamics' ``jacobians`` returned at this state,
    (vdot, mu, f_y, mu_y).
    """
    vdot, mu, f_y, mu_y = jac
    nc, n = cost.nc, q.size
    if cost.g is None:
        g_y = np.zeros((nc, 2 * n + rho.size))
        if cost.g_of_mu is None:
            return g_y
        ga, gu = np.zeros((nc, n)), None
    else:
        u = cost._u(t, q, v, vdot, rho)
        g_y, ga, gu = _y_partials(*cost.g_jacobians(t, q, v, vdot, rho, u))
    if cost.g_of_mu is not None:
        if mu_y is None:
            raise ValueError(f"cost '{cost.name}' depends on multipliers but dynamics has none")
        m_y, ma, gmu = _y_partials(*cost.g_of_mu_jacobians(t, q, v, vdot, rho, mu))
        g_y, ga = g_y + m_y, ga + ma
    if gu is not None:
        u_y, ua = _y_partials(*cost.u_jacobians(t, q, v, vdot, rho, u))
        u_y += ua @ f_y
        g_y += gu @ u_y
    if np.count_nonzero(ga):
        g_y += ga @ f_y
    if cost.g_of_mu is not None:
        g_y += gmu @ mu_y
    return g_y


def terminal_cost_gradients(cost: CostFunctional, dyn, tF, q, v, rho):
    """Resolved terminal-cost gradients (w, w_y) at tF: the value w and one
    (nc, 2n + p) block w_y over the columns [q | v | rho].

    The acceleration may enter only through the argument function u, whose
    chain term is folded in the same way as for the density.
    """
    nc, n = cost.nc, q.size
    if cost.w is None:
        return np.zeros(nc), np.zeros((nc, 2 * n + rho.size))
    # only the argument function u sees the acceleration
    vdot, mu = (None, None) if cost.u_fn is None else dyn.accel_and_multipliers(tF, q, v, rho)
    u = cost._u(tF, q, v, vdot, rho)
    wval = cost.w_value(tF, q, v, rho, u)
    *w_blocks, wu = cost.w_jacobians(tF, q, v, rho, u)  # w_q, w_v, w_rho; w_u
    w_y = np.concatenate(w_blocks, axis=1)
    if wu is not None:
        u_y, ua = _y_partials(*cost.u_jacobians(tF, q, v, vdot, rho, u))
        if np.any(ua):
            u_y = u_y + ua @ dyn.jacobians(tF, q, v, rho, vdot, mu)[2]
        w_y = w_y + wu @ u_y
    return wval, w_y
