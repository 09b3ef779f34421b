"""Domain types and dimension bookkeeping shared by every other module.

All state is stored dense; target problems have n, p of order ten at most.
The stacked sensitivity and adjoint matrices follow one block order
everywhere, [q; v; rho; z].  Jump matrices index into these blocks, so the
order must never change silently.

The sweeps carry each state as one array without its identity block: the
tangent as the (2n + nc, p) array [Q; V; Z] (Gamma = I), the adjoint as the
(2n + p, nc) array [lamQ; lamV; lamGamma] (lamZ = I), and they cross events
on those arrays (``JumpMatrix.direct`` and ``JumpMatrix.adjoint``).
``SensitivityState`` and ``AdjointState`` are what the public functions
return; ``stacked()`` forms the full matrix, identity block included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raised when array sizes are inconsistent with the declared dimensions."""


def _check_size(name, value):
    """Refuse a size that is not an integer of at least 1, a bool included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DimensionError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes of a model.

    n:  generalized coordinates
    p:  parameters

    The other sizes live where they are defined: the number of cost outputs
    nc on the cost (``CostFunctional.nc``), the constraint count on the
    constraint set (``ConstraintSet.m``).
    """

    n: int
    p: int

    def __post_init__(self):
        _check_size("n", self.n)
        _check_size("p", self.p)


@dataclass
class ParameterVector:
    """Parameter values with human-readable labels."""

    rho: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.ndim != 1 or self.rho.size < 1:
            raise DimensionError(f"rho must be a non-empty 1-d array, got shape {self.rho.shape}")
        if not np.isfinite(self.rho).all():
            raise ValueError("non-finite parameter value")
        if not self.labels:
            self.labels = tuple(f"rho{i}" for i in range(self.rho.size))
        if len(self.labels) != self.rho.size:
            raise DimensionError(
                f"{len(self.labels)} labels for {self.rho.size} parameters"
            )
        if len(set(self.labels)) != len(self.labels):
            raise DimensionError(f"duplicate parameter labels in {self.labels}")


@dataclass
class SensitivityState:
    """Stacked forward-sensitivity blocks.

    Q:      d q / d rho          (n x p)
    V:      d v / d rho          (n x p)
    Gamma:  d rho / d rho = I    (p x p)
    Z:      d z / d rho          (nc x p)
    """

    Q: np.ndarray
    V: np.ndarray
    Gamma: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.V = np.atleast_2d(np.asarray(self.V, dtype=float))
        self.Gamma = np.atleast_2d(np.asarray(self.Gamma, dtype=float))
        self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        p = self.Gamma.shape[0]
        if self.Gamma.shape != (p, p):
            raise DimensionError(f"Gamma must be square, got {self.Gamma.shape}")
        for name, block in (("Q", self.Q), ("V", self.V), ("Z", self.Z)):
            if block.shape[1] != p:
                raise DimensionError(f"{name} has {block.shape[1]} columns, expected {p}")

    def stacked(self) -> np.ndarray:
        """Return the (2n+p+nc) x p stacked matrix [Q; V; Gamma; Z]."""
        return np.vstack([self.Q, self.V, self.Gamma, self.Z])


@dataclass
class AdjointState:
    """Stacked adjoint blocks, one column per cost output.

    lamZ is the nc x nc identity for all time (the quadrature enters the cost
    with unit weight); the test suite asserts this invariant after
    propagation.
    """

    lamQ: np.ndarray
    lamV: np.ndarray
    lamGamma: np.ndarray
    lamZ: np.ndarray

    def __post_init__(self):
        self.lamQ = np.atleast_2d(np.asarray(self.lamQ, dtype=float))
        self.lamV = np.atleast_2d(np.asarray(self.lamV, dtype=float))
        self.lamGamma = np.atleast_2d(np.asarray(self.lamGamma, dtype=float))
        self.lamZ = np.atleast_2d(np.asarray(self.lamZ, dtype=float))
        nc = self.lamZ.shape[0]
        if self.lamZ.shape != (nc, nc):
            raise DimensionError(f"lamZ must be square, got {self.lamZ.shape}")
        for name, block in (("lamQ", self.lamQ), ("lamV", self.lamV), ("lamGamma", self.lamGamma)):
            if block.shape[1] != nc:
                raise DimensionError(f"{name} has {block.shape[1]} columns, expected {nc}")

    def stacked(self) -> np.ndarray:
        """Return the (2n+p+nc) x nc stacked matrix [lamQ; lamV; lamGamma; lamZ]."""
        return np.vstack([self.lamQ, self.lamV, self.lamGamma, self.lamZ])
