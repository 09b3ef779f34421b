"""Sensitivity analysis for hybrid (piecewise-smooth) multibody systems.

The package simulates second-order mechanical systems that undergo velocity
jumps or sudden constraint changes at discrete events, and computes exact
gradients of integral-plus-terminal cost functions with respect to model
parameters by three routes: forward (tangent-linear) propagation, backward
(adjoint) propagation, and a finite-difference oracle used for validation.
"""

from .core import (
    AdjointState,
    Dimensions,
    ParameterVector,
    SensitivityState,
)
from .model import CostFunctional, MultibodyModel, OdeDynamics
from .integrate import IntegratorConfig

__all__ = [
    "AdjointState",
    "CostFunctional",
    "Dimensions",
    "IntegratorConfig",
    "MultibodyModel",
    "OdeDynamics",
    "ParameterVector",
    "SensitivityState",
]
