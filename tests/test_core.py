import dataclasses

import numpy as np
import pytest

from hybridsens.core import (
    AdjointState,
    DimensionError,
    Dimensions,
    ParameterVector,
    SensitivityState,
)
from hybridsens.model import CostFunctional


def test_dimensions_validation():
    assert [f.name for f in dataclasses.fields(Dimensions(n=6, p=2))] == ["n", "p"]
    with pytest.raises(DimensionError):
        Dimensions(n=0, p=1)
    with pytest.raises(DimensionError):
        Dimensions(n=2, p=0)
    with pytest.raises(DimensionError):
        CostFunctional(nc=0)


def test_sensitivity_stack_roundtrip():
    dims = Dimensions(n=3, p=2)
    rng = np.random.default_rng(0)
    X = SensitivityState(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)),
                         np.eye(2), rng.normal(size=(1, 2)))
    X2 = SensitivityState.from_stacked(X.stacked(), dims)
    for a, b in ((X.Q, X2.Q), (X.V, X2.V), (X.Gamma, X2.Gamma), (X.Z, X2.Z)):
        assert np.array_equal(a, b)


def test_stacked_sensitivity_reads_nc_from_its_rows():
    # the Z block is every row after 2n + p; no row left for it, or a
    # wrong column count, is refused
    dims = Dimensions(n=1, p=2)
    X = SensitivityState.from_stacked(np.arange(12.0).reshape(6, 2), dims)
    assert X.Z.shape == (2, 2)
    for shape in ((4, 2), (5, 3), (10,)):
        with pytest.raises(DimensionError):
            SensitivityState.from_stacked(np.zeros(shape), dims)


def test_adjoint_stack_roundtrip():
    dims = Dimensions(n=2, p=3)
    rng = np.random.default_rng(1)
    lam = AdjointState(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                       rng.normal(size=(3, 2)), np.eye(2))
    lam2 = AdjointState.from_stacked(lam.stacked(), dims)
    assert np.array_equal(lam.stacked(), lam2.stacked())


def test_initial_sensitivity_blocks():
    dims = Dimensions(n=2, p=2)
    X = SensitivityState.initial(dims, 1, np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(X.Gamma, np.eye(2))
    assert np.array_equal(X.Z, np.zeros((1, 2)))


def test_nonfinite_state_rejected():
    with pytest.raises(ValueError):
        ParameterVector(np.array([np.inf]))


def test_parameter_labels():
    pv = ParameterVector(np.array([1.0, 2.0]), ("k1", "k2"))
    assert pv.labels == ("k1", "k2")
    with pytest.raises(DimensionError):
        ParameterVector(np.array([1.0]), ("a", "b"))
