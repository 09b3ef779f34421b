import numpy as np
import pytest

from hybridsens.core import (
    AdjointState,
    DimensionError,
    Dimensions,
    ParameterVector,
    SensitivityState,
)


def test_dimensions_validation():
    d = Dimensions(n=6, p=2, nc=1, m=4)
    assert d.f == 2
    with pytest.raises(DimensionError):
        Dimensions(n=0, p=1)
    with pytest.raises(DimensionError):
        Dimensions(n=2, p=0)
    with pytest.raises(DimensionError):
        Dimensions(n=2, p=1, nc=0)
    with pytest.raises(DimensionError):
        Dimensions(n=2, p=1, m=2)


def test_sensitivity_stack_roundtrip():
    dims = Dimensions(n=3, p=2, nc=1)
    rng = np.random.default_rng(0)
    X = SensitivityState(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)),
                         np.eye(2), rng.normal(size=(1, 2)))
    X2 = SensitivityState.from_stacked(X.stacked(), dims)
    for a, b in ((X.Q, X2.Q), (X.V, X2.V), (X.Gamma, X2.Gamma), (X.Z, X2.Z)):
        assert np.array_equal(a, b)


def test_adjoint_stack_roundtrip():
    dims = Dimensions(n=2, p=3, nc=2)
    rng = np.random.default_rng(1)
    lam = AdjointState(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                       rng.normal(size=(3, 2)), np.eye(2))
    lam2 = AdjointState.from_stacked(lam.stacked(), dims)
    assert np.array_equal(lam.stacked(), lam2.stacked())


def test_initial_sensitivity_blocks():
    dims = Dimensions(n=2, p=2, nc=1)
    X = SensitivityState.initial(dims, np.eye(2), np.zeros((2, 2)))
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
