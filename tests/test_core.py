import dataclasses

import numpy as np
import pytest

from hybridsens.core import (
    DimensionError,
    Dimensions,
    ParameterVector,
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


def test_nonfinite_state_rejected():
    with pytest.raises(ValueError):
        ParameterVector(np.array([np.inf]))


def test_parameter_labels():
    pv = ParameterVector(np.array([1.0, 2.0]), ("k1", "k2"))
    assert pv.labels == ("k1", "k2")
    with pytest.raises(DimensionError):
        ParameterVector(np.array([1.0]), ("a", "b"))
    # a second label of the same name could never be set by name
    with pytest.raises(DimensionError, match="duplicate"):
        ParameterVector(np.array([1.0, 2.0]), ("k", "k"))


@pytest.mark.parametrize("size", [2.0, 1.5, True, False, np.float64(3.0), "2", None])
def test_sizes_must_be_integers(size):
    for build in (lambda: Dimensions(n=size, p=1), lambda: Dimensions(n=1, p=size),
                  lambda: CostFunctional(nc=size)):
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            build()
    # numpy integers are integers
    assert Dimensions(n=np.int64(2), p=np.int32(1)).n == 2
    assert CostFunctional(nc=np.int64(2)).nc == 2
