"""Every geometric value type is immutable after construction: no attribute
can be assigned, and every array it holds is read-only.  One base class,
`projective.Value`, holds both rules."""

import numpy as np
import pytest

from boundarykit import (ComplexBoundaryPoint, Flag3, FlatBoundary, H3Embedding,
                         HyperbolicPoint, MoebiusMap, ProjectivePoint, RealBoundaryPoint,
                         flat_boundary)
from boundarykit.projective import Value


def flat():
    return flat_boundary(Flag3([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                         Flag3([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))


VALUES = [
    lambda: ProjectivePoint(1.0, 2.0),
    lambda: ProjectivePoint(1.0, 2.0, "real"),
    lambda: MoebiusMap([[1.0, 2.0], [3.0, 4.0]]),
    lambda: RealBoundaryPoint([3.0, 4.0]),
    lambda: ComplexBoundaryPoint([1.0, 0.0, 1.0]),
    lambda: HyperbolicPoint([0.0, 0.0, 1.0]),
    lambda: H3Embedding(np.eye(4), 4),
    lambda: Flag3([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    flat,
]


def test_every_value_type_is_covered():
    types = {type(make()) for make in VALUES}
    assert types == {ProjectivePoint, MoebiusMap, RealBoundaryPoint, ComplexBoundaryPoint,
                     HyperbolicPoint, H3Embedding, Flag3, FlatBoundary}


@pytest.mark.parametrize("make", VALUES, ids=lambda make: type(make()).__name__)
def test_a_value_takes_no_assignment_and_holds_read_only_arrays(make):
    value = make()
    names = type(value).__slots__
    for name in names + ("extra",):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    arrays = [getattr(value, name) for name in names
              if isinstance(getattr(value, name), np.ndarray)]
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 99.0


@pytest.mark.parametrize("make", VALUES, ids=lambda make: type(make()).__name__)
def test_a_value_type_takes_both_rules_from_the_one_base(make):
    cls = type(make())
    assert issubclass(cls, Value)
    assert "__setattr__" not in vars(cls) and "_hold" not in vars(cls)


def test_a_value_leaves_the_array_it_was_built_from_writeable():
    matrix, basis = np.eye(4), np.eye(3)
    H3Embedding(matrix, 4)
    FlatBoundary((), basis)
    assert matrix.flags.writeable and basis.flags.writeable
