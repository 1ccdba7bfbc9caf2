import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltkit.cones import PolyCone
from tiltkit.polyhedra import ConvexPolyhedron
from tiltkit.project import (distance_to_cone, distance_to_polyhedron, kkt_residual,
                             project_cone, project_polyhedron)

coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


def test_projection_onto_quadrant():
    rpp = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))
    x, resid = project_polyhedron((-1.0, -1.0), rpp)
    assert np.allclose(x, [0.0, 0.0]) and resid <= 1e-12


def test_projection_onto_wedge_edge():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    x, resid = project_polyhedron((0.0, 1.0), w)
    # nearest point on the edge ray x2 = x1 by 1-D minimization along the ray
    assert np.allclose(x, [0.5, 0.5])
    assert abs(distance_to_polyhedron((0.0, 1.0), w) - math.sqrt(2) / 2) < 1e-12
    assert resid <= 1e-12


def test_interior_point_projects_to_itself():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    x, _ = project_polyhedron((0.5, 0.1), w)
    assert np.allclose(x, [0.5, 0.1])


def test_distance_zero_iff_member():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    assert distance_to_polyhedron((1.0, 0.5), w) == 0.0
    assert distance_to_polyhedron((0.0, 0.0), w) == 0.0
    assert distance_to_polyhedron((-0.1, 0.0), w) > 0


def test_cone_distance():
    c = PolyCone.from_generators([(-1, 1), (-1, -1)], 2)
    assert abs(distance_to_cone((1.0, 0.0), c) - 1.0) < 1e-12
    assert distance_to_cone((-2.0, 0.5), c) == 0.0


def test_empty_projection_raises():
    empty = ConvexPolyhedron([(1,), (-1,)], (-1, -1), dim=1)
    with pytest.raises(ValueError):
        project_polyhedron((0.0,), empty)


@given(st.tuples(coords, coords))
def test_projection_kkt_invariant(z):
    w = ConvexPolyhedron([(-1, 1), (-1, -1), (1, 0)], (0, 0, 2))
    x, resid = project_polyhedron(z, w)
    assert resid <= 1e-10
    # the step z - x must be an outward normal at x
    assert kkt_residual(z, x, w) <= 1e-10
