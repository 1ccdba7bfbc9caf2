import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit import project
from tiltkit.cones import PolyCone
from tiltkit.polyhedra import ConvexPolyhedron
from tiltkit.project import (FEAS_TOL, _projection_data, distance_to_polyhedron,
                             distances_to_unions, project_polyhedron)

coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


def float_rows(poly):
    a = np.array([[float(x) for x in row] for row in poly.a], dtype=float).reshape(poly.m, poly.dim)
    return a, np.array([float(x) for x in poly.b], dtype=float)


def subset_projection(z, poly):
    """Reference projection: the best feasible equality-constrained
    projection over every row subset of size at most dim."""
    z = np.asarray(z, dtype=float)
    a, b = float_rows(poly)
    scale = 1.0 + float(np.max(np.abs(b))) if poly.m else 1.0
    if poly.m == 0 or np.max(a @ z - b) <= FEAS_TOL * scale:
        return z.copy()
    near = float(np.max(np.abs(z)) + np.max(np.abs(b)))
    best = None
    for k in range(1, min(poly.dim, poly.m) + 1):
        for subset in itertools.combinations(range(poly.m), k):
            idx = list(subset)
            asub = a[idx]
            solve_t = asub.T @ np.linalg.pinv(asub @ asub.T, rcond=1e-12)
            x = z - solve_t @ (asub @ z - b[idx])
            if np.max(np.abs(asub @ x - b[idx])) > 1e-7 * scale:
                continue  # inconsistent subset for this z
            if np.max(a @ x - b) > FEAS_TOL * scale * min(1.0, near):
                continue  # outside, by a tolerance that shrinks with z and b
            d = float(np.linalg.norm(x - z))
            if best is None or d < best[0] - 1e-15:
                best = (d, x)
    if best is None:
        raise ValueError("projection onto empty polyhedron")
    return best[1]


def kkt_residual(z, x, poly, active_tol=1e-8):
    """Distance of z - x to the cone of nearly-active outward normals.

    Exact nonnegative least squares by enumeration: by Caratheodory's
    theorem the nearest cone point is a nonnegative combination of at most
    dim active rows, so the least residual over every such subset whose
    least-squares multipliers are all nonnegative is the distance.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    a, b = float_rows(poly)
    act = [i for i in range(poly.m) if a[i] @ x > b[i] - active_tol * (1.0 + abs(b[i]))]
    v = z - x
    best = float(np.linalg.norm(v))
    for k in range(1, min(poly.dim, len(act)) + 1):
        for subset in itertools.combinations(act, k):
            g = a[list(subset)]
            lam, *_ = np.linalg.lstsq(g.T, v, rcond=None)
            if np.all(lam >= 0):
                best = min(best, float(np.linalg.norm(g.T @ lam - v)))
    return best


def row(z):
    """One point as a one-row (1, n) array."""
    return np.array([z], dtype=float)


def projection_or_empty(project, z, poly):
    try:
        return project(z, poly)
    except ValueError:
        return None


def test_projection_onto_quadrant():
    rpp = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))
    x = project_polyhedron(row((-1.0, -1.0)), rpp)[0]
    assert np.allclose(x, [0.0, 0.0]) and kkt_residual((-1.0, -1.0), x, rpp) <= 1e-12


def test_projection_onto_wedge_edge():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    x = project_polyhedron(row((0.0, 1.0)), w)[0]
    # nearest point on the edge ray x2 = x1 by 1-D minimization along the ray
    assert np.allclose(x, [0.5, 0.5])
    assert abs(distance_to_polyhedron(row((0.0, 1.0)), w)[0] - math.sqrt(2) / 2) < 1e-12
    assert kkt_residual((0.0, 1.0), x, w) <= 1e-12


def test_interior_point_projects_to_itself():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    x = project_polyhedron(row((0.5, 0.1)), w)[0]
    assert np.allclose(x, [0.5, 0.1])


def test_distance_zero_iff_member():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    assert distance_to_polyhedron(row((1.0, 0.5)), w)[0] == 0.0
    assert distance_to_polyhedron(row((0.0, 0.0)), w)[0] == 0.0
    assert distance_to_polyhedron(row((-0.1, 0.0)), w)[0] > 0


def test_cone_distance():
    c = PolyCone.from_generators([(-1, 1), (-1, -1)], 2)
    assert abs(distance_to_polyhedron(row((1.0, 0.0)), c.polyhedron)[0] - 1.0) < 1e-12
    assert distance_to_polyhedron(row((-2.0, 0.5)), c.polyhedron)[0] == 0.0


def test_empty_projection_raises():
    empty = ConvexPolyhedron([(1,), (-1,)], (-1, -1), dim=1)
    with pytest.raises(ValueError):
        project_polyhedron(row((0.0,)), empty)


@given(st.tuples(coords, coords))
def test_projection_kkt_invariant(z):
    w = ConvexPolyhedron([(-1, 1), (-1, -1), (1, 0)], (0, 0, 2))
    x = project_polyhedron(row(z), w)[0]
    # the step z - x must be an outward normal at x
    assert kkt_residual(z, x, w) <= 1e-10


small_ints = st.integers(-2, 2)


@st.composite
def polyhedron_and_points(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    rows = draw(st.lists(st.tuples(*[small_ints] * n), min_size=m, max_size=m))
    rhs = draw(st.lists(small_ints, min_size=m, max_size=m))
    point = st.tuples(*[st.floats(-4, 4, allow_nan=False)] * n)
    return ConvexPolyhedron(rows, rhs, dim=n), draw(st.lists(point, min_size=1, max_size=6))


@settings(max_examples=300)
@given(polyhedron_and_points())
def test_face_projection_matches_subset_enumeration(case):
    # empty, unbounded, lineality and degenerate vertices all occur here
    poly, points = case
    tol = 1e-12 * (1.0 + max((abs(float(x)) for x in poly.b), default=0.0))
    for z in points:
        x = projection_or_empty(project_polyhedron, row(z), poly)
        x = None if x is None else x[0]
        ref = projection_or_empty(subset_projection, z, poly)
        assert (x is None) == (ref is None)
        if x is not None:
            zf = np.asarray(z)
            assert abs(np.linalg.norm(x - zf) - np.linalg.norm(ref - zf)) <= tol


@given(st.tuples(coords, coords, coords))
@example((1e-9, 1e-9, 0.0))  # near the apex: (1e-9, 0, 0) is within FEAS_TOL, but outside
def test_cone_projection_matches_subset_enumeration(z):
    cone = PolyCone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (1, 1, 2)], 3)
    poly = ConvexPolyhedron(cone.ineqs, [0] * len(cone.ineqs), dim=3)
    x = project_polyhedron(row(z), cone.polyhedron)[0]
    assert np.linalg.norm(x - subset_projection(z, poly)) <= 1e-12
    assert kkt_residual(z, x, poly) <= 1e-10


def test_single_point_piece_has_one_candidate():
    # twelve rows through the origin, cutting out the single point 0
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]
    rows = [r for d in dirs for r in (d, tuple(-x for x in d))]
    point = ConvexPolyhedron(rows, [0] * 12)
    assert len(_projection_data(point)[2]) == 1  # 78 row subsets
    x = project_polyhedron(row((0.3, -0.7)), point)[0]
    assert np.array_equal(x, [0.0, 0.0])


def test_projection_onto_polygon_with_many_rows():
    rows = [(p, q) for p in range(-2, 3) for q in range(-2, 3) if (p, q) != (0, 0)]
    polygon = ConvexPolyhedron(rows, [2] * len(rows))
    assert polygon.m > 20
    a, b = float_rows(polygon)
    for z in [(5.0, 0.3), (-3.0, 4.0), (0.2, 0.1), (1.5, 1.5)]:
        x = project_polyhedron(row(z), polygon)[0]
        assert np.max(a @ x - b) <= 1e-12
        assert np.linalg.norm(x - subset_projection(z, polygon)) <= 1e-12
        assert kkt_residual(z, x, polygon) <= 1e-10


@settings(deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
def test_projection_data_is_computed_once_per_value(zs):
    rows = [(p, q) for p in range(-2, 3) for q in range(-2, 3) if (p, q) != (0, 0)]
    polygon = ConvexPolyhedron(rows, [2] * len(rows))
    cone = PolyCone.from_generators([(1, 0), (1, 2)], 2)
    assert cone.polyhedron is cone.polyhedron
    for poly in (polygon, cone.polyhedron):
        _projection_data.cache_clear()
        kept = [project_polyhedron(row(z), poly) for z in zs]
        # polyhedra built apart with equal rows share the memo's one entry
        for z, x in zip(zs, kept):
            fresh = ConvexPolyhedron(poly.a, poly.b, dim=poly.dim)
            assert np.array_equal(project_polyhedron(row(z), fresh), x)
        assert _projection_data.cache_info().misses == 1


def pointwise_projection(z, poly):
    """Oracle: the one-point projection that the whole-grid projection
    replaced, the same face candidates tried for one point at a time."""
    z = np.asarray(z, dtype=float)
    a, b, subs, b_max = _projection_data(poly)
    tol = FEAS_TOL * (1.0 + b_max)
    if poly.m == 0 or np.max(a @ z - b) <= tol:
        return z.copy()
    best = None
    for asub, bsub, solve_t in subs:
        x = z - solve_t @ (asub @ z - bsub)
        if np.max(a @ x - b) > tol * min(1.0, np.max(np.abs(z)) + b_max):
            continue
        d = float(np.linalg.norm(x - z))
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    if best is None:
        raise ValueError("projection onto empty polyhedron")
    return best[1]


@st.composite
def polyhedron_or_cone_and_grid(draw):
    """A polyhedron or a cone's inequality polyhedron, with outside points,
    their projections (on a face) and a relative-interior point."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        m = draw(st.integers(0, 6))
        rows = draw(st.lists(st.tuples(*[small_ints] * n), min_size=m, max_size=m))
        rhs = draw(st.lists(small_ints, min_size=m, max_size=m))
        poly = ConvexPolyhedron(rows, rhs, dim=n)
    else:
        gens = draw(st.lists(st.tuples(*[small_ints] * n), min_size=1, max_size=4))
        poly = PolyCone.from_generators(gens, n).polyhedron
    point = st.tuples(*[st.floats(-4, 4, allow_nan=False)] * n)
    zs = draw(st.lists(point, min_size=1, max_size=8))
    projected = [projection_or_empty(pointwise_projection, z, poly) for z in zs]
    zs += [tuple(x) for x in projected if x is not None]
    inner = poly.relint_point()
    if inner is not None:
        zs.append(tuple(float(t) for t in inner))
    order = draw(st.permutations(range(len(zs))))
    return poly, np.array([zs[i] for i in order], dtype=float).reshape(len(zs), n)


@settings(max_examples=300, deadline=None)
@given(polyhedron_or_cone_and_grid())
def test_grid_projection_equals_pointwise_projection_bit_for_bit(case):
    poly, zs = case
    expected = [projection_or_empty(pointwise_projection, z, poly) for z in zs]
    if any(x is None for x in expected):  # some point meets an empty polyhedron
        with pytest.raises(ValueError):
            project_polyhedron(zs, poly)
        return
    assert np.array_equal(project_polyhedron(zs, poly), expected)
    assert np.array_equal(distance_to_polyhedron(zs, poly),
                          [np.linalg.norm(x - z) for x, z in zip(expected, zs)])
    # one point is the m = 1 case, a one-row grid
    assert np.array_equal(project_polyhedron(zs[:1], poly), expected[:1])


def test_empty_polyhedron_raises_on_a_grid():
    empty = ConvexPolyhedron([(1,), (-1,)], (-1, -1), dim=1)
    with pytest.raises(ValueError):
        project_polyhedron(np.array([[0.0], [3.0]]), empty)


def test_distance_to_polyhedron_of_a_grid_equals_its_rows_one_by_one():
    w = ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))
    grid = np.array([[0.0, 1.0], [1.0, 0.5], [-2.0, 0.0]])
    d = distance_to_polyhedron(grid, w)
    assert d.shape == (3,)
    assert d.tolist() == [distance_to_polyhedron(grid[i:i + 1], w)[0] for i in range(3)]


def test_distance_to_cone_of_a_grid_equals_its_rows_one_by_one():
    c = PolyCone.from_generators([(-1, 1), (-1, -1)], 2)
    grid = np.array([[1.0, 0.0], [-2.0, 0.5], [0.5, 3.0]])
    d = distance_to_polyhedron(grid, c.polyhedron)
    assert d.shape == (3,)
    assert d.tolist() == [distance_to_polyhedron(grid[i:i + 1], c.polyhedron)[0]
                          for i in range(3)]


@st.composite
def union_requests(draw):
    """Requests (z, polys) over a pool of nonempty polyhedra in R^n, among them
    equal polyhedra built apart, with empty point arrays and polyhedra asked
    for by several requests."""
    n = draw(st.integers(1, 3))
    cone = PolyCone.from_generators(
        draw(st.lists(st.tuples(*[small_ints] * n), min_size=1, max_size=3)), n)
    center = draw(st.tuples(*[small_ints] * n))
    pool = [cone.polyhedron, ConvexPolyhedron(cone.ineqs, [0] * len(cone.ineqs), dim=n),
            ConvexPolyhedron.box(center, 1), ConvexPolyhedron.box(center, 1).intersect(
                ConvexPolyhedron.full_space(n))]
    point = st.tuples(*[st.floats(-4, 4, allow_nan=False)] * n)
    requests = []
    for _ in range(draw(st.integers(1, 5))):
        zs = draw(st.lists(point, max_size=4))
        polys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        requests.append((np.array(zs, dtype=float).reshape(len(zs), n), polys))
    return requests


@settings(deadline=None)
@given(union_requests())
def test_batched_distances_equal_per_request_distances(requests):
    calls = []

    def counted(z, poly):
        calls.append(poly)
        return distance_to_polyhedron(z, poly)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(project, "distance_to_polyhedron", counted)
        got = distances_to_unions(requests)
    assert len(got) == len(requests)
    for (z, polys), d in zip(requests, got):
        want = np.min([distance_to_polyhedron(z, p) for p in polys], axis=0)
        assert d.shape == (len(z),) and np.array_equal(d, want)
    # one projection per distinct polyhedron, equal ones built apart included
    assert len(calls) == len(set(calls)) == len({p for _, polys in requests for p in polys})
