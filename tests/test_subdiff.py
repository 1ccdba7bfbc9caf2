import math
import operator
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cells import regular_normal_cone, unions_through_origin

from tiltkit import cones, polyhedra
from tiltkit.cells import cell_complex, limiting_normal_cone
from tiltkit.cones import ConeUnion, hrep_to_vrep
from tiltkit.model import (ANALYTIC_REGISTRY, AnalyticFixture1D, FunctionSpec, QuadraticForm,
                           ValidationError)
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion, same_union
from tiltkit.rational import as_int_row, dot, int_row, matvec, neg, vec
from tiltkit.subdiff import (BISECT_STEPS, BISECT_TOL, EmptySliceError, ExactSubdifferential,
                             _analytic_subdifferential, analytic_distances,
                             analytic_inverse_points, distance_to_inverse, inverse_image,
                             stationary_points_1d, subdifferential, subdifferential_distance)


def saddle():
    return FunctionSpec(
        smooth=QuadraticForm.make([[2, 0], [0, -2]], [0, 0]),
        domain=PolyUnion([ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))]))


def cross_quad():
    return FunctionSpec(
        smooth=QuadraticForm.make([[2, 0], [0, 2]], [0, 0]),
        domain=PolyUnion([ConvexPolyhedron([(0, 1), (0, -1)], (0, 0)),
                          ConvexPolyhedron([(1, 0), (-1, 0)], (0, 0))]))


def smooth_1d():
    return FunctionSpec(smooth=QuadraticForm.make([[1]], [0]),
                        domain=PolyUnion([ConvexPolyhedron.full_space(1)]))


def line_2d():
    """|x|^2 / 2 on the line x1 = x2: its one normal cone is the line
    span (1, -1), so each graph piece has lineality."""
    return FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 1]], [0, 0]),
                        domain=PolyUnion([ConvexPolyhedron([(1, -1), (-1, 1)], (0, 0))]))


def frechet_subdifferential(f, x):
    """The regular subdifferential at x: the gradient plus the regular normal
    cone of the domain; convex-valued."""
    x = vec(x)
    return ExactSubdifferential(f.smooth.gradient(x),
                                ConeUnion([regular_normal_cone(f.domain, x)], f.dim))


def test_saddle_subdifferential_at_apex():
    sd = subdifferential(saddle(), (0, 0))
    # gradient zero plus the wedge's normal cone
    assert sd.contains((0, 0)) and sd.contains((-3, 1)) and sd.contains((-1, -1))
    assert not sd.contains((0, 5)) and not sd.contains((1, 0))


def test_subgradient_of_the_wrong_length_is_rejected_not_truncated():
    with pytest.raises(ValueError):
        subdifferential(saddle(), (0, 0)).contains((0, 0, 99))


def test_distance_to_a_point_of_the_wrong_length_is_rejected_not_broadcast():
    sd = subdifferential(saddle(), (0, 0))
    for v in [[[3.0]], [[3.0, 3.0, 0.0]], [[3.0], [1.0]], [3.0, 3.0]]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            sd.distance(np.array(v))
    assert abs(sd.distance(np.array([[3.0, 3.0]]))[0] - 3 * math.sqrt(2)) < 1e-12


def test_cross_subdifferential_at_origin():
    sd = subdifferential(cross_quad(), (0, 0))
    assert sd.contains((0, 7)) and sd.contains((7, 0))
    assert not sd.contains((1, 1))
    fr = frechet_subdifferential(cross_quad(), (0, 0))
    assert all(p.is_trivial() for p in fr.cones.pieces) and fr.contains((0, 0))


def test_smooth_point_is_gradient_singleton():
    sd = subdifferential(smooth_1d(), (3,))
    assert all(p.is_trivial() for p in sd.cones.pieces) and sd.contains((3,))
    fr = frechet_subdifferential(smooth_1d(), (3,))
    assert all(p.is_trivial() for p in fr.cones.pieces) and fr.contains((3,))


def test_frechet_subset_of_limiting():
    for f, pts in [(saddle(), [(0, 0), (1, 1), (2, 0)]),
                   (cross_quad(), [(0, 0), (1, 0), (0, -2)])]:
        for x in pts:
            fr = frechet_subdifferential(f, x)
            sd = subdifferential(f, x)
            for g in fr.cones.pieces[0].generators():
                v = tuple(b + gi for b, gi in zip(fr.base, g))
                assert sd.contains(v)


def test_convex_fixture_frechet_equals_limiting():
    quad = FunctionSpec(
        smooth=QuadraticForm.make([[1, 0], [0, 1]], [0, 0]),
        domain=PolyUnion([ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))]))
    rng = random.Random(5)
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(2))]
    pts += [(F(rng.randint(0, 5)), F(rng.randint(0, 5))) for _ in range(17)]
    for x in pts:
        fr = frechet_subdifferential(quad, x)
        sd = subdifferential(quad, x)
        assert len(sd.cones.pieces) == 1
        assert sd.cones.pieces[0].equals(fr.cones.pieces[0])


def test_subdifferential_distance_examples():
    assert subdifferential_distance(smooth_1d(), [(1,)], [(0,)]).tolist() == [[1.0]]
    d = subdifferential_distance(saddle(), [(0, 0)], [(1, 0), (-1, F(1, 2))])
    assert abs(d[0, 0] - 1.0) < 1e-12 and d[0, 1] == 0.0


def test_outside_domain_raises():
    with pytest.raises(ValidationError, match="outside the domain"):
        subdifferential(saddle(), (0, 1))


@pytest.mark.parametrize("x", [(0,), (0, 0, 0)])
def test_point_of_the_wrong_length_raises(x):
    with pytest.raises(ValidationError, match="dimension mismatch"):
        subdifferential(saddle(), x)


def test_inverse_image_saddle_is_two_segments():
    box = ConvexPolyhedron.box((0, 0), F(1))
    sl = inverse_image(saddle(), (0, 0), box)
    for t in (F(0), F(1, 4), F(1, 2), F(1)):
        assert sl.contains((t, t)) and sl.contains((t, -t))
    assert not sl.contains((F(1, 2), F(0)))


def test_inverse_image_smooth_singleton():
    fd = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]),
                      domain=PolyUnion([ConvexPolyhedron.full_space(2)]))
    sl = inverse_image(fd, (1, 2), ConvexPolyhedron.box((0, 0), F(2)))
    assert sl.contains((1, 1))
    assert not sl.contains((1, F(9, 8)))


def test_inverse_image_cross_of_zero_is_origin():
    box = ConvexPolyhedron.box((0, 0), F(1))
    sl = inverse_image(cross_quad(), (0, 0), box)
    assert sl.contains((0, 0))
    for bad in [(F(1, 2), F(0)), (F(0), F(1, 2)), (F(1), F(0))]:
        assert not sl.contains(bad)


def row_loop_inverse_image(f, v, box):
    """Oracle: the inverse image built row by row per global cell, deciding
    each candidate before it is cut by the box (two DDs per cell)."""
    v = vec(v)
    q, c = f.smooth.q, f.smooth.c
    pieces = []
    for cell in cell_complex(f.domain):
        rows = []
        rhs = []
        for g in cell.value.ineqs:
            gq = matvec(q, vec(g))  # Q symmetric: row g.Q
            rows.append(neg(gq))
            rhs.append(dot(vec(g), c) - dot(vec(g), v))
        candidate = cell.closure.with_rows(rows, rhs) if rows else cell.closure
        if candidate.is_empty():
            continue
        boxed = candidate.intersect(box)
        if not boxed.is_empty():
            pieces.append(boxed)
    return pieces


small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def exact_functions(draw):
    """A union through the origin with a random symmetric Q and c."""
    union = draw(unions_through_origin())
    n = union.dim
    upper = {(i, j): draw(small) for i in range(n) for j in range(i, n)}
    q = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    c = draw(st.lists(small, min_size=n, max_size=n))
    return FunctionSpec(smooth=QuadraticForm.make(q, c), domain=union)


@settings(max_examples=20, deadline=None)
@given(exact_functions(), st.data())
def test_graph_slices_match_row_loop_oracle(f, data):
    n = f.dim
    v = data.draw(st.lists(small, min_size=n, max_size=n))
    box = ConvexPolyhedron.box(data.draw(st.lists(small, min_size=n, max_size=n)),
                               data.draw(st.sampled_from([F(1, 2), F(1), F(2)])))
    got = inverse_image(f, v, box).pieces
    want = row_loop_inverse_image(f, v, box)
    assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in want]


@settings(max_examples=20, deadline=None)
@given(exact_functions(), st.data())
def test_inverse_adjointness_randomized(f, data):
    # gph of the subdifferential is the union of f.graph, checked against
    # the cells' subdifferential at points of the box and the domain
    n = f.dim
    box = ConvexPolyhedron.box((0,) * n, F(1))
    xs = [(F(0),) * n] + data.draw(st.lists(st.lists(small.filter(lambda t: abs(t) <= 1),
                                                     min_size=n, max_size=n), max_size=2))
    for x in map(vec, xs):
        if not f.domain.contains(x):
            continue
        sd = subdifferential(f, x)
        # the gradient, a drawn vector, and the gradient plus an active row
        vs = [sd.base, data.draw(st.lists(small, min_size=n, max_size=n))]
        active = [p.a[i] for p in f.domain.pieces if p.contains(x) for i in sorted(p.active_set(x))]
        if active:
            vs.append(tuple(b + a for b, a in zip(sd.base, data.draw(st.sampled_from(active)))))
        for v in vs:
            assert inverse_image(f, v, box).contains(x) == sd.contains(v)


def over_dens(bound=3):
    """Rationals k/d in [-bound, bound] over the denominators 1, 3, 7 and 64."""
    return st.sampled_from([1, 3, 7, 64]).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda k: F(k, d)))


def fraction_inverse_image(f, v, box):
    """Oracle: every graph piece sliced and boxed in Fractions, kept when
    its vrep has a point."""
    boxed = (piece.slice(vec(v)).intersect(box) for piece in f.graph)
    return [p for p in boxed if not p.is_empty()]


@settings(max_examples=40, deadline=None)
@given(exact_functions(), st.data())
def test_int_slices_match_fraction_slices(f, data):
    n = f.dim
    box = ConvexPolyhedron.box(data.draw(st.lists(over_dens(1), min_size=n, max_size=n)),
                               data.draw(st.sampled_from([F(1, 3), F(1), F(2)])))
    for v in data.draw(st.lists(st.lists(over_dens(), min_size=n, max_size=n),
                                min_size=1, max_size=3)):
        got = inverse_image(f, v, box).pieces
        assert [(p.a, p.b) for p in got] == \
            [(p.a, p.b) for p in fraction_inverse_image(f, v, box)]


@settings(max_examples=40, deadline=None)
@given(exact_functions(), st.data())
def test_int_membership_matches_fraction_membership(f, data):
    # the metric sweep's mask: y in sd(x) from the ints of (y, 1), against
    # the Fraction test on y - gradient; drawn y, and the gradient plus
    # fractions of each generator of sd(x), which lie on its boundary
    n = f.dim
    xs = [(0,) * n] + data.draw(st.lists(st.lists(over_dens(1), min_size=n, max_size=n),
                                         max_size=3))
    ys = data.draw(st.lists(st.lists(over_dens(), min_size=n, max_size=n), max_size=4))
    for x in map(vec, xs):
        if not f.domain.contains(x):
            continue
        sd = subdifferential(f, x)
        gens = [g for c in sd.cones.pieces for g in c.generators()]
        vs = list(map(vec, ys)) + [sd.base] + [
            tuple(b + g * F(k, 7) for b, g in zip(sd.base, gen)) for gen in gens for k in (1, -1)]
        assert sd.holds_at_each([int_row(v + (1,)) for v in vs]) == [sd.contains(v) for v in vs]


def slice_meets(piece, p, box):
    """Oracle: does `piece.slice(y)` meet the box, for p the ints of (y, 1)?
    At y = q/d a row (r_x, r_y, r_t) is (d r_x, r_y.q + d r_t) made primitive,
    the row of `piece.slice(y).intersect(box)`: one DD per (piece, y)."""
    *q, d = p
    k = piece.dim - len(q)
    rows = tuple(as_int_row([d * a for a in row[:k]]
                            + [sum(map(operator.mul, row[k:-1], q)) + d * row[-1]])
                 for row in piece.rows)
    _, rays = hrep_to_vrep(rows + box.rows + ((0,) * k + (-1,),), k + 1)
    return any(r[-1] > 0 for r in rays)


@settings(max_examples=40, deadline=None)
@given(exact_functions(), st.data())
def test_shadows_match_the_slice_meets_oracle(f, data):
    n = f.dim
    box = ConvexPolyhedron.box(data.draw(st.lists(over_dens(1), min_size=n, max_size=n)),
                               data.draw(st.sampled_from([F(1, 3), F(1), F(2)])))
    ps = [int_row(vec(y) + (1,)) for y in data.draw(
        st.lists(st.lists(over_dens(), min_size=n, max_size=n), min_size=1, max_size=4))]
    for piece in f.graph:
        shadow = piece.shadow(box)
        assert [shadow.holds_at(p) for p in ps] == [slice_meets(piece, p, box) for p in ps]


def test_shadow_of_a_line_carries_the_projected_lineality():
    # y is in the inverse image over the unit box iff y = x + s (1, -1) with
    # x1 = x2 in [-1, 1]: iff |y1 + y2| <= 2, a shadow with lineality (1, -1, 0)
    (piece,) = line_2d().graph
    box = ConvexPolyhedron.box((0, 0), F(1))
    shadow = piece.shadow(box)
    assert [int_row(l) for l in shadow.lineality] in ([(1, -1, 0)], [(-1, 1, 0)])
    for y in [(0, 0), (100, -100), (-50, 49), (F(3, 2), F(1, 2)), (F(3, 2), F(2, 3)),
              (F(-7, 3), F(1, 3)), (F(-7, 3), F(1, 7))]:
        p = int_row(vec(y) + (1,))
        assert shadow.holds_at(p) == slice_meets(piece, p, box) == (abs(sum(y)) <= 2)


def test_a_box_missing_the_domain_has_shadows_in_t_0_and_empty_slices():
    f = line_2d()
    box = ConvexPolyhedron.box((5, -5), F(1))
    for piece in f.graph:
        assert all(g[-1] == 0 for g in piece.shadow(box).generators())
    for y in [(0, 0), (5, -5), (F(1, 3), F(-1, 7))]:
        assert inverse_image(f, y, box).is_empty()


def test_inverse_images_run_two_dds_per_graph_piece_whatever_the_ys(monkeypatch):
    # one DD for each piece's lifted generators, one for its shadow's rows,
    # once per box: none per y
    f = saddle()
    graph = f.graph  # the cell complex behind it runs DDs of its own
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)
        return counted

    monkeypatch.setattr(polyhedra, "hrep_to_vrep", spy(polyhedra.hrep_to_vrep))
    monkeypatch.setattr(cones, "hrep_to_vrep", spy(cones.hrep_to_vrep))
    box = ConvexPolyhedron.box((0, 0), F(1))
    ys = [(F(i, 7), F(j, 3)) for i in range(-7, 8) for j in range(-3, 4)]
    slices = [inverse_image(f, y, box) for y in ys]
    assert len(calls) == 2 * len(graph)
    assert any(s.is_empty() for s in slices) and not all(s.is_empty() for s in slices)
    # a box built apart with equal rows is the same key: no DD, the same slices
    again = ConvexPolyhedron.box((0, 0), F(1))
    assert all(inverse_image(f, y, again) is s for y, s in zip(ys, slices))
    assert len(calls) == 2 * len(graph)
    inverse_image(f, (0, 0), ConvexPolyhedron.box((0, 0), F(1, 2)))
    assert len(calls) == 4 * len(graph)


def same_cones(a, b):
    return same_union([k.polyhedron for k in a], [k.polyhedron for k in b])


@settings(max_examples=15, deadline=None)
@given(exact_functions(), st.data())
def test_cells_read_matches_local_cell_oracle(f, data):
    # the subdifferential read off the global cells against the local-cell
    # search, at every face's vertices and relative-interior point and at
    # drawn lattice points of the domain
    n = f.dim
    pts = [p for piece in f.domain.pieces for _, face in piece.faces()
           for p in face.vrep()[0] + [face.relint_point()]]
    pts += data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=3))
    for x in dict.fromkeys(map(vec, pts)):
        if not f.domain.contains(x):
            continue
        got = subdifferential(f, x).cones.pieces
        assert same_cones(got, limiting_normal_cone(f.domain, x).pieces)
        ks = f.domain.pieces_containing(x)
        if len(ks) == 1:
            assert same_cones(got, [f.domain.pieces[ks[0]].normal_cone(x)])


def test_distance_to_inverse():
    box = ConvexPolyhedron.box((0, 0), F(1))
    s = inverse_image(saddle(), (0, 0), box)
    d = distance_to_inverse(s, np.array([[1.0, 0.0]]))
    assert d.shape == (1,) and abs(d[0] - math.sqrt(2) / 2) < 1e-10
    assert distance_to_inverse(s, np.array([[0.5, 0.5]]))[0] <= 1e-10
    s1 = inverse_image(smooth_1d(), (0,), ConvexPolyhedron.box((0,), F(1)))
    assert abs(distance_to_inverse(s1, np.array([[0.3]]))[0] - 0.3) < 1e-12


def test_distance_to_inverse_of_a_grid_equals_its_rows_one_by_one():
    s = inverse_image(saddle(), (0, 0), ConvexPolyhedron.box((0, 0), F(1)))
    grid = np.array([[1.0, 0.0], [0.5, 0.5], [-0.25, 0.75], [0.5, 1 / 3]])
    d = distance_to_inverse(s, grid)
    assert d.shape == (4,)
    assert d.tolist() == [distance_to_inverse(s, grid[i:i + 1])[0] for i in range(4)]


def test_subdifferential_distance_of_a_grid_equals_its_entries_one_by_one():
    # rows x, columns y; 0 exactly where y is in the set, tested on ints: (-1, 1/3)
    # lies in the saddle's subdifferential at the apex, and the gradient
    # (2/3, 2/7) at (1/3, -1/7) is its whole subdifferential there
    xs = [(0, 0), (1, 0), (F(1, 3), F(-1, 7))]
    ys = [(1, 0), (F(-1), F(1, 3)), (0, 2), (F(2, 3), F(2, 7))]
    d = subdifferential_distance(saddle(), xs, ys)
    assert d.shape == (3, 4) and d[0, 1] == 0.0 and d[2, 3] == 0.0
    assert (np.delete(d.reshape(-1), [1, 11]) > 0).all()
    assert d.tolist() == [[subdifferential_distance(saddle(), [x], [y])[0, 0] for y in ys]
                          for x in xs]


def test_distance_to_empty_slice_is_an_error_not_zero():
    f = saddle()
    box = ConvexPolyhedron.box((0, 0), F(1))
    with pytest.raises(EmptySliceError):
        distance_to_inverse(inverse_image(f, (0, F(1, 10)), box), np.array([[0.0, 0.0]]))


def test_stationary_points_oscillating():
    osc = ANALYTIC_REGISTRY["sin-inv"]
    roots = stationary_points_1d(osc, (0.001, 0.1), 100_000)
    assert len(roots) >= 3
    for r in roots[:5]:
        assert abs(float(osc.derivative(r))) < 1e-6


def test_stationary_points_square():
    sq = ANALYTIC_REGISTRY["square"]
    assert stationary_points_1d(sq, (-1, 1), 1001) == [0.0]
    assert stationary_points_1d(sq, (1, 2), 101) == []


def scalar_bisection_roots(fixture, interval, grid_density, target=0.0):
    """Oracle: the per-bracket scalar bisection that the array bisection of
    `stationary_points_1d` replaced."""
    lo, hi = interval
    xs = np.linspace(lo, hi, grid_density)
    ds = np.asarray(fixture.derivative(xs), dtype=float) - target
    roots = []
    sign = np.sign(ds)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(ds[i])
        for _ in range(BISECT_STEPS):
            m = 0.5 * (a + b)
            fm = float(fixture.derivative(m)) - target
            if fm == 0.0 or (b - a) < BISECT_TOL:
                break
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    for i in np.nonzero(ds == 0.0)[0]:
        roots.append(float(xs[i]))
    return sorted(set(roots))


ANALYTIC_NAMES = st.sampled_from(["sin-inv", "abs", "square"])
ENDS = st.floats(min_value=-2, max_value=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(ANALYTIC_NAMES, ENDS, ENDS, ENDS, st.integers(min_value=2, max_value=3000))
@example("sin-inv", 5e-324, 0.5, 0.0, 1000)  # a subnormal end: 1/x overflows there
def test_array_bisection_equals_scalar_bisection(name, a, b, target, density):
    fx = ANALYTIC_REGISTRY[name]
    interval = (min(a, b), max(a, b))
    assert stationary_points_1d(fx, interval, density, target) == \
        scalar_bisection_roots(fx, interval, density, target)


def test_array_bisection_stops_each_bracket_on_its_own():
    sq = ANALYTIC_REGISTRY["square"]
    # the first midpoint of (-1, 0.5) is the root -0.25
    assert stationary_points_1d(sq, (-1, 0.5), 2, target=-0.25) == [-0.25]
    # two brackets: the first stops at its exact midpoint root -1 in one
    # step, the second bisects on toward 0.3 to the width tolerance
    two = AnalyticFixture1D("two-roots", -math.inf, math.inf, lambda x: x,
                            lambda x: (np.asarray(x, dtype=float) + 1) *
                            (np.asarray(x, dtype=float) - 0.3), ())
    roots = stationary_points_1d(two, (-1.5, 0.5), 3)
    assert roots == scalar_bisection_roots(two, (-1.5, 0.5), 3)
    assert roots[0] == -1.0 and abs(roots[1] - 0.3) < 1e-12
    osc = ANALYTIC_REGISTRY["sin-inv"]
    assert stationary_points_1d(osc, (0.001, 0.1), 100_000) == \
        scalar_bisection_roots(osc, (0.001, 0.1), 100_000)


def scalar_distance(fx, x, v):
    """Oracle: d(v; enclosure at x) one point at a time, by the max rule."""
    sd = _analytic_subdifferential(fx, x)
    return max(sd.lo - v, v - sd.hi, 0.0)


@settings(max_examples=40, deadline=None)
@given(ANALYTIC_NAMES, ENDS, ENDS.map(abs), ENDS, st.integers(min_value=1, max_value=200))
def test_array_distances_equal_pointwise_distances(name, center, radius, v, n):
    fx = ANALYTIC_REGISTRY[name]
    lo, hi = max(center - radius, fx.lo), max(center + radius, fx.lo)
    # x = 0 is the exceptional point of each fixture, and sin-inv's domain end
    xs = np.append(np.linspace(lo, hi, n), 0.0)
    expected = [scalar_distance(fx, x, v) for x in xs]
    # exact equality; sin-inv's derivative is NaN at subnormal x
    assert np.array_equal(analytic_distances(fx, xs, v), expected, equal_nan=True)
    assert np.array_equal([analytic_distances(fx, [x], v)[0] for x in xs], expected,
                          equal_nan=True)


def test_analytic_distances_reject_points_outside_the_domain():
    with pytest.raises(ValidationError):
        analytic_distances(ANALYTIC_REGISTRY["sin-inv"], [0.5, -0.1], 0.0)


def test_analytic_enclosures():
    fo = FunctionSpec(fixture=ANALYTIC_REGISTRY["sin-inv"])
    sd = subdifferential(fo, (0.0,))
    assert sd.contains(0.0) and sd.contains(-5.0)  # open below at the boundary
    assert not sd.contains(2.0)
    fa = FunctionSpec(fixture=ANALYTIC_REGISTRY["abs"])
    sd0 = subdifferential(fa, (0.0,))
    assert sd0.contains(1.0) and sd0.contains(-1.0) and not sd0.contains(1.5)
    assert subdifferential(fa, (2.0,)).contains(1.0)
    assert [analytic_distances(fa.fixture, [2.0], v)[0] for v in (0.0, 1.0, 3.0)] == \
        [1.0, 0.0, 2.0]


def test_analytic_inverse_points_abs():
    pts = analytic_inverse_points(ANALYTIC_REGISTRY["abs"], 0.0, 0.0, 1.0)
    assert pts == [0.0]


@pytest.mark.parametrize("name, e", [(name, e) for name, fx in sorted(ANALYTIC_REGISTRY.items())
                                     for e in sorted({*fx.exceptional, fx.lo, fx.hi})
                                     if math.isfinite(e)])
def test_inverse_points_keep_a_special_point_iff_its_subdifferential_holds_v(name, e):
    # exceptional points and finite domain ends: the inverse points test them
    # with the enclosure `subdifferential` uses, on and just past each end
    fx = ANALYTIC_REGISTRY[name]
    sd = _analytic_subdifferential(fx, e)
    for v in (sd.lo, sd.hi, sd.lo - 2 * sd.tol, sd.hi + 2 * sd.tol):
        if math.isfinite(v):
            assert (e in analytic_inverse_points(fx, v, e, 0.01)) == sd.contains(v), v
