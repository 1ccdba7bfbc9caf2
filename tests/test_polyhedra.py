import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lp import ARITHMETIC, OPTIMAL, feasible, max_over

from tiltkit import lp
from tiltkit.cones import PolyCone
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion, poly_union_covers, same_union
from tiltkit.rational import F0, dot, neg, rank, vec


def wedge():
    return ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))


def test_active_sets():
    w = wedge()
    assert sorted(w.active_set((0, 0))) == [0, 1]
    assert sorted(w.active_set((1, 1))) == [0]
    rpp = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))
    assert rpp.active_set((2, 3)) == frozenset()
    with pytest.raises(ValueError):
        w.active_set((0, 1))


def test_polyhedra_compare_and_hash_by_their_rows():
    w = wedge()
    same = ConvexPolyhedron([(F(-1), 1), (-1, F(-1))], [F(0), 0])
    assert same == w and hash(same) == hash(w) and same is not w
    assert {w: "kept"}[same] == "kept"
    # the same set from other rows, or another ambient space, is another value
    assert ConvexPolyhedron([(-1, -1), (-1, 1)], (0, 0)) != w
    assert ConvexPolyhedron([(-2, 2), (-1, -1)], (0, 0)) != w
    assert ConvexPolyhedron.full_space(1) != ConvexPolyhedron.full_space(2)
    assert (w == object()) is False and w != w.a


fracs = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def rows_and_points(draw):
    n = draw(st.integers(1, 3))
    a = draw(st.lists(st.tuples(*[fracs] * n), min_size=1, max_size=4))
    points = draw(st.lists(st.tuples(*[fracs] * n), min_size=1, max_size=4))
    # each b_i is 0, free, or a_i . p for a drawn point p, so that rows are
    # often tight at the points
    b = [draw(st.sampled_from([F0, draw(fracs), dot(row, draw(st.sampled_from(points)))]))
         for row in a]
    return a, b, points


@given(rows_and_points())
def test_membership_matches_fraction_dot(case):
    a, b, points = case
    poly = ConvexPolyhedron(a, b)
    cone = PolyCone.from_inequalities(a, poly.dim)
    for p in points:
        vals = [dot(row, vec(p)) - bi for row, bi in zip(poly.a, poly.b)]
        inside = all(v <= 0 for v in vals)
        assert poly.contains(p) == inside
        assert cone.contains(p) == all(dot(row, vec(p)) <= 0 for row in poly.a)
        if inside:
            assert poly.active_set(p) == frozenset(i for i, v in enumerate(vals) if v == 0)
        else:
            with pytest.raises(ValueError):
                poly.active_set(p)


@given(rows_and_points(), st.integers(0, 3), st.data())
def test_slice_and_preimage_membership(case, k, data):
    a, b, points = case
    poly = ConvexPolyhedron(a, b)
    n = poly.dim
    k = min(k, n)
    cols = [vec(c) for c in data.draw(st.lists(st.tuples(*[fracs] * n), max_size=3))]
    for p in map(vec, points):
        # x in P.slice(y) iff (x, y) in P
        assert poly.slice(p[k:]).contains(p[:k]) == poly.contains(p)
        s = data.draw(st.tuples(*[fracs] * len(cols)))
        image = tuple(pi + sum((si * c[i] for si, c in zip(s, cols)), F0)
                      for i, pi in enumerate(p))
        assert poly.preimage(cols, p).contains(s) == poly.contains(image)


def test_membership_rejects_points_of_the_wrong_length():
    poly = ConvexPolyhedron([(1, 0)], (1,))
    cones = [PolyCone.from_inequalities([(1, 0)], 2), PolyCone.from_generators([(1, 0)], 2)]
    for bad in [(0,), (0, 0, 0)]:
        for test in [poly.contains, poly.active_set] + [c.contains for c in cones]:
            with pytest.raises(ValueError):
                test(bad)


def test_normal_and_tangent_cones():
    rpp = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))
    n = rpp.normal_cone((0, 0))
    assert sorted(n.rays) == [(-1, 0), (0, -1)]
    w = wedge()
    t = w.tangent_cone((0, 0))
    assert t.equals(w.normal_cone((0, 0)).polar())
    interior = rpp.normal_cone((2, 3))
    assert interior.is_trivial()
    edge = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0)).tangent_cone((1, 0))
    assert edge.contains((0, 1)) and edge.contains((-5, 2)) and not edge.contains((0, -1))


def test_faces_canonical():
    w = wedge()
    faces = w.faces()
    assert [sorted(k) for k, _ in faces] == [[], [0], [1], [0, 1]]
    dims = [f.poly_dim() for _, f in faces]
    assert dims == [2, 1, 1, 0]
    line = ConvexPolyhedron([(0, 1), (0, -1)], (0, 0))
    assert len(line.faces()) == 1


def test_vrep_box_and_halfline():
    sq = ConvexPolyhedron.box((0, 0), F(1))
    pts, rec, lin = sq.vrep()
    assert len(pts) == 4 and not rec and not lin
    hl = ConvexPolyhedron([(-1,)], (0,), dim=1)
    pts, rec, lin = hl.vrep()
    assert pts == [(F(0),)] and rec == [(F(1),)] and not lin
    assert hl.vrep()[1] and not any(sq.vrep()[1:])  # bounded: no rays, no lineality


def test_box_halfwidth_is_exact():
    # a float halfwidth would enter as its binary expansion, 0.1 as
    # 3602879701896397/2^55; it is rejected, as the constructor rejects floats
    with pytest.raises(TypeError):
        ConvexPolyhedron.box((0,), 0.1)
    assert ConvexPolyhedron.box((0,), "1/3").b == (F(1, 3), F(1, 3))


def test_empty_and_relint():
    empty = ConvexPolyhedron([(1,), (-1,)], (-1, -1), dim=1)
    assert empty.is_empty()
    line = ConvexPolyhedron([(0, 1), (0, -1)], (0, 0))
    assert sorted(line.implied_equalities()) == [0, 1]
    p = line.relint_point()
    assert p is not None and p[1] == 0


@pytest.mark.parametrize("rows, rhs", [
    ([(-1, 0), (0, -1), (1, 1)], [0, 0, 1]),  # triangle
    ([(0, 1), (0, -1), (1, 0), (-1, 0)], [0, 0, 1, 0]),  # segment, implied pair
    ([(-1, 0), (0, -1), (1, -1)], [0, -1, 2]),  # unbounded: the barycenter is on y = 1
    ([(1, 0, 0), (-1, 0, 0), (0, -1, 1)], [1, -1, 0]),  # x = 1, lineality (0, 1, 1)
])
def test_relint_point_runs_no_lp(monkeypatch, rows, rhs):
    monkeypatch.setattr(lp, "solve_standard", lambda *args: pytest.fail("relint_point ran an LP"))
    p = ConvexPolyhedron(rows, rhs)
    rp = p.relint_point()
    implied = p.implied_equalities()
    for i, (row, bi) in enumerate(zip(p.a, p.b)):
        assert (dot(row, rp) == bi) if i in implied else (dot(row, rp) < bi)
    assert ConvexPolyhedron([(1,), (-1,)], (-1, -1)).relint_point() is None


def test_union_rejects_empty_piece():
    empty = ConvexPolyhedron([(1,), (-1,)], (-1, -1), dim=1)
    with pytest.raises(ValueError):
        PolyUnion([empty])


def test_union_coverage():
    sq = ConvexPolyhedron.box((0, 0), F(1))
    left = sq.intersect(ConvexPolyhedron([(1, 0)], [0]))
    right = sq.intersect(ConvexPolyhedron([(-1, 0)], [0]))
    assert poly_union_covers([left, right], [sq])
    assert not poly_union_covers([left], [sq])
    assert poly_union_covers([sq], [left])


def test_same_union_is_set_equality():
    # the two coordinate axes of R^2, as cones in inequality form
    axes = [PolyCone.from_generators([], 2, lineality=[l]).polyhedron
            for l in [(1, 0), (0, 1)]]
    ray = PolyCone.from_generators([(1, 0)], 2).polyhedron
    plane = PolyCone.from_inequalities([], 2).polyhedron
    assert same_union(axes, axes[::-1])
    assert same_union(axes, axes + [ray])  # a cone inside the union adds nothing
    assert not same_union(axes, axes[:1])  # a needed cone missing
    assert not same_union(axes + [plane], axes)  # an extra cone
    assert same_union([], []) and not same_union([ray], [])


def test_translate():
    sq = ConvexPolyhedron.box((0, 0), F(1))
    moved = sq.translate((3, 0))
    assert moved.contains((3, 0)) and not moved.contains((0, 0))


def test_critical_cone_examples():
    from tiltkit.polyhedra import critical_cone

    w = wedge()
    crit = critical_cone(w, (0, 0), (0, 0))
    assert crit.equals(w.tangent_cone((0, 0)))  # zero normal keeps the wedge
    rpp = ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))
    inner = critical_cone(rpp, (0, 0), (-1, -1))  # relint normal at the vertex
    assert inner.is_trivial()  # lineality-free polar face
    interior = critical_cone(rpp, (2, 3), (0, 0))
    assert interior.contains((5, -7)) and len(interior.lineality) == 2
    with pytest.raises(ValueError):
        critical_cone(rpp, (0, 0), (1, 0))


# -- generator reads against the per-row LP oracle ------------------------------


def lp_implied_equalities(p):
    """Per-row LP oracle: row i is implied iff min a_i x over p equals b_i."""
    out = set()
    for i, (row, bi) in enumerate(zip(p.a, p.b)):
        status, mx_neg = max_over(neg(row), p.a, p.b)
        if status == OPTIMAL and -mx_neg == bi:
            out.add(i)
    return frozenset(out)


def lp_face_keys(p):
    """LP oracle for faces(): each equality subset with a feasible face,
    closed under the rows whose max and min over the face both equal b_i."""
    found = set()
    for k in range(p.m + 1):
        for subset in itertools.combinations(range(p.m), k):
            f = p.face(subset)
            if not feasible(weak=zip(f.a, f.b), n=p.dim):
                continue
            canon = set(subset)
            for i in range(p.m):
                if i in canon:
                    continue
                status, mx = max_over(p.a[i], f.a, f.b)
                if status == OPTIMAL and mx == p.b[i]:
                    status2, mn = max_over(neg(p.a[i]), f.a, f.b)
                    if status2 == OPTIMAL and -mn == p.b[i]:
                        canon.add(i)
            found.add(frozenset(canon))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@st.composite
def small_polyhedra(draw):
    """1-3-D polyhedra with small integer rows; some get a negated copy of
    a row (an implied pair) or a shifted negated copy (empty or thin)."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=4))
    rhs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    extra = draw(st.sampled_from(("none", "negated", "shifted")))
    if extra != "none":
        i = draw(st.integers(0, len(rows) - 1))
        shift = 0 if extra == "negated" else draw(st.sampled_from((-1, 1)))
        rows.append(tuple(-x for x in rows[i]))
        rhs.append(-rhs[i] + shift)
    return ConvexPolyhedron(rows, rhs, dim=n)


@settings(max_examples=20)
@given(small_polyhedra())
def test_generator_reads_match_lp_oracle(p):
    implied = p.implied_equalities()
    assert implied == lp_implied_equalities(p)
    assert [k for k, _ in p.faces()] == lp_face_keys(p)
    rp = p.relint_point()
    empty = not feasible(weak=zip(p.a, p.b), n=p.dim)
    assert p.is_empty() == empty and (rp is None) == empty
    assert p.poly_dim() == (-1 if rp is None else p.dim - rank([p.a[i] for i in implied]))
    if rp is not None:
        for i, (row, bi) in enumerate(zip(p.a, p.b)):
            assert (dot(row, rp) == bi) if i in implied else (dot(row, rp) < bi)


def test_implied_equalities_and_faces_solve_no_lp(monkeypatch):
    from tiltkit.fixtures import fixture
    from tiltkit.regularity import _inverse_box
    from tiltkit.subdiff import inverse_image

    inst = fixture("saddle-cone").instance
    sl = inverse_image(inst.f, inst.xstar, _inverse_box(inst))
    clipped = sl.pieces[1].intersect(ConvexPolyhedron.box(inst.xbar, F(1, 4)))
    calls = []
    real = lp.solve_standard

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_standard", counted)
    for p in (clipped, inst.f.domain.pieces[0]):
        fresh = ConvexPolyhedron(p.a, p.b, dim=p.dim)  # no cached answers
        assert not fresh.is_empty()
        fresh.implied_equalities()
        assert fresh.faces()
    # membership in a cone given by generators reads its polar's rows
    cone = PolyCone.from_generators([(1, 0, 1), (0, 1, 1)], 3, lineality=[(1, -1, 0)])
    assert cone.contains((2, 3, 5)) and not cone.contains((0, 0, -1))
    assert calls == []


@pytest.mark.parametrize("lifted", [False, True])
def test_faces_of_an_18_gon(lifted):
    # tangents y >= 2t x - t^2 to the parabola at t = -8..8 and the cap
    # y <= 100: 18 edges, 18 vertices; lifted, the prism over it in R^3
    # (lineality along z) has the same face keys
    rows = [(2 * t, -1) for t in range(-8, 9)] + [(0, 1)]
    rhs = [t * t for t in range(-8, 9)] + [100]
    p = ConvexPolyhedron([r + ((0,) if lifted else ()) for r in rows], rhs)
    vertices = [{i, i + 1} for i in range(16)] + [{0, 17}, {16, 17}]
    assert [k for k, _ in p.faces()] == (
        [frozenset()] + [frozenset({i}) for i in range(18)] +
        sorted(map(frozenset, vertices), key=sorted))
    for k, face in p.faces():  # face() appends -A_k x <= -b_k after row 17
        assert {i for i in face.implied_equalities() if i < 18} == k


# Polyhedra built from int rows against the Fraction formulas: slices,
# intersections, faces and boxes must be the polyhedron `ConvexPolyhedron(a, b)`
# builds from those formulas, read back as the same Fractions and floats.

sevenths = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 3, 7, 21]))


@st.composite
def thirds_and_sevenths(draw, n=None):
    """(a, b, n): rows of denominators 3 and 7, among them zero rows, rows
    0 x <= b and rows with b = 0."""
    n = n or draw(st.integers(1, 3))
    a, b = [], []
    for kind in draw(st.lists(st.sampled_from(["free", "zero", "flat", "through 0"]),
                              max_size=4)):
        flat = kind in ("zero", "flat")
        a.append((F0,) * n if flat else draw(st.tuples(*[sevenths] * n)))
        b.append(F0 if kind in ("zero", "through 0") else draw(sevenths))
    return a, b, n


def fraction_slice(p, y):
    k = p.dim - len(y)
    return ConvexPolyhedron([row[:k] for row in p.a],
                            [bi - dot(row[k:], vec(y)) for row, bi in zip(p.a, p.b)], dim=k)


def fraction_face(p, eq):
    return ConvexPolyhedron(p.a + tuple(neg(p.a[i]) for i in eq),
                            p.b + tuple(-p.b[i] for i in eq), dim=p.dim)


def fraction_box(center, h):
    units = [tuple(F(int(i == j)) for j in range(len(center))) for i in range(len(center))]
    return ConvexPolyhedron([r for e in units for r in (e, neg(e))],
                            [v for c in center for v in (c + h, -(c - h))])


def assert_same_polyhedron(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.dim == want.dim and got.a == want.a and got.b == want.b
    assert got.to_float_rows() == ([[float(x) for x in r] for r in want.a],
                                   [float(x) for x in want.b])
    assert all(type(x) is F for r in got.a for x in r) and all(type(x) is F for x in got.b)


@st.composite
def int_built_cases(draw):
    """A Fraction-built polyhedron p, a second one q in the same space, a
    rational y, a row subset and a box center and halfwidth."""
    a, b, n = draw(thirds_and_sevenths())
    p = ConvexPolyhedron(a, b, dim=n)
    q = ConvexPolyhedron(*draw(thirds_and_sevenths(n))[:2], dim=n)
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)
    y = draw(st.lists(rationals, max_size=n))
    eq = sorted(draw(st.sets(st.integers(0, max(p.m - 1, 0)), max_size=p.m)))
    center = draw(st.lists(st.one_of(sevenths, rationals), min_size=1, max_size=3))
    return p, q, y, eq, center, draw(st.one_of(sevenths, rationals))


@settings(max_examples=200)
@given(int_built_cases())
def test_int_built_polyhedra_match_the_fraction_formulas(case):
    p, q, y, eq, center, h = case
    s = p.slice(y)
    assert_same_polyhedron(s, fraction_slice(p, y))
    assert_same_polyhedron(p.intersect(q), ConvexPolyhedron(p.a + q.a, p.b + q.b, dim=p.dim))
    assert_same_polyhedron(p.face(eq), fraction_face(p, eq))
    box = ConvexPolyhedron.box(center, h)
    assert_same_polyhedron(box, fraction_box(vec(center), h))
    # and again from int-built operands
    assert_same_polyhedron(s.intersect(s), ConvexPolyhedron(s.a + s.a, s.b + s.b, dim=s.dim))
    assert_same_polyhedron(box.slice(center[1:]), fraction_slice(fraction_box(vec(center), h),
                                                                   center[1:]))
    assert_same_polyhedron(box.face([0]), fraction_face(fraction_box(vec(center), h), [0]))


def test_int_built_polyhedra_do_no_fraction_arithmetic(monkeypatch):
    p = ConvexPolyhedron([(F(1, 3), F(-2, 7)), (0, 0), (0, 0), (F(5, 21), 1)],
                         [F(4, 7), 0, F(-1, 3), 0])
    cone = PolyCone.from_generators([(1, 2), (-1, 3)], 2)
    args = [(F(2, 7),), [2, 0, 1], ((F(1, 3), F(-5, 7)), F(2, 3))]
    want = (fraction_slice(p, args[0]), fraction_face(p, args[1]), fraction_box(*args[2]),
            ConvexPolyhedron(p.a * 2, p.b * 2), ConvexPolyhedron(cone.ineqs, (0, 0), dim=2))

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in an int-row polyhedron")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, no_arithmetic)
    got = (p.slice(args[0]), p.face(args[1]), ConvexPolyhedron.box(*args[2]), p.intersect(p),
           cone.polyhedron)
    floats = [g.to_float_rows() for g in got]
    monkeypatch.undo()
    for g, w, fl in zip(got, want, floats):
        assert_same_polyhedron(g, w)
        assert fl == g.to_float_rows()
