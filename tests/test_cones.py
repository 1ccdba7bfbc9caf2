import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit import cones, lp
from tiltkit.cones import PolyCone, _dd_pointed, dedupe, hrep_to_vrep
from tiltkit.polyhedra import ConvexPolyhedron, poly_union_covers
from tiltkit.rational import (F0, F1, add, dot, int_row, is_zero, mat, neg, nullspace, rank, rref,
                              scale, sub, unit, vec, zeros)
from test_lp import ARITHMETIC

def primitive(a):
    """The oracles' scaling of a nonzero rational vector to coprime integer
    entries, kept as Fractions."""
    return tuple(F(v) for v in int_row(a))


small_ints = st.integers(min_value=-3, max_value=3)
ray2 = st.tuples(small_ints, small_ints).filter(lambda r: any(r))


def test_wedge_normal_cone_duality():
    # cone{(-1,1),(-1,-1)} and the wedge {x1 >= |x2|} are mutually polar
    n = PolyCone.from_generators([(-1, 1), (-1, -1)], 2)
    t = n.polar()
    assert t.contains((1, 0)) and t.contains((2, 2)) and not t.contains((0, 1))
    assert sorted(t.rays) == [vec([1, -1]), vec([1, 1])]


@given(st.lists(ray2, min_size=1, max_size=4))
def test_polar_involution(rays):
    c = PolyCone.from_generators(rays, 2)
    assert c.polar().polar().equals(c)


@given(st.lists(ray2, min_size=1, max_size=3))
def test_polar_pairing_nonpositive(rays):
    c = PolyCone.from_generators(rays, 2)
    p = c.polar()
    for g in c.generators():
        for h in p.generators():
            assert sum(a * b for a, b in zip(g, h)) <= 0


def cone_dim(c):
    gens = c.rays + c.lineality
    return rank(mat(gens)) if gens else 0


def test_faces_of_pointed_2d_cone():
    c = PolyCone.from_generators([(-1, 1), (-1, -1)], 2)
    faces = [f for _, f in c.faces()]
    dims = sorted(cone_dim(f) for f in faces)
    assert dims == [0, 1, 1, 2]  # apex, two extreme rays, the cone


def test_faces_trivial_cone():
    assert len(PolyCone.zero(2).faces()) == 1


def test_faces_halfplane_lineality():
    half = PolyCone.from_inequalities([(0, -1)], 2)  # upper halfplane
    faces = [f for _, f in half.faces()]
    assert len(faces) == 2
    assert sorted(cone_dim(f) for f in faces) == [1, 2]
    line = [f for f in faces if cone_dim(f) == 1][0]
    assert line.contains((1, 0)) and line.contains((-1, 0)) and not line.contains((0, 1))


def test_faces_of_line():
    line = PolyCone.from_inequalities([(0, 1), (0, -1)], 2)
    assert len(line.faces()) == 1


def test_hrep_vrep_roundtrip():
    c = PolyCone.from_inequalities([(1, 1), (-1, 1)], 2)  # {x+y<=0, -x+y<=0}
    assert c.contains((0, -1)) and c.contains((1, -1)) and not c.contains((0, 1))
    d = PolyCone.from_generators(c.rays, 2, lineality=c.lineality)
    assert d.equals(c)


def test_full_and_zero():
    full = PolyCone.from_inequalities([], 3)
    assert full.contains((1, -2, 3))
    assert len(full.lineality) == 3
    z = PolyCone.zero(2)
    assert z.is_trivial() and z.contains((0, 0)) and not z.contains((1, 0))


def test_containment_and_union_cover():
    quad = PolyCone.from_generators([(1, 0), (0, 1)], 2)
    ray = PolyCone.from_generators([(1, 1)], 2)
    assert quad.contains_cone(ray)
    assert not ray.contains_cone(quad)
    # cones as polyhedra with b = 0
    upper = ConvexPolyhedron([(0, -1)], (0,))
    lower = ConvexPolyhedron([(0, 1)], (0,))
    full = ConvexPolyhedron.full_space(2)
    assert poly_union_covers([upper, lower], [full])
    assert not poly_union_covers([upper], [full])


def in_union(cones, v) -> bool:
    """Is v in the union of the cones?"""
    return any(c.contains(v) for c in cones)


def test_cone_union_dedupe_and_membership():
    quad = PolyCone.from_generators([(1, 0), (0, 1)], 2)
    ray = PolyCone.from_generators([(1, 1)], 2)
    zero = PolyCone.zero(2)
    u = dedupe([ray, quad, zero], 2)
    assert u == (quad,)
    assert in_union(u, (2, 3)) and not in_union(u, (-1, 0))
    # a kept cone stays ahead of a later one it does not contain; {0} stays alone
    left = PolyCone.from_generators([(-1, 0)], 2)
    assert dedupe([quad, left, ray], 2) == (quad, left)
    assert dedupe([zero], 2) == (zero,)
    (only,) = dedupe([], 2)
    assert only.is_trivial() and only.dim == 2


def test_intersection():
    c = PolyCone.from_inequalities([(1, 0), (0, 1)], 2)   # x <= 0 and y <= 0
    assert c.contains((-1, -1)) and not c.contains((-1, 1))


def reference_dd_pointed(dim, extra):
    """Double description recomputing every ray's zero set from the
    processed rows at each step: the oracle for the incremental zero sets."""
    rays = [unit(dim, i) for i in range(dim)]
    processed = [neg(unit(dim, i)) for i in range(dim)]
    for a in extra:
        vals = [dot(a, r) for r in rays]
        zsets = {r: frozenset(i for i, p in enumerate(processed) if dot(p, r) == 0)
                 for r in rays}
        merged = [r for r, v in zip(rays, vals) if v <= 0]
        for (rp, vp), (rn, vn) in itertools.product(
                [(r, v) for r, v in zip(rays, vals) if v > 0],
                [(r, v) for r, v in zip(rays, vals) if v < 0]):
            common = zsets[rp] & zsets[rn]
            if not any(r is not rp and r is not rn and common <= zsets[r] for r in rays):
                comb = sub(scale(rn, vp), scale(rp, vn))
                if not is_zero(comb) and primitive(comb) not in merged:
                    merged.append(primitive(comb))
        processed.append(a)
        rays = merged
    return rays


@settings(max_examples=25)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-3, 3)] * n), max_size=6).map(lambda rows: (n, rows))))
def test_dd_pointed_matches_recomputed_zero_sets(case):
    n, rows = case
    assert _dd_pointed(n, rows) == reference_dd_pointed(n, [vec(r) for r in rows])


def fraction_dd_pointed(dim, extra):
    """The double description over Fractions, zero sets as frozensets: the
    oracle for the int rays and bitmask zero sets of `_dd_pointed`."""
    rays = [unit(dim, i) for i in range(dim)]
    zsets = {r: frozenset(range(dim)) - {i} for i, r in enumerate(rays)}
    for k, a in enumerate(extra, start=dim):
        vals = [dot(a, r) for r in rays]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        negs = [(r, v) for r, v in zip(rays, vals) if v < 0]
        merged, new_z = [], {}
        for r, v in zip(rays, vals):
            if v <= 0:
                merged.append(r)
                new_z[r] = zsets[r] | {k} if v == 0 else zsets[r]
        for (rp, vp), (rn, vn) in itertools.product(pos, negs):
            common = zsets[rp] & zsets[rn]
            if not any(r is not rp and r is not rn and common <= zsets[r] for r in rays):
                comb = sub(scale(rn, vp), scale(rp, vn))
                if not is_zero(comb):
                    r = primitive(comb)
                    if r not in new_z:
                        merged.append(r)
                        new_z[r] = common | {k}
        rays, zsets = merged, new_z
    return rays


def fraction_vrep(dim, rows):
    """`cones._vrep` over Fractions: rref of g^T for the pointed quotient and
    the rref of [g_B, -I; lineality, 0] for the map back."""
    lineality = nullspace(mat(rows), dim) if rows else [unit(dim, i) for i in range(dim)]
    lineality = [primitive(l) for l in lineality]
    if not rows:
        return lineality, []
    red, basis = rref(tuple(zip(*rows)))
    k = len(basis)
    extra = [tuple(-red[i][j] for i in range(k)) for j in range(len(rows)) if j not in basis]
    system = [vec(rows[b]) + tuple(-F1 if i == r else F0 for i in range(k))
              for r, b in enumerate(basis)]
    system += [l + zeros(k) for l in lineality]
    back = [row[dim:] for row in rref(mat(system))[0]]
    rays = sorted(primitive(tuple(dot(row, x) for row in back))
                  for x in fraction_dd_pointed(k, extra))
    return lineality, rays


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-4, 4)] * n), max_size=7).map(lambda rows: (n, rows))))
@example((3, []))  # no rows: [g^T | I] is I, all lineality
@example((2, [(1, 0), (0, 1), (2, 2), (-1, 1), (1, 0)]))  # pointed, a parallel and a twin row
@example((3, [(1, 0, 0), (0, 1, -1), (0, 0, 0), (2, 2, -2), (-1, 0, 0)]))  # rank 2, a zero row
@example((4, [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 1, 1, 0)]))  # rank 2, opposite rows
def test_hrep_to_vrep_matches_fraction_oracle(case):
    n, rows = case
    cones._vrep.cache_clear()
    lin, rays = hrep_to_vrep(rows, n)
    ref_lin, ref_rays = fraction_vrep(n, [int_row(r) for r in rows if any(r)])
    assert (lin, rays) == (ref_lin, ref_rays)
    assert all(type(x) is int for v in lin + rays for x in v)
    # zero rows, which hrep_to_vrep drops, leave the elimination's answer alone
    assert cones._vrep(n, tuple(map(int_row, rows))) == (tuple(ref_lin), tuple(ref_rays))


def lp_in_generated(v, rays, lineality):
    """Reference: v in cone(rays) + span(lineality) iff some z >= 0 has
    C z = v, C the columns rays, lineality and -lineality; one phase-1 LP."""
    cols = list(rays) + list(lineality) + [neg(l) for l in lineality]
    if not cols:
        return is_zero(v)
    return lp.solve_standard([[col[i] for col in cols] for i in range(len(v))], v)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(small_ints, min_size=n, max_size=n), max_size=3),
    st.lists(st.lists(small_ints, min_size=n, max_size=n), max_size=2),
    st.lists(small_ints, min_size=n, max_size=n),
    st.lists(small_ints, min_size=5, max_size=5))))
def test_in_generated_matches_lp_membership(case):
    rays, lin, v, coef = case
    rays, lin = [vec(r) for r in rays], [vec(l) for l in lin]
    # half the candidates are combinations of the generators, so they lie in
    # their span and membership turns on the signs of the coefficients
    if coef[0] % 2:
        v = zeros(len(v))
        for c, g in zip(coef[1:], rays + lin):
            v = add(v, scale(g, F(c)))
    v = vec(v)
    cone = PolyCone.from_generators(rays, len(v), lineality=lin)
    assert cone.contains(v) == lp_in_generated(v, rays, lin)


@st.composite
def cone_and_reordered_rescaled_copy(draw):
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6))
    order = draw(st.permutations(range(len(rows))))
    factors = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                            min_size=len(rows), max_size=len(rows)))
    copy = [scale(vec(rows[i]), F(*factors[i])) for i in order]
    return n, [vec(r) for r in rows], copy


@settings(max_examples=20)
@given(cone_and_reordered_rescaled_copy())
def test_hrep_to_vrep_does_not_depend_on_who_filled_the_memo(case):
    n, g, copy = case
    cones._vrep.cache_clear()
    cold = hrep_to_vrep(g, n)
    cones._vrep.cache_clear()
    hrep_to_vrep(copy, n)  # the same cone, its rows reordered and rescaled
    assert hrep_to_vrep(g, n) == cold


def reference_hrep_to_vrep(g, dim):
    """The double description before the quotient: lift to the pointed cone
    {(y, z) >= 0 : g(y - z) <= 0}, project its extreme rays back, and prune
    them with one LP membership test per ray."""
    rows = [tuple(r) for r in g if any(r)]
    lineality = [primitive(l) for l in nullspace(mat(rows), dim)] if rows else \
        [unit(dim, i) for i in range(dim)]
    if not rows:
        return lineality, []
    lifted = _dd_pointed(2 * dim, [r + neg(r) for r in rows])
    projected = [tuple(r[i] - r[dim + i] for i in range(dim)) for r in lifted]
    out = []
    for r in projected:
        if is_zero(r) or primitive(r) in out:
            continue
        if lineality and rank(lineality + [r]) == rank(lineality):
            continue
        out.append(primitive(r))
    out.sort()
    kept = []
    for i, r in enumerate(out):
        if not lp_in_generated(r, kept + out[i + 1:], lineality):
            kept.append(r)
    return lineality, kept


def reference_face_rays(cone):
    """The face walk before the closure: over all 2^|rays| ray subsets, the
    rays tight on every row tight on the subset, ordered as faces() orders
    them."""
    rays, rows = cone.rays, cone.ineqs
    found = set()
    for k in range(len(rays) + 1):
        for chosen in itertools.combinations(range(len(rays)), k):
            active = [a for a in range(len(rows))
                      if all(dot(rows[a], rays[i]) == 0 for i in chosen)]
            found.add(frozenset(i for i, r in enumerate(rays)
                                if all(dot(rows[a], r) == 0 for a in active)))
    return [[rays[i] for i in sorted(s)] for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


random_cones = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6).map(lambda rows: (n, rows)))


@settings(max_examples=60, deadline=None)
@given(random_cones)
def test_hrep_to_vrep_matches_lifted_reference(case):
    n, rows = case
    lin, rays = hrep_to_vrep(rows, n)
    ref_lin, ref_rays = reference_hrep_to_vrep(rows, n)
    assert lin == ref_lin
    new = PolyCone.from_generators(rays, n, lineality=lin)
    ref = PolyCone.from_generators(ref_rays, n, lineality=ref_lin)
    assert new.contains_cone(ref) and ref.contains_cone(new)
    assert len(rays) == len(ref_rays)
    assert all(dot(r, l) == 0 for r in rays for l in lin)
    for i, r in enumerate(rays):
        assert not lp_in_generated(r, rays[:i] + rays[i + 1:], lin)


@settings(max_examples=60, deadline=None)
@given(random_cones)
def test_faces_match_ray_subset_walk(case):
    n, rows = case
    cone = PolyCone.from_inequalities(rows, n)
    faces = cone.faces()
    assert [f.rays for _, f in faces] == reference_face_rays(cone)
    for key, face in faces:
        assert key == frozenset(a for a, row in enumerate(cone.ineqs)
                                if all(dot(row, g) == 0 for g in face.generators()))


def test_cone_conversions_solve_no_lp(monkeypatch):
    # g is {|u1| <= u3, |u2| <= u3} + span(e4): four extreme rays and a
    # line, where pruning by LP membership would have to run
    g = [(1, 0, -1, 0), (-1, 0, -1, 0), (0, 1, -1, 0), (0, -1, -1, 0)]
    c = PolyCone.from_generators([(1, 1, 1, 0), (1, -1, 1, 0), (-1, 1, 1, 0)], 4,
                                 lineality=[(0, 0, 1, 1)])
    cones._vrep.cache_clear()
    monkeypatch.setattr(lp, "solve_standard", lambda *a: pytest.fail("LP solved"))
    lin, rays = hrep_to_vrep(g, 4)
    twice = c.polar().polar()
    assert len(twice.rays) == 3
    monkeypatch.undo()
    assert lin == [vec([0, 0, 0, 1])] and len(rays) == 4
    assert twice.equals(c)


def test_int_kernels_do_no_fraction_arithmetic(monkeypatch):
    # a double description memo miss, and membership in a polyhedron and in
    # cones given by inequalities, on Fraction input with mixed denominators
    g = [(F(1, 2), 0, F(-1, 2), 0), (-1, 0, -1, 0), (0, F(2, 3), F(-2, 3), 0), (0, -1, -1, 0)]
    expected = fraction_vrep(4, [int_row(r) for r in g])
    poly = ConvexPolyhedron([(F(1, 2), F(1, 3)), (-1, 0), (0, -1)], (F(5, 6), 0, 0))
    cone = PolyCone.from_inequalities([(F(1, 2), F(1, 3)), (-1, 0)], 2)
    points = [(F(1, 2), F(1, 2)), (0, F(5, 2)), (F(1, 3), F(1, 7)), (1, 1), (-1, F(1, 2))]
    ref_contains = [all(dot(a, vec(x)) <= b for a, b in zip(poly.a, poly.b)) for x in points]
    ref_cone = [all(dot(a, vec(x)) <= 0 for a in cone.ineqs) for x in points]

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in an int kernel")

    cones._vrep.cache_clear()
    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, no_arithmetic)
    got = hrep_to_vrep(g, 4)
    contains = [poly.contains(x) for x in points]
    active = [poly.active_set(x) for x, c in zip(points, contains) if c]
    in_cone = [cone.contains(x) for x in points]
    monkeypatch.undo()
    assert got == expected
    assert contains == ref_contains == [True, True, True, True, False]
    assert active == [frozenset(), frozenset([0, 1]), frozenset(), frozenset([0])]
    assert in_cone == ref_cone


def is_primitive_int(v):
    """Ints with gcd 1, or all zero."""
    return all(type(x) is int for x in v) and math.gcd(*v) == (1 if any(v) else 0)


@st.composite
def rows_and_rescaled_copy(draw):
    """(n, int rows, the same rows times positive rationals, as Fractions)."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=5))
    factors = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6),
                            min_size=len(rows), max_size=len(rows)))
    return n, rows, [scale(vec(r), c) for r, c in zip(rows, factors)]


@settings(max_examples=60, deadline=None)
@given(rows_and_rescaled_copy())
def test_cone_data_are_primitive_int_rows(case):
    # whatever the scale of the rows given, a cone keeps their primitive ints,
    # and its other description comes from the double description as ints
    n, rows, rescaled = case
    for make in (PolyCone.from_inequalities,
                 lambda g, n: PolyCone.from_generators(g[1:], n, lineality=g[:1])):
        cone, copy = make(rows, n), make(rescaled, n)
        data = [cone.ineqs, cone.rays, cone.lineality]
        assert [copy.ineqs, copy.rays, copy.lineality] == data
        for c in (cone, copy):
            assert all(is_primitive_int(v) for part in (c.ineqs, c.rays, c.lineality)
                       for v in part)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[small_ints] * n), st.fractions(-2, 2, max_denominator=3)),
    min_size=1, max_size=5)))
def test_vrep_points_are_fractions_and_directions_primitive_ints(rows):
    poly = ConvexPolyhedron([a for a, _ in rows], [b for _, b in rows])
    points, rec, lin = poly.vrep()
    assert all(type(x) is F for p in points for x in p)
    assert all(is_primitive_int(v) and any(v) for v in rec + lin)
    assert poly.is_empty() == (not points)


def test_float_and_bool_entries_raise_type_error():
    # as `frac` rejects them: the exact path must not absorb binary rounding,
    # and every entry point reads rows through `int_row`
    quadrant = PolyCone.from_inequalities([(-1, 0), (0, -1)], 2)
    square = ConvexPolyhedron.box((0, 0), 1)
    for bad in (0.5, True, np.int64(1)):
        for make in (lambda: PolyCone.from_inequalities([(bad, 1)], 2),
                     lambda: PolyCone.from_generators([(1, bad)], 2),
                     lambda: PolyCone.from_generators([], 2, lineality=[(bad, 0)]),
                     lambda: hrep_to_vrep([(1, bad)], 2),
                     lambda: int_row((1, bad)),
                     lambda: rank(((1, 2), (bad, 0))),
                     lambda: quadrant.contains((1, bad)),
                     lambda: square.contains((bad, 0)),
                     lambda: square.slice((bad,))):
            with pytest.raises(TypeError):
                make()
