import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cones import in_union
from test_lp import feasible

from tiltkit import lp
from tiltkit.cells import (Cell, _value_cone, cell_complex, covectors, limiting_normal_cone,
                           local_cells, sampled_regular_normals)
from tiltkit.cones import PolyCone, dedupe
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion, poly_union_covers, same_union
from tiltkit.rational import add, dot, int_row, is_zero, mat, neg, scale, vec, zeros


def regular_normal_cone(union, x):
    """Polar of the union of piece tangent cones at x: the intersection of
    the pieces' convex normal cones.  Convex, exact.  Reads the pieces and
    active sets off the Fraction point itself, where the sampler reads its
    signatures off the signs of row . u and forms no point."""
    x = vec(x)
    ks = union.pieces_containing(x)
    if not ks:
        raise ValueError("point is not in the union")
    return _value_cone(union, tuple((k, union.pieces[k].active_set(x)) for k in ks))


def cross():
    return PolyUnion([ConvexPolyhedron([(0, 1), (0, -1)], (0, 0)),
                      ConvexPolyhedron([(1, 0), (-1, 0)], (0, 0))])


def wedge_union():
    return PolyUnion([ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))])


def test_limiting_cone_of_cross_at_origin():
    n = limiting_normal_cone(cross(), (0, 0))
    # the two coordinate lines, nothing more
    assert in_union(n, (0, 5)) and in_union(n, (0, -5))
    assert in_union(n, (3, 0)) and in_union(n, (-3, 0))
    assert not in_union(n, (1, 1)) and not in_union(n, (2, -1))
    assert len(n) == 2


def test_regular_cone_of_cross_at_origin_is_trivial():
    assert regular_normal_cone(cross(), (0, 0)).is_trivial()


def test_cross_away_from_origin():
    n = limiting_normal_cone(cross(), (1, 0))
    assert len(n) == 1
    assert in_union(n, (0, 7)) and not in_union(n, (1, 0))
    r = regular_normal_cone(cross(), (1, 0))
    assert r.contains((0, -2)) and not r.contains((1, 1))


def test_convex_union_agrees_with_piece_normal_cone():
    u = wedge_union()
    piece = u.pieces[0]
    for x in [(0, 0), (1, 1), (2, 0), (3, -3)]:
        n = limiting_normal_cone(u, x)
        assert len(n) == 1
        assert n[0].equals(piece.normal_cone(x))
        assert regular_normal_cone(u, x).equals(piece.normal_cone(x))


def test_regular_subset_of_limiting():
    for u, x in [(cross(), (0, 0)), (wedge_union(), (0, 0))]:
        reg = regular_normal_cone(u, x)
        lim = limiting_normal_cone(u, x)
        for g in reg.generators():
            assert in_union(lim, g)


def test_interior_point_trivial():
    u = wedge_union()
    n = limiting_normal_cone(u, (2, 0))
    assert len(n) == 1 and n[0].is_trivial()


def test_outside_raises():
    # a point of the wrong dimension is reported as such, not as outside
    for x, match in [((1, 1), "not in the union"), ((5, 5, 0), "dimension mismatch"),
                     ((5,), "dimension mismatch")]:
        with pytest.raises(ValueError, match=match):
            limiting_normal_cone(cross(), x)
        with pytest.raises(ValueError, match=match):
            sampled_regular_normals(cross(), x, 50, 1)


def test_global_cells_of_wedge():
    cells = cell_complex(wedge_union())
    assert len(cells) == 4
    dims = sorted(c.closure.poly_dim() for c in cells)
    assert dims == [0, 1, 1, 2]
    adh = [c for c in cells if c.closure.contains((0, 0))]
    assert len(adh) == 4
    adh_edge = [c for c in cells if c.closure.contains((1, 1))]
    assert len(adh_edge) == 2  # the edge and the full cell


def test_global_cells_of_cross_cover_origin_values():
    cells = cell_complex(cross())
    values_at_origin = [c.value for c in cells if c.closure.contains((0, 0))]
    lines = [v for v in values_at_origin if v.lineality]
    assert any(v.contains((0, 1)) for v in lines)
    assert any(v.contains((1, 0)) for v in lines)


def test_sampling_oracle_matches_computed():
    for union, x in [(cross(), (F(0), F(0))), (wedge_union(), (F(0), F(0)))]:
        computed = limiting_normal_cone(union, x)
        sampled = sampled_regular_normals(union, x, 400, seed=3)
        for cone in sampled:
            for g in cone.generators():
                assert in_union(computed, g)
        # every computed piece realized by some sampled cone
        for piece in computed:
            assert any(s.equals(piece) or s.contains_cone(piece) for s in sampled)


def cone_per_sample_sampler(union, x, count, seed, scale_den=64):
    """Oracle: the sampling loop that builds every sample's cone and tests
    it against every cone collected so far.  A step halves, toward 0, the
    slack at x of every row of every piece that is nonzero there."""
    x = vec(x)
    rng = random.Random(seed)
    face_dirs = []
    for k in union.pieces_containing(x):
        for _, face in union.pieces[k].tangent_cone(x).faces():
            gens = face.generators()
            if gens:
                face_dirs.append((k, gens))
    collected = [regular_normal_cone(union, x)]
    for _ in range(count):
        y = x
        if face_dirs:
            k, gens = face_dirs[rng.randrange(len(face_dirs))]
            u = zeros(union.dim)
            for g in gens:
                u = add(u, scale(vec(g), F(rng.randint(1, scale_den), scale_den)))
            if not is_zero(u):
                t = F(1, scale_den)
                for piece in union.pieces:
                    for row, bi in zip(piece.a, piece.b):
                        ru, slack = dot(row, u), bi - dot(row, x)
                        if slack * ru > 0:
                            t = min(t, slack / ru / 2)
                y = add(x, scale(u, t))
                if not union.contains(y):
                    y = x
        cone = regular_normal_cone(union, y)
        if not any(cone.equals(c) for c in collected):
            collected.append(cone)
    return collected


def graph_union(name):
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import second_order_map

    inst = fixture(name).instance
    model = second_order_map(inst.f, inst.xbar, inst.xstar)
    return model.union, model.basepoint


@pytest.mark.parametrize("name", ["cross-quadratic", "saddle-cone"])
def test_sampler_matches_cone_per_sample_oracle(name):
    union, base = graph_union(name)
    got = sampled_regular_normals(union, base, 500, seed=13)
    want = cone_per_sample_sampler(union, base, 500, seed=13)
    assert [c.ineqs for c in got] == [c.ineqs for c in want]


@pytest.mark.parametrize("case", range(5))
def test_int_sampler_matches_fraction_oracle_on_oracle_cases(case):
    from tiltkit.verifier import _oracle_cases

    _, union, x, seed, _ = list(_oracle_cases())[case]
    got = sampled_regular_normals(union, x, 2000, seed)
    want = cone_per_sample_sampler(union, x, 2000, seed)
    assert [c.ineqs for c in got] == [c.ineqs for c in want]


def test_sampler_builds_one_cone_per_signature(monkeypatch):
    from tiltkit import cells

    union, base = graph_union("saddle-cone")
    built = []
    real = cells._value_cone

    def counted(u, sig):
        built.append(tuple(sig))
        return real(u, sig)

    monkeypatch.setattr(cells, "_value_cone", counted)
    sampled_regular_normals(union, base, 500, seed=13)
    assert len(built) == len(set(built)) > 1


def test_cell_complex_feeds_primitive_int_rows_to_strict_test(monkeypatch):
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import build_graph_model

    inst = fixture("saddle-cone").instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    keys = []  # every key the memoized test is asked for, hit or miss
    real_memo = lp._strict_feasible

    def spy(*key):
        keys.append(key)
        return real_memo(*key)

    monkeypatch.setattr(lp, "_strict_feasible", spy)
    assert cell_complex(model.union)
    assert keys
    for n, eq, stricts in keys:
        for row in eq | stricts:
            assert type(row) is tuple and all(type(v) is int for v in row)


# -- the per-node searches these replace, kept as oracles ------------------------


def path_local_cells(union, x):
    """One (memberships, value) per strictly feasible path of the old
    per-piece recursion, which repeats a signature reached through several
    leave-the-piece rows."""
    x = vec(x)
    ks = union.pieces_containing(x)
    options = {}
    for k in ks:
        piece = union.pieces[k]
        act = sorted(piece.active_set(x))
        tangent = PolyCone.from_inequalities(tuple(piece.a[i] for i in act), union.dim)
        opts = [(frozenset(act[j] for j in key), [piece.a[act[j]] for j in sorted(key)],
                 [piece.a[i] for j, i in enumerate(act) if j not in key])
                for key, _ in tangent.faces()]
        opts += [(None, [], [neg(piece.a[i])]) for i in act]
        options[k] = opts
    cells = []

    def recurse(idx, eqs, stricts, memberships):
        if not lp.strict_homogeneous_feasible(frozenset(map(int_row, eqs)),
                                              frozenset(map(int_row, stricts)), union.dim):
            return
        if idx == len(ks):
            if memberships:
                cells.append((tuple(memberships), _value_cone(union, memberships)))
            return
        k = ks[idx]
        for eq, eq_rows, strict in options[k]:
            recurse(idx + 1, eqs + eq_rows, stricts + strict,
                    memberships if eq is None else memberships + [(k, eq)])

    recurse(0, [], [], [])
    return cells


def lp_cell_complex(union):
    """The global cells with one exact strict-feasibility LP per node."""
    dim = union.dim
    options = []
    for piece in union.pieces:
        opts = [(key, [(piece.a[i], piece.b[i]) for i in sorted(key)],
                 [(piece.a[i], piece.b[i]) for i in range(piece.m) if i not in key])
                for key, _ in piece.faces()]
        opts += [(None, [], [(neg(piece.a[i]), -piece.b[i])]) for i in range(piece.m)]
        options.append(opts)
    cells = []

    def recurse(k, eqs, stricts, memberships):
        if not feasible(stricts, eq=eqs, n=dim):
            return
        if k == len(union.pieces):
            if memberships:
                rows = stricts + eqs + [(neg(r), -v) for r, v in eqs]
                closure = ConvexPolyhedron(mat([r for r, _ in rows]),
                                           vec([v for _, v in rows]), dim=dim)
                cells.append(Cell(tuple(memberships), closure, _value_cone(union, memberships)))
            return
        for key, eq_rows, strict_rows in options[k]:
            recurse(k + 1, eqs + eq_rows, stricts + strict_rows,
                    memberships if key is None else memberships + [(k, key)])

    recurse(0, [], [], [])
    return cells


def lp_escapes(target, covers):
    """Does a point of the closed target violate a row of every cover?  One
    exact strict-feasibility LP per node."""
    weak = list(zip(target.a, target.b))

    def recurse(i, strict):
        if not feasible(strict, weak, n=target.dim):
            return False
        if i == len(covers):
            return True
        return any(recurse(i + 1, strict + [(neg(r), -v)])
                   for r, v in zip(covers[i].a, covers[i].b))

    return recurse(0, [])


@st.composite
def unions_through_origin(draw, max_pieces=3, miss=False):
    """1-max_pieces pieces in R^1..R^3, each with 1-4 small integer rows
    and a nonnegative right-hand side, so every piece contains the origin.
    With `miss`, maybe one more piece, at a drawn index, that misses the
    origin: one drawn as above, moved to a nonzero integer point c and cut
    by -c . x <= -c . c, which c meets and the origin violates."""
    n = draw(st.integers(1, 3))

    def rows_rhs():
        m = draw(st.integers(1, 4))
        rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=m, max_size=m))
        return rows, draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))

    pieces = [ConvexPolyhedron(*rows_rhs(), dim=n)
              for _ in range(draw(st.integers(1, max_pieces)))]
    if miss and draw(st.booleans()):
        rows, rhs = rows_rhs()
        c = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
        away = ConvexPolyhedron(rows + [neg(c)], [b + dot(r, c) for r, b in zip(rows, rhs)]
                                + [-dot(c, c)])
        pieces.insert(draw(st.integers(0, len(pieces))), away)
    return PolyUnion(pieces)


@settings(max_examples=30)
@given(unions_through_origin())
def test_one_search_matches_per_node_oracles(union):
    # cheapest oracle first, so a failing example shrinks quickly
    origin = (0,) * union.dim
    paths = path_local_cells(union, origin)
    assert local_cells(union, origin) == list(dict.fromkeys(m for m, _ in paths))
    # dedupe drops a trivial value only beside another piece; a repeated
    # signature never is the only one, so both lists dedupe alike
    cone = limiting_normal_cone(union, origin)
    old = dedupe([v for _, v in paths], union.dim)
    assert [p.ineqs for p in cone] == [p.ineqs for p in old]

    cells = cell_complex(union)
    expected = lp_cell_complex(union)
    assert [c.memberships for c in cells] == [c.memberships for c in expected]
    for c, e in zip(cells, expected):
        assert (c.closure.a, c.closure.b) == (e.closure.a, e.closure.b)
        assert c.value.ineqs == e.value.ineqs

    targets = union.pieces + [c.closure for c in cells[:3]]
    for j in range(len(union.pieces) + 1):
        covers = union.pieces[:j]
        assert [poly_union_covers(covers, [t]) for t in targets] == \
            [not lp_escapes(t, covers) for t in targets]


@settings(max_examples=100)
@given(unions_through_origin(max_pieces=4))
def test_local_cells_match_first_seen_paths(union):
    # with four pieces the escape searches run below several left-out pieces
    origin = (0,) * union.dim
    paths = path_local_cells(union, origin)
    assert local_cells(union, origin) == list(dict.fromkeys(m for m, _ in paths))


@st.composite
def arrangements(draw):
    """(rows, dim, cones): up to 6 int rows in R^1..R^4, integer combinations
    of 1..dim drawn vectors, so the lineality is often nontrivial, with
    zero, repeated and negated rows mixed in; and 1-3 cones of (row, sign)
    pairs, repeats allowed, an empty cone being the whole space."""
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(-2, 2)] * n)
    basis = draw(st.lists(vectors, min_size=1, max_size=n))
    rows = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))
            for cs in draw(st.lists(st.lists(st.integers(-1, 1), min_size=len(basis),
                                             max_size=len(basis)), min_size=1, max_size=4))]
    extra = draw(st.lists(st.sampled_from(["zero", "repeat", "negate"]), max_size=2))
    rows += [(0,) * n if e == "zero" else rows[0] if e == "repeat" else neg(rows[-1])
             for e in extra]
    pairs = st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1]))
    cones = draw(st.lists(st.lists(pairs, max_size=4), min_size=1, max_size=3))
    return tuple(rows), n, cones


def lp_covectors(rows, n, cones):
    """Every sign vector in {-, 0, +}^h in some cone that the strict test
    accepts, its zero rows as equalities and its signed rows strict."""
    return {x for x in itertools.product((-1, 0, 1), repeat=len(rows))
            if any(all(s * x[h] <= 0 for h, s in cone) for cone in cones)
            and lp.strict_homogeneous_feasible(
                frozenset(r for r, v in zip(rows, x) if not v),
                frozenset(tuple(-v * c for c in r) for r, v in zip(rows, x) if v), n)}


@given(arrangements())
@example((((1, 0), (0, 1)), 2, [[(0, 1), (0, 1)]]))  # a repeated pair asks once
@example((((0, 0, 0), (1, 1, 0), (-1, -1, 0)), 3, [[]]))  # rank 1, lineality of dimension 2
def test_covectors_match_the_strict_test_oracle(arrangement):
    rows, n, cones = arrangement
    assert covectors(rows, n, cones) == lp_covectors(rows, n, cones)


@settings(max_examples=25, deadline=None)
@given(unions_through_origin())
@example(PolyUnion([ConvexPolyhedron([(-1, 2, -1), (-2, -1, 2)], (0, 0)),
                    ConvexPolyhedron([(0, 0, 0), (2, -2, 1)], (1, 1))]))
def test_limiting_normal_cone_equals_sampled_union(union):
    # the ORACLE suite's exact comparison, on random unions in R^1..R^3.
    # Some 3-D cells draw under 1% of the samples: with 200 samples the
    # sampled union missed a cell on 3 of 1,000 drawn unions, and with 1,000
    # those three agree.  2,000 samples leave a miss unlikely.  The example:
    # the origin is interior to the second piece, so the limiting cone is
    # {0}; a step bounded by the first piece's rows alone crosses the second
    # piece's row (2, -2, 1) and collects a facet normal of the first.
    origin = (0,) * union.dim
    computed = limiting_normal_cone(union, origin)
    sampled = sampled_regular_normals(union, origin, 2000, seed=11)
    assert same_union([k.polyhedron for k in computed], [k.polyhedron for k in sampled])


@settings(max_examples=50, deadline=None)
@given(unions_through_origin(max_pieces=4, miss=True), st.sampled_from([1, F(1, 64), F(1, 4096)]),
       st.integers(0, 2 ** 16))
@example(PolyUnion([ConvexPolyhedron([(1,), (-1,)], (0, 0))]), 1, 0)  # no direction to draw
# the origin is on the first piece's edge x = y = 0; the second piece misses
# it, and a step along the edge into it would collect cone{(1, 1, 0)}
@example(PolyUnion([ConvexPolyhedron([(1, 0, 0), (0, 1, 0)], (0, 0)),
                    ConvexPolyhedron([(1, 1, 0), (0, 0, -1)], (0, -1))]), F(1, 4096), 0)
def test_int_sampler_matches_fraction_oracle(union, shrink, seed):
    # same cones in the same order: the int signatures read off signs match
    # the Fraction points.  Shrunken right sides leave small slacks at the
    # origin, which steps halve, and bring a piece that misses it near.
    union = PolyUnion([ConvexPolyhedron(p.a, [b * shrink for b in p.b]) for p in union.pieces])
    origin = (0,) * union.dim
    got = sampled_regular_normals(union, origin, 300, seed)
    assert [c.ineqs for c in got] == \
        [c.ineqs for c in cone_per_sample_sampler(union, origin, 300, seed)]


def test_local_cells_strict_test_count(monkeypatch):
    # the cells are read off sign vectors: no strict test at all
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import build_graph_model

    inst = fixture("saddle-cone").instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    calls = []
    real = lp.strict_homogeneous_feasible

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "strict_homogeneous_feasible", counted)
    lp._strict_feasible.cache_clear()
    assert local_cells(model.union, model.basepoint)
    assert len(calls) == 0


def test_local_cells_repeat_no_signature():
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import build_graph_model

    inst = fixture("saddle-cone").instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    sigs = local_cells(model.union, model.basepoint)
    assert len(set(sigs)) == len(sigs)
    assert len(path_local_cells(model.union, model.basepoint)) > len(sigs)


def test_searches_run_no_strict_lp(monkeypatch):
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import build_graph_model

    inst = fixture("saddle-cone").instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    union = model.union
    sq = ConvexPolyhedron.box((0, 0), F(1))
    left, right = (sq.intersect(ConvexPolyhedron([row], [0])) for row in [(1, 0), (-1, 0)])
    empty = ConvexPolyhedron([(1, 0), (-1, 0)], (-1, -1))

    real = lp.solve_standard

    def gordan_only(*args):
        # every LP the searches solve is a strict test's memo miss
        assert sys._getframe(1).f_code is lp._strict_feasible.__wrapped__.__code__, "slack LP"
        return real(*args)

    monkeypatch.setattr(lp, "solve_standard", gordan_only)
    assert cell_complex(union)
    assert local_cells(union, model.basepoint)
    assert poly_union_covers([left, right], [sq]) and not poly_union_covers([left], [sq])
    assert poly_union_covers([], [empty])
