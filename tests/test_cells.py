from fractions import Fraction as F

import pytest

from tiltkit.cells import (cell_complex, cells_adherent_to, limiting_normal_cone,
                           local_cells, regular_normal_cone,
                           sampled_regular_normals)
from tiltkit.cones import PolyCone
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion


def cross():
    return PolyUnion([ConvexPolyhedron([(0, 1), (0, -1)], (0, 0)),
                      ConvexPolyhedron([(1, 0), (-1, 0)], (0, 0))])


def wedge_union():
    return PolyUnion([ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))])


def test_limiting_cone_of_cross_at_origin():
    n = limiting_normal_cone(cross(), (0, 0))
    # the two coordinate lines, nothing more
    assert n.contains((0, 5)) and n.contains((0, -5))
    assert n.contains((3, 0)) and n.contains((-3, 0))
    assert not n.contains((1, 1)) and not n.contains((2, -1))
    assert len(n.pieces) == 2


def test_regular_cone_of_cross_at_origin_is_trivial():
    assert regular_normal_cone(cross(), (0, 0)).is_trivial()


def test_cross_away_from_origin():
    n = limiting_normal_cone(cross(), (1, 0))
    assert len(n.pieces) == 1
    assert n.contains((0, 7)) and not n.contains((1, 0))
    r = regular_normal_cone(cross(), (1, 0))
    assert r.contains((0, -2)) and not r.contains((1, 1))


def test_convex_union_agrees_with_piece_normal_cone():
    u = wedge_union()
    piece = u.pieces[0]
    for x in [(0, 0), (1, 1), (2, 0), (3, -3)]:
        n = limiting_normal_cone(u, x)
        assert len(n.pieces) == 1
        assert n.pieces[0].equals(piece.normal_cone(x))
        assert regular_normal_cone(u, x).equals(piece.normal_cone(x))


def test_regular_subset_of_limiting():
    for u, x in [(cross(), (0, 0)), (wedge_union(), (0, 0))]:
        reg = regular_normal_cone(u, x)
        lim = limiting_normal_cone(u, x)
        for g in reg.generators():
            assert lim.contains(g)


def test_interior_point_trivial():
    u = wedge_union()
    n = limiting_normal_cone(u, (2, 0))
    assert len(n.pieces) == 1 and n.pieces[0].is_trivial()


def test_outside_raises():
    with pytest.raises(ValueError):
        limiting_normal_cone(cross(), (1, 1))


def test_global_cells_of_wedge():
    cells = cell_complex(wedge_union())
    assert len(cells) == 4
    dims = sorted(c.closure.poly_dim() for c in cells)
    assert dims == [0, 1, 1, 2]
    adh = cells_adherent_to(cells, (0, 0))
    assert len(adh) == 4
    adh_edge = cells_adherent_to(cells, (1, 1))
    assert len(adh_edge) == 2  # the edge and the full cell


def test_global_cells_of_cross_cover_origin_values():
    cells = cell_complex(cross())
    values_at_origin = [c.value for c in cells_adherent_to(cells, (0, 0))]
    lines = [v for v in values_at_origin if v.lineality]
    assert any(v.contains((0, 1)) for v in lines)
    assert any(v.contains((1, 0)) for v in lines)


def test_sampling_oracle_matches_computed():
    for union, x in [(cross(), (F(0), F(0))), (wedge_union(), (F(0), F(0)))]:
        computed = limiting_normal_cone(union, x)
        sampled = sampled_regular_normals(union, x, 400, seed=3)
        for cone in sampled:
            for g in cone.generators():
                assert computed.contains(g)
        # every computed piece realized by some sampled cone
        for piece in computed.pieces:
            assert any(s.equals(piece) or s.contains_cone(piece) for s in sampled)


def test_local_cells_feed_primitive_int_rows_to_strict_test(monkeypatch):
    from tiltkit import lp, rational
    from tiltkit.fixtures import fixture
    from tiltkit.hessian import build_graph_model

    inst = fixture("saddle-cone").instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    inside = []
    real_primitive = rational.primitive
    real_strict = lp.strict_homogeneous_feasible

    def counted_primitive(a):
        if inside:
            inside[0] += 1
        return real_primitive(a)

    def strict(*args):
        inside.append(0)
        try:
            return real_strict(*args)
        finally:
            assert inside.pop() == 0, "strict_homogeneous_feasible called primitive"

    monkeypatch.setattr(rational, "primitive", counted_primitive)
    monkeypatch.setattr(lp, "strict_homogeneous_feasible", strict)
    keys = []  # every key the memoized test is asked for, hit or miss
    real_memo = lp._strict_feasible

    def spy(*key):
        keys.append(key)
        return real_memo(*key)

    monkeypatch.setattr(lp, "_strict_feasible", spy)
    assert local_cells(model.union, model.basepoint)
    assert keys
    for n, eq, stricts in keys:
        for row in eq | stricts:
            assert type(row) is tuple and all(type(v) is int for v in row)
