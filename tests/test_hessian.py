from fractions import Fraction as F

import pytest
from test_cells import regular_normal_cone
from test_copositive import fraction_simplex_min, fraction_zero_witnesses

from tiltkit.cells import cell_complex, limiting_normal_cone
from tiltkit.copositive import cone_form_min_sign, gram, graph_form, simplex_min
from tiltkit.fixtures import CORPUS
from tiltkit.hessian import (INDEFINITE, POSITIVE_DEFINITE,
                             SEMIDEFINITE_DEGENERATE, _direction_set, _slice_pieces,
                             build_graph_model, definiteness, hessian_sum_rule_check,
                             kernel, second_order_map)
from tiltkit.model import FunctionSpec, ProblemInstance, QuadraticForm, ValidationError
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
from tiltkit.rational import combine, dot, is_zero, mat, matvec, neg, vec, zeros


def full(n):
    return PolyUnion([ConvexPolyhedron.full_space(n)])


def halfline():
    return PolyUnion([ConvexPolyhedron([(-1,)], (0,), dim=1)])


def saddle():
    return FunctionSpec(
        smooth=QuadraticForm.make([[2, 0], [0, -2]], [0, 0]),
        domain=PolyUnion([ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))]))


def test_smooth_graph_is_a_line():
    f = FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=full(1))
    m = build_graph_model(f, (0,), (0,))
    assert len(m.pieces) == 1
    assert m.pieces[0].contains((2, 2)) and not m.pieces[0].contains((2, 1))
    n = limiting_normal_cone(m.union, m.basepoint)
    assert len(n.pieces) == 1
    assert n.contains((1, -1)) and not n.contains((1, 1))


@pytest.mark.parametrize("xbar, xstar", [((0, 0), (0, 0, 99)), ((0, 0, 0), (0, 0))])
def test_graph_model_rejects_a_reference_pair_of_the_wrong_length(xbar, xstar):
    with pytest.raises(ValidationError, match="dimension mismatch"):
        build_graph_model(saddle(), xbar, xstar)


def test_indicator_halfline_graph_is_the_complementarity_angle():
    f = FunctionSpec(smooth=QuadraticForm.zero(1), domain=halfline())
    m = build_graph_model(f, (0,), (0,))
    pts = [((2, 0), True), ((0, -3), True), ((1, -1), False), ((0, 1), False)]
    for p, expect in pts:
        assert any(piece.contains(p) for piece in m.pieces) == expect


def test_indicator_halfline_normal_cone_quadrant_and_axes():
    f = FunctionSpec(smooth=QuadraticForm.zero(1), domain=halfline())
    m = build_graph_model(f, (0,), (0,))
    n = limiting_normal_cone(m.union, m.basepoint)
    # quadrant {w <= 0, z >= 0} plus both coordinate lines
    for p in [(0, 0), (-1, 1), (-1, 0), (0, 1), (0, -1), (1, 0), (-2, 3)]:
        assert n.contains(p), p
    for p in [(1, 1), (1, -1), (-1, -1)]:
        assert not n.contains(p), p


def test_smooth_reduction_diag():
    f = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]), domain=full(2))
    som = second_order_map(f, (0, 0), (0, 0))
    for u in [(1, 1), (2, -1), (F(1, 3), F(5, 7))]:
        qu = matvec(f.smooth.q, vec(u))
        assert som.contains(u, qu)
        assert all(p.poly_dim() == 0 for p in som.value(u))
    assert not som.contains((1, 1), (1, 1))


def test_indicator_at_interior_point_slices_to_zero():
    f = FunctionSpec(smooth=QuadraticForm.zero(1), domain=halfline())
    pieces = second_order_map(f, (1,), (0,)).value((5,))
    assert pieces and all(p.contains((0,)) and p.poly_dim() == 0 for p in pieces)


def test_saddle_key_membership_and_homogeneity():
    som = second_order_map(saddle(), (0, 0), (0, 0))
    assert som.contains((0, 1), (0, -2))
    assert som.contains((0, 2), (0, -4))
    assert som.contains((0, F(1, 3)), (0, F(-2, 3)))
    assert not som.contains((0, 1), (0, 2))


def test_saddle_graph_model_has_four_pieces():
    m = build_graph_model(saddle(), (0, 0), (0, 0))
    assert len(m.pieces) == 4


def combined_second_order(f, x, xstar, u):
    """Regular-coderivative value at a graph point: the slice of the regular
    graph normal cone; convex (one polyhedron) or None when empty."""
    model = build_graph_model(f, x, xstar)
    cone = regular_normal_cone(model.union, model.basepoint)
    pieces = _slice_pieces([cone], vec(u), f.dim)
    return pieces[0] if pieces else None


def test_combined_subset_of_limiting():
    f = FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=halfline())
    som = second_order_map(f, (0,), (0,))
    for u in [(1,), (-1,), (F(1, 2),)]:
        c = combined_second_order(f, (0,), (0,), u)
        if c is None:
            continue
        pts, rays, lin = c.vrep()
        for p in pts:
            assert som.contains(u, p)


def test_combined_equals_limiting_for_smooth():
    f = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]), domain=full(2))
    u = (1, 1)
    c = combined_second_order(f, (0, 0), (0, 0), u)
    assert c is not None and c.contains((1, 2)) and c.poly_dim() == 0


def test_sum_rule_on_three_fixtures():
    assert hessian_sum_rule_check(saddle(), (0, 0), (0, 0))
    f2 = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]), domain=full(2))
    assert hessian_sum_rule_check(f2, (0, 0), (0, 0))
    f3 = FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=halfline())
    assert hessian_sum_rule_check(f3, (0,), (0,))


def test_kernel_examples():
    f = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]), domain=full(2))
    assert kernel(f, (0, 0), (0, 0)).trivial
    kr = kernel(saddle(), (0, 0), (0, 0))
    assert not kr.trivial
    assert any(u in ((1, 1), (-1, -1)) or u in ((1, -1), (-1, 1)) for u in kr.basis)
    f3 = FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=halfline())
    assert kernel(f3, (0,), (0,)).trivial
    f4 = FunctionSpec(smooth=QuadraticForm.zero(1), domain=halfline())
    assert not kernel(f4, (0,), (0,)).trivial


def test_definiteness_verdicts():
    dv = definiteness(saddle(), (0, 0), (0, 0))
    assert dv.verdict == INDEFINITE
    u, ustar, val = dv.witness
    assert val < 0 and second_order_map(saddle(), (0, 0), (0, 0)).contains(u, ustar)

    f = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 2]], [0, 0]), domain=full(2))
    assert definiteness(f, (0, 0), (0, 0)).verdict == POSITIVE_DEFINITE

    neg = FunctionSpec(smooth=QuadraticForm.make([[-1]], [0]), domain=full(1))
    dvn = definiteness(neg, (0,), (0,))
    assert dvn.verdict == INDEFINITE
    u, ustar, val = dvn.witness
    assert val == -(u[0] * u[0])  # pairing equals minus the squared norm

    deg = FunctionSpec(smooth=QuadraticForm.make([[1, 0], [0, 0]], [0, 0]), domain=full(2))
    dvd = definiteness(deg, (0, 0), (0, 0))
    assert dvd.verdict == SEMIDEFINITE_DEGENERATE
    assert not kernel(deg, (0, 0), (0, 0)).trivial


def test_definiteness_shift_under_regularization():
    from tiltkit.model import regularize
    for name_f in (saddle(),
                   FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=halfline()),
                   FunctionSpec(smooth=QuadraticForm.make([[-1]], [0]), domain=full(1))):
        dv0 = definiteness(name_f, tuple([F(0)] * name_f.dim), tuple([F(0)] * name_f.dim))
        g = regularize(name_f, 1, tuple([F(0)] * name_f.dim))
        dvg = definiteness(g, tuple([F(0)] * name_f.dim), tuple([F(0)] * name_f.dim))
        order = {INDEFINITE: 0, SEMIDEFINITE_DEGENERATE: 1, POSITIVE_DEFINITE: 2}
        assert order[dvg.verdict] >= order[dv0.verdict]


def test_analytic_variant_rejected():
    from tiltkit.model import ANALYTIC_REGISTRY
    f = FunctionSpec(fixture=ANALYTIC_REGISTRY["square"])
    with pytest.raises(ValidationError):
        build_graph_model(f, (0,), (0,))


def test_graph_model_validates_membership():
    with pytest.raises(ValidationError):
        build_graph_model(saddle(), (0, 0), (0, 5))


def test_graph_pieces_lie_on_the_graph():
    from tiltkit.subdiff import subdifferential
    m = build_graph_model(saddle(), (0, 0), (0, 0))
    for piece in m.pieces:
        clipped = piece.intersect(ConvexPolyhedron.box((0, 0, 0, 0), F(1)))
        pts, _, _ = clipped.vrep()
        for p in pts:
            x, xs = p[:2], p[2:]
            assert subdifferential(m.f, x).contains(xs)


def test_regularize_shifts_hessian_values_exactly():
    from tiltkit.model import regularize

    f = saddle()
    g = regularize(f, 1, (0, 0))
    # every second-order value shifts by exactly theta * u
    cases = [((0, 1), (0, -2)), ((1, 1), (2, -2)), ((0, 2), (0, -4))]
    som_f, som_g = second_order_map(f, (0, 0), (0, 0)), second_order_map(g, (0, 0), (0, 0))
    for u, w in cases:
        assert som_f.contains(u, w)
        shifted = tuple(a + b for a, b in zip(w, u))
        assert som_g.contains(u, shifted)
    # the indefiniteness gap narrows by exactly theta on the witness pair
    dv_f = definiteness(f, (0, 0), (0, 0))
    dv_g = definiteness(g, (0, 0), (0, 0))
    assert dv_f.verdict == INDEFINITE and dv_g.verdict == INDEFINITE
    u, ustar, val = dv_f.witness
    norm_u = sum(x * x for x in u)
    shifted_pair = tuple(a + b for a, b in zip(ustar, u))
    assert som_g.contains(u, shifted_pair)
    assert val + norm_u == sum(a * b for a, b in zip(shifted_pair, u))


# -- the row-building graph code the graph slices replace, kept as oracles -------


def cells_adherent_to(cells, x):
    x = vec(x)
    return [c for c in cells if c.closure.contains(x)]


def graph_piece(f, cell):
    """{(x, y) : x in closure(cell), y - Qx - c in value(cell)}."""
    n = f.dim
    q, c = f.smooth.q, f.smooth.c
    rows, rhs = [], []
    for row, bi in zip(cell.closure.a, cell.closure.b):
        rows.append(tuple(row) + zeros(n))
        rhs.append(bi)
    for g in cell.value.ineqs:
        gq = matvec(q, vec(g))
        rows.append(tuple(-x for x in gq) + tuple(g))
        rhs.append(dot(vec(g), c))
    return ConvexPolyhedron(mat(rows), vec(rhs), dim=2 * n)


def adherent_graph_pieces(f, xbar, xstar):
    base = vec(xbar) + vec(xstar)
    pieces = (graph_piece(f, cell) for cell in cells_adherent_to(cell_complex(f.domain), xbar))
    return [p for p in pieces if p.contains(base)]


def row_loop_slice_pieces(cones, u, n):
    out = []
    for k in cones:
        rows, rhs = [], []
        for g in k.ineqs:
            gw, gz = vec(g[:n]), vec(g[n:])
            rows.append(gw)
            rhs.append(dot(gz, u))
        poly = ConvexPolyhedron(mat(rows), vec(rhs), dim=n)
        if not poly.is_empty():
            out.append(poly)
    return out


EXACT = sorted(name for name, fx in CORPUS.items() if fx.instance.f.is_exact)


@pytest.mark.parametrize("name", EXACT)
def test_graph_model_and_hessian_values_match_row_loop_oracles(name):
    inst = CORPUS[name].instance
    model = build_graph_model(inst.f, inst.xbar, inst.xstar)
    want = adherent_graph_pieces(inst.f, inst.xbar, inst.xstar)
    assert [(p.a, p.b) for p in model.pieces] == [(p.a, p.b) for p in want]
    som = second_order_map(inst.f, inst.xbar, inst.xstar)
    for u in _direction_set(inst.f.dim):
        got = som.value(u)
        want = row_loop_slice_pieces(som.normal_cone.pieces, u, inst.f.dim)
        assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in want]


def rescan_definiteness(f, xbar, xstar):
    """Oracle: the definiteness loop that reads each piece's sign and first
    zero point, then enumerates the zero points again from a fresh Gram
    matrix when that point's u-part is 0."""
    som = second_order_map(f, xbar, xstar)
    n = f.dim
    form = graph_form(n, 0, -1, 0)
    neg_wit = zero_wit = None
    for k in som.normal_cone.pieces:
        gens = k.generators()
        if not gens or all(is_zero(vec(g[n:])) for g in gens):
            continue
        sign, w = cone_form_min_sign(k, form)
        if sign < 0:
            neg_wit = w
            break
        if sign == 0 and zero_wit is None:
            points = (combine(gens, t) for t in simplex_min(gram(gens, form))[2])
            zero_wit = w if not is_zero(vec(w[n:])) else next(
                (v for v in points if not is_zero(vec(v[n:]))), None)
    if neg_wit is not None:
        u, ustar = neg(vec(neg_wit[n:])), vec(neg_wit[:n])
        return INDEFINITE, (u, ustar, dot(ustar, u))
    if zero_wit is not None:
        return SEMIDEFINITE_DEGENERATE, (neg(vec(zero_wit[n:])), vec(zero_wit[:n]), F(0))
    return POSITIVE_DEFINITE, None


@pytest.mark.parametrize("name", EXACT)
def test_definiteness_matches_rescan_oracle(name):
    inst = CORPUS[name].instance
    dv = definiteness(inst.f, inst.xbar, inst.xstar)
    assert (dv.verdict, dv.witness) == rescan_definiteness(inst.f, inst.xbar, inst.xstar)


def fraction_definiteness(f, xbar, xstar):
    """Oracle: `definiteness`'s per-piece loop, with each piece's simplex
    minimum and zero witnesses taken from the Fraction oracles, whose zero
    witnesses come from a double description per support."""
    som = second_order_map(f, xbar, xstar)
    n = f.dim
    form = graph_form(n, 0, -1, 0)
    zero_wit = None
    for k in som.normal_cone.pieces:
        gens = k.generators()
        if all(is_zero(vec(g[n:])) for g in gens):
            continue
        gm = gram(gens, form)
        val, t = fraction_simplex_min(gm)
        if val < 0:
            w = combine(gens, t)
            u, ustar = neg(vec(w[n:])), vec(w[:n])
            return INDEFINITE, (u, ustar, dot(ustar, u))
        if val == 0 and zero_wit is None:
            points = (combine(gens, t) for t in fraction_zero_witnesses(gm))
            zero_wit = next((v for v in points if not is_zero(vec(v[n:]))), None)
    if zero_wit is not None:
        return SEMIDEFINITE_DEGENERATE, (neg(vec(zero_wit[n:])), vec(zero_wit[:n]), F(0))
    return POSITIVE_DEFINITE, None


def signed_permuted(inst):
    """The instance composed with x = P y, for the signed permutation with
    x_i = s_i y_(i+1 mod n) and s = (-1, 1, -1): one per dimension."""
    f, n = inst.f, inst.f.dim
    perm, sign = [(i + 1) % n for i in range(n)], [(-1) ** (i + 1) for i in range(n)]

    def pt(v):  # P'v
        out = [F(0)] * n
        for i in range(n):
            out[perm[i]] = sign[i] * F(v[i])
        return out

    q = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            q[perm[i]][perm[k]] = sign[i] * sign[k] * F(f.smooth.q[i][k])
    domain = PolyUnion([ConvexPolyhedron([pt(r) for r in p.a], p.b, dim=n) for p in f.domain.pieces])
    g = FunctionSpec(smooth=QuadraticForm.make(q, pt(f.smooth.c), f.smooth.d), domain=domain)
    return ProblemInstance(g, pt(inst.xbar), pt(inst.xstar), inst.params, name=inst.name)


@pytest.mark.parametrize("permuted", [False, True])
@pytest.mark.parametrize("name", EXACT)
def test_definiteness_witness_matches_fraction_oracle(name, permuted):
    inst = CORPUS[name].instance
    if permuted:
        inst = signed_permuted(inst)
    dv = definiteness(inst.f, inst.xbar, inst.xstar)
    assert (dv.verdict, dv.witness) == fraction_definiteness(inst.f, inst.xbar, inst.xstar)
