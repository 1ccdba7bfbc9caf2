import itertools
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lp import ARITHMETIC, INFEASIBLE, OPTIMAL, minimize

from tiltkit.cones import PolyCone
from tiltkit.copositive import (_embed, cone_form_min_sign, cone_form_sign_and_zeros, gram,
                                graph_form, simplex_min)
from tiltkit.rational import (F0, F1, combine, dot, int_row, int_scaled, is_zero, mat, nullspace,
                             solve_affine, vec, zeros)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _quad(n, t):
    return sum((t[i] * n[i][j] * t[j] for i in range(len(t)) for j in range(len(t))), F0)


def sym(rows):
    n = len(rows)
    return mat([[(rows[i][j] + rows[j][i]) / 2 for j in range(n)] for i in range(n)])


pairing = graph_form(1, 0, -1, 0)  # <w, -z> on stacked 2-D vectors (w, z)


def stacked_form(n, ww, wz, zz):
    """Oracle: the bilinear form graph_form's matrix stands for."""
    def b(p, q):
        w1, z1, w2, z2 = p[:n], p[n:], q[:n], q[n:]
        return ww * dot(w1, w2) + wz * (dot(w1, z2) + dot(z1, w2)) / 2 + zz * dot(z1, z2)
    return b


@st.composite
def graph_forms(draw):
    n = draw(st.integers(1, 2))
    gens = draw(st.lists(st.lists(rationals, min_size=2 * n, max_size=2 * n),
                         min_size=1, max_size=4))
    return n, draw(rationals), draw(rationals), draw(rationals), [vec(g) for g in gens]


@given(graph_forms())
def test_gram_of_graph_form_matches_stacked_formula(args):
    n, ww, wz, zz, gens = args
    b = stacked_form(n, ww, wz, zz)
    assert gram(gens, graph_form(n, ww, wz, zz)) == mat([[b(g, h) for h in gens] for g in gens])


@given(graph_forms())
def test_int_gram_is_the_stacked_formula_times_the_forms_denominator(args):
    # the Gram matrix cone_form_sign_and_zeros builds: the form scaled to
    # ints by the lcm d of its denominators, over primitive int generators
    n, ww, wz, zz, gens = args
    b = stacked_form(n, ww, wz, zz)
    gens = [int_row(g) for g in gens]
    d, m = int_scaled(graph_form(n, ww, wz, zz))
    got = gram(gens, m)
    assert all(type(x) is int for row in got for x in row)
    assert got == mat([[d * b(g, h) for h in gens] for g in gens])


def test_identity_strictly_copositive():
    assert simplex_min(mat([[1, 0], [0, 1]]))[0] > 0


def test_psd_with_positive_kernel_is_zero():
    n = mat([[1, -1], [-1, 1]])
    val, _, zeros = simplex_min(n)
    assert val == 0 and zeros and _quad(n, zeros[0]) == 0


def test_hyperbolic_negative():
    n = mat([[0, -1], [-1, 0]])
    val, w, _ = simplex_min(n)
    assert val < 0 and _quad(n, w) < 0 and all(x >= 0 for x in w)


def test_indefinite_but_copositive():
    # eigenvalues -1 and 3, yet nonnegative on the orthant
    assert simplex_min(mat([[1, 2], [2, 1]]))[0] > 0


HORN = mat([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
            [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]])


def test_horn_matrix_exactly_zero():
    val, arg, zeros = simplex_min(HORN)
    assert val == 0 and _quad(HORN, arg) == 0
    assert all(_quad(HORN, t) == 0 for t in zeros)


def test_horn_matrix_perturbed_negative():
    eps = F(1, 100)
    h = [[F(v) for v in row] for row in
         [[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
          [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]]]
    for i in range(5):
        h[i][i] -= eps
    val, w, _ = simplex_min(mat(h))
    assert val < 0 and _quad(mat(h), w) < 0


def test_block_pair_with_irrational_spectrum():
    # two copies of [[0,1/2],[1/2,1]]: negative eigenvalue, but the
    # eigenvector mixes signs, so the orthant minimum is exactly zero
    n = mat([[0, F(1, 2), 0, 0], [F(1, 2), 1, 0, 0],
             [0, 0, 0, F(1, 2)], [0, 0, F(1, 2), 1]])
    assert simplex_min(n)[0] == 0


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_simplex_min_is_a_true_minimum(rows):
    n = sym(rows)
    val, arg, _ = simplex_min(n)
    assert sum(arg) == 1 and all(x >= 0 for x in arg)
    assert _quad(n, arg) == val
    # no sampled simplex point goes below the reported exact minimum
    rng = np.random.default_rng(0)
    nf = np.array([[float(x) for x in r] for r in n])
    for _ in range(200):
        t = rng.dirichlet([1.0, 1.0, 1.0])
        assert t @ nf @ t >= float(val) - 1e-9


def _submatrix(n, s):
    return mat([[n[i][j] for j in s] for i in s])


def lp_simplex_min(n):
    """Oracle: `simplex_min` that also minimizes lambda/2 over each
    degenerate KKT system's polytope, by an exact LP in its nullspace
    coordinates; returns (min, argmin, number of those LPs solved)."""
    k = len(n)
    if k == 0:
        raise ValueError("empty form")
    best = arg = None
    solved = 0
    for size in range(1, k + 1):
        for s in itertools.combinations(range(k), size):
            ns = _submatrix(n, s)
            # rows: 2 (N_S t) - lambda 1 = 0 ; sum t = 1, unknowns (t, lambda)
            rows = [tuple(2 * ns[i][j] for j in range(size)) + (F(-1),)
                    for i in range(size)]
            rows.append((F1,) * size + (F0,))
            rhs = zeros(size) + (F1,)
            sol = solve_affine(mat(rows), rhs, size + 1)
            if sol is None:
                continue
            part, null = sol
            if not null:
                t, lam = part[:size], part[size]
                if all(x >= 0 for x in t):
                    val = lam / 2
                    if best is None or val < best:
                        best, arg = val, _embed(t, s, k)
                continue
            # minimize lambda/2 over {t(theta) >= 0}: exact LP in theta
            m = len(null)
            a_ub = mat([tuple(-null[j][i] for j in range(m)) for i in range(size)])
            b_ub = vec(part[:size])
            c = vec([null[j][size] for j in range(m)])
            status, theta, _ = minimize(c, a_ub, b_ub)
            if status == INFEASIBLE:
                continue
            # boundedness: t-components pin every nullspace direction, so the
            # value is a continuous function on a compact simplex face
            assert status == OPTIMAL, "degenerate KKT branch cannot be unbounded"
            solved += 1
            t = list(part[:size])
            lam = part[size]
            for j in range(m):
                lam += null[j][size] * theta[j]
                for i in range(size):
                    t[i] += null[j][i] * theta[j]
            if all(x >= 0 for x in t):
                val = lam / 2
                if best is None or val < best:
                    best, arg = val, _embed(tuple(t), s, k)
    assert best is not None and arg is not None  # singleton supports always qualify
    return best, arg, solved


@st.composite
def forms_with_a_repeated_index(draw):
    """Symmetric forms in which one index repeats another's row and column,
    so every support holding both has a singular principal submatrix and a
    degenerate KKT system (t may move mass between the two).  The base is
    a random form or the Gram matrix of k points in the plane under a
    diagonal form, where every support of three or more is singular too."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rows = sym(draw(st.lists(st.lists(rationals, min_size=k, max_size=k),
                                 min_size=k, max_size=k)))
    else:
        g = draw(st.lists(st.tuples(rationals, rationals), min_size=k, max_size=k))
        d = draw(st.tuples(rationals, rationals))
        rows = [[d[0] * p[0] * q[0] + d[1] * p[1] * q[1] for q in g] for p in g]
    i = draw(st.integers(0, k - 1))
    ext = [list(r) + [r[i]] for r in rows]
    ext.append(ext[i][:])
    order = draw(st.permutations(range(k + 1)))
    return mat([[ext[a][b] for b in order] for a in order])


def fraction_simplex_min(n):
    """Oracle: `simplex_min` on Fractions, one `solve_affine` per support
    (an elimination for the solution, another for the nullspace)."""
    k = len(n)
    best = arg = None
    for size in range(1, k + 1):
        for s in itertools.combinations(range(k), size):
            ns = _submatrix(n, s)
            rows = [tuple(2 * ns[i][j] for j in range(size)) + (F(-1),)
                    for i in range(size)]
            rows.append((F1,) * size + (F0,))
            sol = solve_affine(mat(rows), zeros(size) + (F1,), size + 1)
            if sol is None:
                continue
            part, null = sol
            t, lam = part[:size], part[size]
            if not null and all(x >= 0 for x in t):
                if best is None or lam / 2 < best:
                    best, arg = lam / 2, _embed(t, s, k)
    return best, arg


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k)))
def test_int_simplex_min_matches_fraction_oracle(rows):
    n = sym(rows)
    assert simplex_min(n)[:2] == fraction_simplex_min(n)


@settings(max_examples=60, deadline=None)
@given(forms_with_a_repeated_index())
def test_int_simplex_min_matches_fraction_oracle_on_degenerate_supports(n):
    assert simplex_min(n)[:2] == fraction_simplex_min(n)


@settings(max_examples=60, deadline=None)
@given(forms_with_a_repeated_index())
def test_simplex_min_matches_lp_oracle_on_degenerate_supports(n):
    val, arg, solved = lp_simplex_min(n)
    assert solved  # the oracle's degenerate branch ran
    assert simplex_min(n)[:2] == (val, arg)


def fraction_zero_witnesses(n):
    """Oracle: `simplex_min`'s zeros on Fractions, each support's kernel
    tested by `nullspace` and its cone built from the rows of N_S."""
    k = len(n)
    seen = set()
    for size in range(1, k + 1):
        for s in itertools.combinations(range(k), size):
            ns = _submatrix(n, s)
            if not nullspace(ns, size):
                continue
            rows = list(ns) + [tuple(-x for x in row) for row in ns]
            rows += [tuple(-F1 if j == i else F0 for j in range(size)) for i in range(size)]
            for g in PolyCone.from_inequalities(mat(rows), size).rays:
                t = _embed(vec(g), s, k)
                if t not in seen and _quad(n, t) == 0:
                    seen.add(t)
                    yield t


@st.composite
def forms_with_singular_ones(draw):
    """Copositive 1-4 forms A'A + P with zeros on the orthant.  A has 1-3
    rows, and one column is solved for so that A t = 0 at a drawn t >= 0
    when t is not 0; P is symmetric and entrywise nonnegative, with zero
    rows and columns on the support of t and on a drawn set of indices."""
    k = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=1, max_size=3))
    t = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    if any(t):
        c = t.index(max(t))
        for r in a:
            r[c] = -sum((r[j] * t[j] for j in range(k) if j != c), F0) / t[c]
    n = [[sum((r[i] * r[j] for r in a), F0) for j in range(k)] for i in range(k)]
    if draw(st.booleans()):
        free = draw(st.sets(st.integers(0, k - 1))) | {j for j in range(k) if t[j]}
        p = draw(st.lists(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                                   min_size=k, max_size=k), min_size=k, max_size=k))
        for i, j in itertools.product(range(k), repeat=2):
            if i not in free and j not in free:
                n[i][j] += (p[i][j] + p[j][i]) / 2
    return mat(n)


@settings(max_examples=100, deadline=None)
@given(forms_with_singular_ones())
def test_int_zero_witnesses_match_fraction_oracle(n):
    val, _, zeros = simplex_min(n)
    assert val >= 0  # copositive, where the zeros are specified
    assert zeros == list(fraction_zero_witnesses(n))


def test_zero_witnesses_of_a_form_that_is_not_copositive_differ_from_the_oracle():
    # the walk's rule needs copositivity: (N t)_2 = (t0 - t1)/2 changes sign
    # on the quadrant of the support {0, 1}, so (1, 1, 0), extreme in the
    # cone of {0, 1, 2} but not in that quadrant, is one more oracle ray
    n = mat([[0, 0, F(1, 2)], [0, 0, F(-1, 2)], [F(1, 2), F(-1, 2), 0]])
    val, _, zeros = simplex_min(n)
    assert val < 0
    assert zeros == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert list(fraction_zero_witnesses(n)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]


def test_zero_witnesses_where_a_support_has_a_two_dimensional_kernel():
    # t'Nt = 2 t2 (t0 + t1): N_S of S = {0, 1} is 0, whose kernel is the
    # plane, and the orthant's zeros are its quadrant and the t2 axis
    n = mat([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    val, _, zeros = simplex_min(n)
    assert val == 0
    assert zeros == list(fraction_zero_witnesses(n))


def test_zero_witnesses_of_the_horn_matrix_match_the_oracle():
    assert simplex_min(HORN)[2] == list(fraction_zero_witnesses(HORN))


def test_zero_witness_enumeration():
    n = mat([[1, -1], [-1, 1]])
    zeros = simplex_min(n)[2]
    assert any(w[0] > 0 and w[1] > 0 for w in zeros)
    for w in zeros:
        assert _quad(n, w) == 0


def test_cone_form_quadrant_negative():
    quad = PolyCone.from_generators([(1, 0), (0, 1)], 2)
    s, w = cone_form_min_sign(quad, pairing)
    assert s == -1
    assert dot(vec(w[:1]), vec(w[1:])) > 0  # w and z share sign: pairing < 0


def test_cone_form_zero_spuriousness():
    # q = (a+b)b on cone{(-1,0),(-1,1)}: zero only where the z-part vanishes
    c = PolyCone.from_generators([(-1, 0), (-1, 1)], 2)
    s, w = cone_form_min_sign(c, pairing)
    assert s == 0
    sign, _, zeros = cone_form_sign_and_zeros(c, pairing)
    zs = list(zeros)
    assert sign == 0 and zs and all(v[1] == 0 for v in zs)


def test_cone_form_lines():
    anti = PolyCone.from_generators([], 2, lineality=[(1, -1)])
    assert cone_form_min_sign(anti, pairing)[0] == 1
    diag = PolyCone.from_generators([], 2, lineality=[(1, 1)])
    assert cone_form_min_sign(diag, pairing)[0] == -1
    assert cone_form_min_sign(anti, pairing) == (1, None)
    # the simplex minimum is 0 there, but only at t = (1/2, 1/2), the apex
    assert cone_form_sign_and_zeros(anti, pairing) == (1, None, [])


def test_trivial_cone():
    assert cone_form_min_sign(PolyCone.zero(2), pairing) == (1, None)


def two_pass_min_sign(cone, form):
    """Oracle: the orthant sign first, then a second zero enumeration for
    a witness whose cone point is nonzero, both from the Fraction oracles
    on a Fraction Gram matrix."""
    gens = cone.generators()
    if not gens:
        return 1, None
    n = gram(gens, form)
    val, t = fraction_simplex_min(n)
    if val < 0:
        return -1, combine(gens, t)
    if val > 0:
        return 1, None
    for t in fraction_zero_witnesses(n):
        v = combine(gens, t)
        if not is_zero(v):
            return 0, v
    return 1, None


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(small, min_size=d, max_size=d), min_size=1, max_size=3),
    st.lists(st.lists(small, min_size=d, max_size=d), max_size=1),
    st.lists(st.lists(small, min_size=d, max_size=d), min_size=d, max_size=d))))
def test_cone_form_min_sign_matches_two_pass_oracle(args):
    rays, lin, rows = args
    d = len(rows)
    cone = PolyCone.from_generators(rays, d, lineality=lin)
    form = sym(rows)
    assert cone_form_min_sign(cone, form) == two_pass_min_sign(cone, form)


def test_zero_sign_witness_is_the_first_zero_point():
    # a PSD form vanishing on the ray (1, 1) of the quadrant
    form = mat([[1, -1], [-1, 1]])
    quad = PolyCone.from_generators([(1, 0), (0, 1)], 2)
    s, w = cone_form_min_sign(quad, form)
    assert s == 0 and w == cone_form_sign_and_zeros(quad, form)[2][0]


def test_gram_and_walk_do_no_fraction_arithmetic_on_ints(monkeypatch):
    # a negative form, a PSD one with a zero on (1, 1), and the Horn form,
    # over int generators and the ints of the forms
    cases = [([(1, 0), (0, 1), (1, 1)], ((0, -1), (-1, 0))),
             ([(1, 0), (0, 1)], ((1, -1), (-1, 1))),
             ([tuple(int(i == j) for j in range(5)) for i in range(5)], HORN)]
    forms = [(gens, int_scaled(form)[1]) for gens, form in cases]
    # positive on the quadrant, so cone_form_sign_and_zeros combines no point
    quad = PolyCone.from_generators([(1, 0), (0, 1)], 2)
    positive = mat([[1, F(1, 2)], [F(1, 2), F(1, 3)]])
    assert cone_form_sign_and_zeros(quad, positive) == (1, None, [])
    expected = []
    for gens, m in forms:
        n = gram(gens, m)
        expected.append((n, simplex_min(n)))
    assert [r[1][0] < 0 for r in expected] == [True, False, False]
    assert [len(r[1][2]) for r in expected[1:]] == [1, 5]

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in the Gram matrix or the walk")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, no_arithmetic)
    got = []
    for gens, m in forms:
        n = gram(gens, m)
        got.append((n, simplex_min(n)))
    sign = cone_form_sign_and_zeros(quad, positive)
    monkeypatch.undo()
    assert got == expected and sign == (1, None, [])
