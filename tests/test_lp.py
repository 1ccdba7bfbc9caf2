import itertools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit import lp
from tiltkit.rational import dot, mat, vec, zeros

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_feasible_point_box():
    a = mat([[1, 0], [-1, 0], [0, 1], [0, -1]])
    b = vec([1, 1, 2, 0])
    x = lp.feasible_point(a, b)
    assert x is not None
    assert all(dot(r, x) <= bi for r, bi in zip(a, b))


def test_infeasible():
    a = mat([[1], [-1]])
    b = vec([-1, -1])  # x <= -1 and x >= 1
    assert lp.feasible_point(a, b, n=1) is None


def test_minimize_matches_vertex_enumeration():
    # min x + 2y over the triangle {x>=0, y>=0, x+y<=1}
    a = mat([[-1, 0], [0, -1], [1, 1]])
    b = vec([0, 0, 1])
    status, x, val = lp.minimize(vec([1, 2]), a, b)
    assert status == lp.OPTIMAL and val == 0
    status, x, val = lp.minimize(vec([-1, -2]), a, b)
    assert status == lp.OPTIMAL and val == -2 and x == vec([0, 1])


def test_unbounded():
    status, _, _ = lp.minimize(vec([-1]), mat([[-1]]), vec([0]))
    assert status == lp.UNBOUNDED


def test_strictly_feasible():
    a = mat([[1, 0], [0, 1]])
    p = lp.strictly_feasible_point(a_strict=a, b_strict=vec([0, 0]), n=2)
    assert p is not None and all(dot(r, p) < 0 for r in a)
    # x < 0 and x > 0 simultaneously: impossible
    assert lp.strictly_feasible_point(a_strict=mat([[1], [-1]]),
                                      b_strict=vec([0, 0]), n=1) is None


def test_strict_homogeneous_feasible():
    # open quadrant is nonempty
    assert lp.strict_homogeneous_feasible((), mat([[1, 0], [0, 1]]), 2)
    # u = 0 forced by equalities kills every strict row
    assert not lp.strict_homogeneous_feasible(mat([[1, 0], [0, 1]]),
                                              mat([[1, 1]]), 2)
    # strict row orthogonal to the allowed line
    assert not lp.strict_homogeneous_feasible(mat([[0, 1]]), mat([[0, 1]]), 2)
    assert lp.strict_homogeneous_feasible(mat([[0, 1]]), mat([[1, 0]]), 2)


def gordan_oracle(eq_rows, strict_rows, n):
    """Reference: {E u = 0, S u < 0} is solvable iff no lam >= 0 with
    sum lam = 1 and some mu give S^T lam + E^T mu = 0 (Motzkin).  One
    exact LP; no nullspace and no float witness."""
    m, k = len(strict_rows), len(eq_rows)
    a = [[s[i] for s in strict_rows] + [e[i] for e in eq_rows] + [-e[i] for e in eq_rows]
         for i in range(n)]
    a.append([1] * m + [0] * (2 * k))
    status, _, _ = lp.solve_standard([F(0)] * (m + 2 * k), mat(a), vec([0] * n + [1]))
    return status == lp.INFEASIBLE


@st.composite
def strict_systems(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-2, 2)] * n)
    eq, strict = draw(st.lists(row, max_size=3)), draw(st.lists(row, max_size=4))
    if strict and draw(st.booleans()):
        # minus the sum of the strict rows: infeasible, but dropping any
        # one row can make it feasible
        strict.append(tuple(-sum(col) for col in zip(*strict)))
    return (eq, strict, n,
            draw(st.lists(st.fractions(min_value=F(1, 7), max_value=7), min_size=8, max_size=8)))


@settings(max_examples=100)
@given(strict_systems())
def test_strict_homogeneous_feasible_matches_gordan_oracle(system):
    eq, strict, n, scales = system
    expected = gordan_oracle(eq, strict, n)
    assert lp.strict_homogeneous_feasible(frozenset(eq), frozenset(strict), n) == expected
    # positive rational multiples of the rows describe the same system
    scaled = [tuple(scales[i] * x for x in r) for i, r in enumerate(eq + strict)]
    assert lp.strict_homogeneous_feasible(scaled[:len(eq)], scaled[len(eq):], n) == expected


@given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=1, max_size=4),
       st.lists(rationals, min_size=2, max_size=2))
def test_lp_optimum_is_a_lower_bound_on_vertices(rows, c):
    # bounded region: rows plus a box
    box = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
    a = mat(list(rows) + box)
    b = vec([F(1)] * len(rows) + [F(2)] * 4)
    status, x, val = lp.minimize(vec(c), a, b)
    assert status == lp.OPTIMAL
    # optimum must not exceed the value at any feasible lattice point
    for px in (F(-2), F(0), F(2)):
        for py in (F(-2), F(0), F(2)):
            p = vec([px, py])
            if all(dot(r, p) <= bi for r, bi in zip(a, b)):
                assert val <= dot(vec(c), p)


def test_max_over():
    a = mat([[1], [-1]])
    b = vec([2, 0])
    status, mx = lp.max_over(vec([1]), a, b)
    assert status == lp.OPTIMAL and mx == 2
