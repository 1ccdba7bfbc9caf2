from fractions import Fraction as F
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit import lp
from tiltkit.cones import hrep_to_vrep
from tiltkit.rational import F0, F1, Mat, Vec, dot, mat, neg, vec, zeros

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# the statuses of the Fraction oracle; `lp.solve_standard` answers only
# whether the set is nonempty
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# -- the Bland oracle: two-phase simplex on a Fraction tableau -----------------


class _Tableau:
    # Simplex on: min c x  s.t.  A x = b, x >= 0, with b >= 0 maintained.

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c
        self.m = len(a)
        self.n = len(c)
        self.basis = []
        self.obj_shift = F0
        self.pivots = []  # (row, column) of each pivot, in order

    def pivot(self, r, col):
        self.pivots.append((r, col))
        piv = self.a[r][col]
        self.a[r] = [x / piv for x in self.a[r]]
        self.b[r] /= piv
        for i in range(self.m):
            if i != r and self.a[i][col] != 0:
                f = self.a[i][col]
                self.a[i] = [x - f * y for x, y in zip(self.a[i], self.a[r])]
                self.b[i] -= f * self.b[r]
        if self.c[col] != 0:
            f = self.c[col]
            self.c = [x - f * y for x, y in zip(self.c, self.a[r])]
            self.obj_shift = self.obj_shift - f * self.b[r]
        self.basis[r] = col

    def run(self):
        while True:
            col = next((j for j in range(self.n) if self.c[j] < 0), None)
            if col is None:
                return OPTIMAL
            # Bland: smallest ratio, ties by smallest basis index.
            best = None
            for i in range(self.m):
                if self.a[i][col] > 0:
                    key = (self.b[i] / self.a[i][col], self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return UNBOUNDED
            self.pivot(best[1], col)

    def solution(self):
        x = [F0] * self.n
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x


def fraction_phase1(a, b):
    """Phase 1 of Bland's rule on the Fraction tableau [a | I | b], b >= 0,
    run to its optimum: the tableau whose pivots `lp.solve_standard` must take."""
    m, n = len(a), len(a[0])
    rows = [[F(x) for x in r] for r in a]
    rhs = [F(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # Phase 1: artificials, priced out of the cost row.
    t = _Tableau([row + [F1 if j == i else F0 for j in range(m)] for i, row in enumerate(rows)],
                 list(rhs), [F0] * n + [F1] * m)
    t.basis = list(range(n, n + m))
    for i in range(m):
        t.c = [x - y for x, y in zip(t.c, t.a[i])]
        t.obj_shift -= t.b[i]
    assert t.run() == OPTIMAL  # phase 1 is bounded below by 0
    return t


def fraction_solve_standard(c, a, b):
    """min c x  s.t.  a x = b, x >= 0, by Bland's rule on Fractions: the
    optimizing oracle, whose phase 1 `lp.solve_standard` must match."""
    m, n = len(a), len(c)
    t = fraction_phase1(a, b)
    if t.obj_shift != 0:
        return INFEASIBLE, None, None
    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if t.basis[i] >= n:
            col = next((j for j in range(n) if t.a[i][j] != 0), None)
            if col is not None:
                t.pivot(i, col)
    keep = [i for i in range(m) if t.basis[i] < n]
    t2 = _Tableau([t.a[i][:n] for i in keep], [t.b[i] for i in keep], [F(x) for x in c])
    t2.basis = [t.basis[i] for i in keep]
    for i, j in enumerate(t2.basis):
        if t2.c[j] != 0:
            f = t2.c[j]
            t2.c = [x - f * y for x, y in zip(t2.c, t2.a[i])]
    if t2.run() == UNBOUNDED:
        return UNBOUNDED, None, None
    x = tuple(t2.solution())
    return OPTIMAL, x, dot(vec(c), x)


# -- LP oracles: the general two-phase LP over free variables -----------------


def minimize(c: Sequence[F],
             a_ub: Mat = (), b_ub: Vec = (),
             a_eq: Mat = (), b_eq: Vec = ()) -> tuple[str, Vec | None, F | None]:
    """min c x  s.t.  a_ub x <= b_ub, a_eq x = b_eq, x free.

    Free variables are split x = x+ - x-; inequality rows get slacks.
    """
    n = len(c)
    m_ub = len(a_ub)
    nn = 2 * n + m_ub
    rows: list[list[F]] = []
    rhs: list[F] = []
    for i, row in enumerate(a_ub):
        r = [F0] * nn
        for j, v in enumerate(row):
            r[j] = v
            r[n + j] = -v
        r[2 * n + i] = F1
        rows.append(r)
        rhs.append(b_ub[i])
    for row, bi in zip(a_eq, b_eq):
        r = [F0] * nn
        for j, v in enumerate(row):
            r[j] = v
            r[n + j] = -v
        rows.append(r)
        rhs.append(bi)
    cc = list(c) + [-x for x in c] + [F0] * m_ub
    status, xs, val = fraction_solve_standard(cc, rows, rhs)
    if status != OPTIMAL:
        return status, None, None
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    return OPTIMAL, x, val


def feasible_point(a_ub: Mat = (), b_ub: Vec = (),
                   a_eq: Mat = (), b_eq: Vec = (), *, n: int) -> Vec | None:
    """Some point x in R^n of {a_ub x <= b_ub, a_eq x = b_eq}, or None."""
    if not a_ub and not a_eq:
        return zeros(n)
    status, x, _ = minimize(zeros(n), a_ub, b_ub, a_eq, b_eq)
    return x if status == OPTIMAL else None


def max_over(c, a_ub, b_ub):
    """Oracle: (status, max of c x over {a_ub x <= b_ub}); status may be
    'unbounded' or 'infeasible'."""
    status, _, val = minimize(neg(c), a_ub, b_ub)
    return (OPTIMAL, -val) if status == OPTIMAL else (status, None)


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def standard_lps(draw):
    """min c x, a x = b, x >= 0 with m 1-5 rows and n 1-6 columns; rhs of
    either sign or zero (degenerate, so phase 1 meets ties in the ratio
    test and artificials can end it basic at level 0), and sometimes a last
    row that copies or combines earlier ones, so an artificial stays basic
    on it."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.one_of(st.just(F0), small), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 2)), draw(st.integers(0, m - 2))
        k = draw(small)
        a[-1] = [x + k * y for x, y in zip(a[i], a[j])]
        b[-1] = b[i] + k * b[j]
    c = draw(st.lists(small, min_size=n, max_size=n))
    return c, a, b


@settings(max_examples=300)
@given(standard_lps())
def test_integer_tableau_matches_fraction_bland(lp_data):
    # the same verdict by the same pivots: each (row, column) the int
    # tableau pivots on is the Fraction phase 1's, in the same order
    c, a, b = lp_data
    pivots = []

    def recorded(t, d, r, col):
        pivots.append((r, col))
        return pivot(t, d, r, col)

    pivot = lp._pivot
    lp._pivot = recorded
    try:
        feasible = lp.solve_standard(a, b)
    finally:
        lp._pivot = pivot
    assert pivots == fraction_phase1(a, b).pivots
    assert feasible == (fraction_solve_standard(c, a, b)[0] != INFEASIBLE)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_solve_standard_does_no_fraction_arithmetic(monkeypatch):
    systems = [
        # feasible, a negative rhs, and a row twice another (its artificial
        # stays basic at level 0)
        ([[F(1, 2), F(1, 3), F(-1)], [F(-2, 5), F(1), F(1, 4)], [F(1), F(2, 3), F(-2)]],
         [F(3, 4), F(-1, 6), F(3, 2)]),
        ([[F(1, 3), F(1, 2)], [F(-1, 3), F(-1, 2)]], [F(1), F(1, 5)]),  # infeasible
    ]
    expected = [fraction_solve_standard([F0] * len(a[0]), a, b)[0] != INFEASIBLE
                for a, b in systems]
    assert expected == [True, False]

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in the exact LP")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, no_arithmetic)
    got = [lp.solve_standard(*x) for x in systems]
    monkeypatch.undo()
    assert got == expected


def test_feasible_point_box():
    a = mat([[1, 0], [-1, 0], [0, 1], [0, -1]])
    b = vec([1, 1, 2, 0])
    x = feasible_point(a, b, n=2)
    assert x is not None
    assert all(dot(r, x) <= bi for r, bi in zip(a, b))


def test_infeasible():
    a = mat([[1], [-1]])
    b = vec([-1, -1])  # x <= -1 and x >= 1
    assert feasible_point(a, b, n=1) is None


def test_minimize_matches_vertex_enumeration():
    # min x + 2y over the triangle {x>=0, y>=0, x+y<=1}
    a = mat([[-1, 0], [0, -1], [1, 1]])
    b = vec([0, 0, 1])
    status, x, val = minimize(vec([1, 2]), a, b)
    assert status == OPTIMAL and val == 0
    status, x, val = minimize(vec([-1, -2]), a, b)
    assert status == OPTIMAL and val == -2 and x == vec([0, 1])


def test_unbounded():
    status, _, _ = minimize(vec([-1]), mat([[-1]]), vec([0]))
    assert status == UNBOUNDED


def motzkin(strict, weak=(), eq=(), *, n):
    """(a, b) with {z >= 0 : a z = b} empty iff {S u < 0, W u <= 0, E u = 0}
    has a solution u in R^n (Motzkin's transposition theorem): the
    alternative is lam, nu, mu+, mu- >= 0 with sum lam = 1 and
    S^T lam + W^T nu + E^T (mu+ - mu-) = 0."""
    cols = [*strict, *weak, *eq, *map(neg, eq)]
    a = [[c[i] for c in cols] for i in range(n)]
    a.append([1] * len(strict) + [0] * (len(cols) - len(strict)))
    return a, (0,) * n + (1,)


def feasible(strict=(), weak=(), eq=(), *, n):
    """Oracle: is {x in R^n : r x < v for (r, v) in strict, r x <= v in
    weak, r x = v in eq} nonempty?  Homogenized with a scale s > 0, it is
    Motzkin's alternative, decided by one phase-1 LP."""
    def lift(pairs):
        return [tuple(r) + (-v,) for r, v in pairs]
    return not lp.solve_standard(*motzkin(lift(strict) + [(0,) * n + (-1,)], lift(weak), lift(eq),
                                          n=n + 1))


def test_strictly_feasible():
    assert feasible([((1, 0), 0), ((0, 1), 0)], n=2)
    # x < 0 and x > 0 simultaneously: impossible
    assert not feasible([((1,), 0), ((-1,), 0)], n=1)
    # on the line x = 1, y < 1 and x + y >= 2 leave nothing
    assert not feasible([((0, 1), 1)], [((-1, -1), -2)], [((1, 0), 1)], n=2)
    assert feasible([((0, 1), 1)], [((-1, -1), -1)], [((1, 0), 1)], n=2)
    # no strict row: x <= -1 and x >= 1 is empty, x = 1 and x <= 1 is not
    assert not feasible(weak=[((1,), -1), ((-1,), -1)], n=1)
    assert feasible(weak=[((1,), 1)], eq=[((1,), 1)], n=1)


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
    """Reference: Motzkin's alternative to {E u = 0, S u < 0}, on the
    Fraction oracle; no nullspace."""
    a, b = motzkin(strict_rows, eq=eq_rows, n=n)
    return fraction_solve_standard([0] * len(a[0]), a, b)[0] == INFEASIBLE


def ray_oracle(eq_rows, strict_rows, n):
    """Reference with no LP: {E u = 0, S u < 0} has a solution iff each row
    of S is negative on some extreme ray of {E u = 0, S u <= 0}.  The sum of
    such rays solves it; a solution is a sum of rays and of lineality, on
    which S is 0."""
    _, rays = hrep_to_vrep([*eq_rows, *map(neg, eq_rows), *strict_rows], n)
    return all(any(dot(s, r) < 0 for r in rays) for s in strict_rows)


@st.composite
def strict_systems(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-2, 2)] * n)
    eq, strict = draw(st.lists(row, max_size=3)), draw(st.lists(row, max_size=4))
    if strict and draw(st.booleans()):
        # minus the sum of the strict rows: infeasible, but dropping any
        # one row can make it feasible
        strict.append(tuple(-sum(col) for col in zip(*strict)))
    # more strict sets against the same equality set, its rows reordered
    tries = draw(st.lists(st.tuples(st.permutations(eq), st.lists(row, max_size=4)), max_size=3))
    return (eq, strict, n,
            draw(st.lists(st.fractions(min_value=F(1, 7), max_value=7), min_size=8, max_size=8)),
            tries)


@settings(max_examples=100)
@given(strict_systems())
def test_strict_homogeneous_feasible_matches_gordan_oracle(system):
    eq, strict, n, scales, tries = system
    expected = gordan_oracle(eq, strict, n)
    assert ray_oracle(eq, strict, n) == expected
    assert lp.strict_homogeneous_feasible(frozenset(eq), frozenset(strict), n) == expected
    # positive rational multiples of the rows describe the same system
    scaled = [tuple(scales[i] * x for x in r) for i, r in enumerate(eq + strict)]
    assert lp.strict_homogeneous_feasible(scaled[:len(eq)], scaled[len(eq):], n) == expected
    # every other strict set against the same equality set, its rows in
    # another order, still gets the oracles' verdict
    for eq_order, other in tries:
        expected = gordan_oracle(eq, other, n)
        assert ray_oracle(eq, other, n) == expected
        assert lp.strict_homogeneous_feasible(eq_order, other, n) == expected


@given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=1, max_size=4),
       st.lists(rationals, min_size=2, max_size=2))
def test_lp_optimum_is_a_lower_bound_on_vertices(rows, c):
    # bounded region: rows plus a box
    box = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
    a = mat(list(rows) + box)
    b = vec([F(1)] * len(rows) + [F(2)] * 4)
    status, x, val = minimize(vec(c), a, b)
    assert status == OPTIMAL
    # optimum must not exceed the value at any feasible lattice point
    for px in (F(-2), F(0), F(2)):
        for py in (F(-2), F(0), F(2)):
            p = vec([px, py])
            if all(dot(r, p) <= bi for r, bi in zip(a, b)):
                assert val <= dot(vec(c), p)


def test_max_over():
    a = mat([[1], [-1]])
    b = vec([2, 0])
    status, mx = max_over(vec([1]), a, b)
    assert status == OPTIMAL and mx == 2
