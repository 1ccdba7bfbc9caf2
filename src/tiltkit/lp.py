"""Exact linear programming over the rationals.

A plain two-phase simplex with Bland's rule on dense Fraction tableaus.
Problem sizes here are tiny (tens of variables), so termination and
exactness matter far more than pivoting heuristics.  The strict-feasibility
test of the cell recursion (`polyhedra.strict_leaves`) works on primitive
integer rows and reaches the simplex only when a float witness fails its
exact re-check; `strictly_feasible_point` serves `relint_point` alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .rational import (F0, F1, MEMO_SIZE, Mat, Vec, dot, int_nullspace, int_row, mat,
                       vec, zeros)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Tableau:
    # Simplex on: min c x  s.t.  A x = b, x >= 0, with b >= 0 maintained.

    def __init__(self, a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
        self.a = a
        self.b = b
        self.c = c
        self.m = len(a)
        self.n = len(c)
        self.basis: list[int] = []

    def _pivot(self, r: int, col: int) -> None:
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

    obj_shift = F0

    def run(self) -> str:
        while True:
            col = next((j for j in range(self.n) if self.c[j] < 0), None)
            if col is None:
                return OPTIMAL
            # Bland: smallest ratio, ties by smallest basis index.
            best = None
            for i in range(self.m):
                if self.a[i][col] > 0:
                    ratio = self.b[i] / self.a[i][col]
                    key = (ratio, self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return UNBOUNDED
            self._pivot(best[1], col)

    def solution(self) -> list[Fraction]:
        x = [F0] * self.n
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x


def solve_standard(c: Sequence[Fraction], a: Mat, b: Vec) -> tuple[str, Vec | None, Fraction | None]:
    """min c x  s.t.  a x = b, x >= 0.  Two-phase, exact."""
    m, n = len(a), len(c)
    rows = [list(r) for r in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificials.
    t = _Tableau([row + [F1 if j == i else F0 for j in range(m)] for i, row in enumerate(rows)],
                 list(rhs),
                 [F0] * n + [F1] * m)
    t.basis = list(range(n, n + m))
    t.obj_shift = F0
    # Price out the artificial basis.
    for i in range(m):
        t.c = [x - y for x, y in zip(t.c, t.a[i] + [F0] * 0)]
        t.obj_shift -= t.b[i]
    status = t.run()
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if -t.obj_shift != 0:
        return INFEASIBLE, None, None
    # Drive remaining artificials out of the basis where possible.
    for i in range(t.m):
        if t.basis[i] >= n:
            col = next((j for j in range(n) if t.a[i][j] != 0), None)
            if col is not None:
                t._pivot(i, col)
    keep = [i for i in range(t.m) if t.basis[i] < n]

    a2 = [[t.a[i][j] for j in range(n)] for i in keep]
    b2 = [t.b[i] for i in keep]
    t2 = _Tableau(a2, b2, list(c))
    t2.basis = [t.basis[i] for i in keep]
    t2.obj_shift = F0
    for i, j in enumerate(t2.basis):
        if t2.c[j] != 0:
            f = t2.c[j]
            t2.c = [x - f * y for x, y in zip(t2.c, t2.a[i])]
            t2.obj_shift -= f * t2.b[i]
    status = t2.run()
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = t2.solution()
    return OPTIMAL, tuple(x), dot(tuple(c), tuple(x))


def minimize(c: Sequence[Fraction],
             a_ub: Mat = (), b_ub: Vec = (),
             a_eq: Mat = (), b_eq: Vec = ()) -> tuple[str, Vec | None, Fraction | None]:
    """min c x  s.t.  a_ub x <= b_ub, a_eq x = b_eq, x free.

    Free variables are split x = x+ - x-; inequality rows get slacks.
    """
    n = len(c)
    m_ub, m_eq = len(a_ub), len(a_eq)
    nn = 2 * n + m_ub
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
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
    status, xs, val = solve_standard(cc, tuple(tuple(r) for r in rows), tuple(rhs))
    if status != OPTIMAL or xs is None:
        return status, None, None
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    return OPTIMAL, x, val


def feasible_point(a_ub: Mat = (), b_ub: Vec = (),
                   a_eq: Mat = (), b_eq: Vec = (),
                   n: int | None = None) -> Vec | None:
    """Some point of {a_ub x <= b_ub, a_eq x = b_eq}, or None."""
    if n is None:
        if a_ub:
            n = len(a_ub[0])
        elif a_eq:
            n = len(a_eq[0])
        else:
            raise ValueError("dimension unknown")
    if not a_ub and not a_eq:
        return zeros(n)
    status, x, _ = minimize(zeros(n), a_ub, b_ub, a_eq, b_eq)
    return x if status == OPTIMAL else None


def strictly_feasible_point(a_strict: Mat, b_strict: Vec, a_eq: Mat = (), b_eq: Vec = (),
                            *, n: int) -> Vec | None:
    """A point x in R^n with a_strict x < b_strict, a_eq x = b_eq.

    Maximizes the common slack t (capped at 1 so the LP stays bounded);
    strict feasibility holds iff the optimum is positive.
    """
    if not a_strict:
        return feasible_point((), (), a_eq, b_eq, n=n)
    # Variables (x, t); minimize -t.
    rows = [tuple(row) + (F1,) for row in a_strict] + [zeros(n) + (F1,)]
    rhs = list(b_strict) + [F1]
    eq = tuple(tuple(row) + (F0,) for row in a_eq)
    c = zeros(n) + (Fraction(-1),)
    status, x, _ = minimize(c, tuple(rows), tuple(rhs), eq, b_eq)
    if status != OPTIMAL or x is None or x[n] <= 0:
        return None
    return x[:n]


def max_over(c: Sequence[Fraction], a_ub: Mat, b_ub: Vec,
             a_eq: Mat = (), b_eq: Vec = ()) -> tuple[str, Fraction | None]:
    """(status, max of c x over the polyhedron); status may be 'unbounded'."""
    status, _, val = minimize(vec([-x for x in c]), a_ub, b_ub, a_eq, b_eq)
    if status != OPTIMAL:
        return status, None
    return OPTIMAL, -val


def strict_homogeneous_feasible(eq_rows, strict_rows, n: int) -> bool:
    """Does {u : E u = 0, S u < 0 (componentwise)} have a solution?

    Rows are exact (int or Fraction tuples); the cell recursion
    (`polyhedra.strict_leaves`) passes frozensets of primitive int rows.
    The memo key is (n, nonzero rows of E, rows of S) as frozensets of the
    rows exactly as given, and the answer is computed from that key alone.
    Substitutes the integer nullspace basis of E and applies Gordan's
    alternative: exists t with M t < 0 iff no lambda >= 0, sum 1,
    M' lambda = 0.
    """
    return _strict_feasible(n, frozenset(eq_rows) - {(0,) * n}, frozenset(strict_rows))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _strict_feasible(n: int, eq: frozenset, strict: frozenset) -> bool:
    if not eq:
        reduced, d = [tuple(r) for r in strict], n
    else:
        basis, _ = int_nullspace(tuple(eq), n)
        if not basis:
            return not strict  # only u = 0 remains
        reduced, d = [int_row([dot_rows(r, b) for b in basis]) for r in strict], len(basis)
    if any(not any(r) for r in reduced):
        return False
    if not reduced:
        return True
    w = _float_strict_witness(reduced, d)
    if w is not None and all(dot_rows(r, w) < 0 for r in reduced):
        return True
    # Gordan: infeasibility of {lam >= 0, sum lam = 1, M^T lam = 0}
    m = len(reduced)
    a = mat([[reduced[j][i] for j in range(m)] for i in range(d)] + [[1] * m])
    status, _, _ = solve_standard([F0] * m, a, tuple([F0] * d + [F1]))
    return status == INFEASIBLE


def _float_strict_witness(reduced, d: int):
    """Float candidate for M t < 0, rationalized for exact re-checking.

    Averaging inward normals gives the analytic center direction of the
    polar; random fallbacks cover skewed systems.  Purely a fast path:
    callers re-verify exactly.
    """
    import numpy as np

    m = np.array([[float(x) for x in row] for row in reduced])
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mn = m / norms
    cands = [-mn.sum(axis=0)]
    rng = np.random.default_rng(0)
    for _ in range(12):
        t = rng.standard_normal(d)
        vals = mn @ t
        if np.all(vals < 0):
            cands.append(t)
            break
        if np.all(vals > 0):
            cands.append(-t)
            break
    for t in cands:
        vals = mn @ t
        if np.all(vals < -1e-9):
            return tuple(Fraction(float(x)).limit_denominator(2 ** 30) for x in t)
    return None


def dot_rows(r, b) -> Fraction:
    return sum((x * y for x, y in zip(r, b)), F0)
