"""Exact linear feasibility over the rationals.

`solve_standard` decides whether {x : a x = b, x >= 0} is nonempty by phase
1 of the simplex alone, with Bland's rule on a fraction-free integer
tableau: int rows over one common positive denominator, updated by
integer-preserving (Bareiss) pivots, so the pivot loop does int products
and exact divisions only.  It picks the same pivots as Bland's rule on the
Fraction tableau.  Problem sizes here are tiny (tens of variables), so
termination and exactness matter far more than pivoting heuristics.  No
float enters.  Its one caller is the strict-feasibility test of the search
for global cells and union covers (`polyhedra.strict_leaves`), deciding
each memo miss by Motzkin's alternative in one LP on the rows as given;
emptiness, implied equalities, faces and cone membership come from the
double description.
"""

from __future__ import annotations

import functools
import math

from .rational import MEMO_SIZE, Mat, Vec, int_row, neg


def _pivot(t: list[list[int]], d: int, r: int, col: int) -> int:
    """Pivot on entry (r, col) > 0 of t, the integer tableau d times the
    Fraction one; returns the new common denominator, that entry.

    Every row but r, the cost row included, becomes (p t_i - t_ic t_r) / d,
    an exact division by Sylvester's identity (Bareiss; Edmonds).
    """
    prow = t[r]
    p = prow[col]
    for i, row in enumerate(t):
        if i != r:
            f = row[col]
            if f:
                t[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                t[i] = [p * x // d for x in row]
    return p


def solve_standard(a: Mat, b: Vec) -> bool:
    """Is {x : a x = b, x >= 0} nonempty?  Exact; ints or Fractions.

    Phase 1 on [a | I | b] with b >= 0: Bland's rule minimizes the sum of
    the artificials, and the set is nonempty iff that sum reaches 0.
    """
    m, n = len(a), len(a[0])
    # int_row scales row i by some s_i > 0 (its artificial entry becomes
    # s_i); times d / s_i with d = prod(s), the int rows are d times the
    # Fraction tableau's.
    t = []
    for i, (row, bi) in enumerate(zip(a, b)):
        sign = 1 if bi >= 0 else -1
        t.append([sign * v for v in int_row([*row, *(sign * (j == i) for j in range(m)), bi])])
    d = math.prod(row[n + i] for i, row in enumerate(t))
    t = [[v * (d // row[n + i]) for v in row] for i, row in enumerate(t)]
    # the artificials' costs, priced out of the basis; the cost row is t[-1]
    cost = [0] * n + [d] * m + [0]
    for row in t:
        cost = [x - y for x, y in zip(cost, row)]
    t.append(cost)
    basis = list(range(n, n + m))
    while True:
        cost = t[-1]
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            return cost[-1] == 0
        # smallest ratio rhs_i / t_i,col, ties by smallest basis index; some
        # t_i,col > 0, as the sum of the artificials is bounded below by 0
        r = None
        for i in range(m):
            a_i = t[i][col]
            if a_i > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = t[i][-1] * t[r][col], t[r][-1] * a_i
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        d = _pivot(t, d, r, col)
        basis[r] = col


def strict_homogeneous_feasible(eq_rows, strict_rows, n: int) -> bool:
    """Does {u : E u = 0, S u < 0 (componentwise)} have a solution?

    Rows are exact (int or Fraction tuples); `polyhedra.strict_leaves`
    passes frozensets of primitive int rows.
    The memo key is (n, nonzero rows of E, rows of S) as frozensets of the
    rows exactly as given, and the answer is computed from that key alone,
    by Motzkin's alternative (Schrijver, *Theory of Linear and Integer
    Programming*, 1986, 7.8): there is no such u iff some lambda >= 0 with
    sum 1 and p, q >= 0 have S^T lambda + E^T (p - q) = 0, one phase 1 of
    `solve_standard` on the columns [S | E | -E].
    """
    return _strict_feasible(n, frozenset(eq_rows) - {(0,) * n}, frozenset(strict_rows))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _strict_feasible(n: int, eq: frozenset, strict: frozenset) -> bool:
    cols = [*strict, *eq, *map(neg, eq)]
    a = [[c[i] for c in cols] for i in range(n)] + [[1] * len(strict) + [0] * (2 * len(eq))]
    return not solve_standard(a, (0,) * n + (1,))
