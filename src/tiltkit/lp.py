"""Exact linear programming over the rationals.

A plain two-phase simplex with Bland's rule on a fraction-free integer
tableau: int rows over one common positive denominator, updated by
integer-preserving (Bareiss) pivots, so the pivot loop does int products
and exact divisions only, and Fractions appear only in the results.  It
picks the same pivots as Bland's rule on the Fraction tableau.  Problem
sizes here are tiny (tens of variables), so termination and exactness
matter far more than pivoting heuristics.  No float enters.  Its one
caller is the strict-feasibility test of the cell recursion
(`polyhedra.strict_leaves`), which works on primitive integer rows and
decides every memo miss by Gordan's LP; emptiness, implied equalities,
faces and cone membership are read off the double description instead.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .rational import F0, MEMO_SIZE, Mat, Vec, int_nullspace, int_row

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(t: list[list[int]], basis: list[int], d: int, r: int, col: int) -> int:
    """Pivot on entry (r, col) of t, the integer tableau d times the Fraction
    one; returns the new common denominator, kept positive.

    Every row but r, cost rows included, becomes (p t_i - t_ic t_r) / d,
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
    basis[r] = col
    if p < 0:  # only when driving artificials out
        t[:] = [[-x for x in row] for row in t]
        p = -p
    return p


def _run(t: list[list[int]], basis: list[int], d: int, ncols: int) -> tuple[str, int]:
    """Bland's rule on the first ncols columns; the cost row is t[-1]."""
    while True:
        cost = t[-1]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL, d
        # smallest ratio rhs_i / t_i,col, ties by smallest basis index
        r = None
        for i in range(len(basis)):
            a = t[i][col]
            if a > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = t[i][-1] * t[r][col], t[r][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            return UNBOUNDED, d
        d = _pivot(t, basis, d, r, col)


def solve_standard(c: Sequence[Fraction], a: Mat, b: Vec) -> tuple[str, Vec | None, Fraction | None]:
    """min c x  s.t.  a x = b, x >= 0.  Two-phase, exact; ints or Fractions."""
    m, n = len(a), len(c)
    # Phase 1 on [a | I | b] with b >= 0.  int_row scales row i by some
    # s_i > 0 (its artificial entry becomes s_i); times d / s_i with
    # d = prod(s), the int rows are d times the Fraction tableau's.
    t = []
    for i, (row, bi) in enumerate(zip(a, b)):
        sign = 1 if bi >= 0 else -1
        t.append([sign * v for v in int_row([*row, *(sign * (j == i) for j in range(m)), bi])])
    d = math.prod(row[n + i] for i, row in enumerate(t))
    t = [[v * (d // row[n + i]) for v in row] for i, row in enumerate(t)]
    # the artificials' costs, priced out of the basis
    cost = [0] * n + [d] * m + [0]
    for row in t:
        cost = [x - y for x, y in zip(cost, row)]
    t.append(cost)
    basis = list(range(n, n + m))
    status, d = _run(t, basis, d, n + m)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if t[-1][-1] != 0:
        return INFEASIBLE, None, None
    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if t[i][j] != 0), None)
            if col is not None:
                d = _pivot(t, basis, d, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    # Phase 2: the cost row of D c (D clears c's denominators), priced out.
    den = math.lcm(*(v.denominator for v in c))
    ci = [v.numerator * (den // v.denominator) for v in c]
    t = [t[i][:n] + t[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [d * v for v in ci] + [0]
    for row, j in zip(t, basis):
        if ci[j]:
            cost = [x - ci[j] * y for x, y in zip(cost, row)]
    t.append(cost)
    status, d = _run(t, basis, d, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [F0] * n
    for row, j in zip(t, basis):
        x[j] = Fraction(row[-1], d)
    return OPTIMAL, tuple(x), Fraction(-t[-1][-1], den * d)


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
        reduced, d = list(strict), n
    else:
        basis, _ = int_nullspace(tuple(eq), n)
        if not basis:
            return not strict  # only u = 0 remains
        reduced = [int_row([sum(x * y for x, y in zip(r, b)) for b in basis]) for r in strict]
        d = len(basis)
    if any(not any(r) for r in reduced):
        return False
    if not reduced:
        return True
    # Gordan: infeasibility of {lam >= 0, sum lam = 1, M^T lam = 0}
    m = len(reduced)
    a = [[reduced[j][i] for j in range(m)] for i in range(d)] + [[1] * m]
    status, _, _ = solve_standard([0] * m, a, (0,) * d + (1,))
    return status == INFEASIBLE
