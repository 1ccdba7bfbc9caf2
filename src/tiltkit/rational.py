"""Exact rational vectors, matrices, and the small linear algebra the
polyhedral machinery needs.

Vectors are tuples of exact scalars, Fractions or ints, matrices tuples of
row tuples; cone data are primitive int rows.  Everything here is pure;
callers rely on exactness.  Exact data become ints in one place:
`int_scaled` scales a matrix of ints and Fractions by the lcm of its
denominators, and `int_row` makes a row primitive, taking Python ints,
Fractions and 'p/q' strings (read by `frac`) and raising TypeError on a
float, a bool or a numpy scalar.  Elimination (rref, int_rref, rank, nullspace,
solve) is one fraction-free pass over primitive integer rows, so its hot
loop does int products only and Fractions appear only in results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

F0 = Fraction(0)
F1 = Fraction(1)

# The one bound on every process-wide memo (functools.lru_cache): no
# benchmark pass fills a memo past about 200 entries, nor `verify all` 810.
MEMO_SIZE = 2 ** 15


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Float input is rejected: the exact path must never silently absorb
    binary rounding from upstream.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (F0,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(F1 if j == i else F0 for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), F0)


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def scale(a: Vec, s: Fraction) -> Vec:
    return tuple(x * s for x in a)


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def combine(vectors: Sequence[Vec], coeffs: Sequence[Fraction]) -> Vec:
    """sum_i coeffs[i] vectors[i], over a nonempty list of vectors."""
    return tuple(sum((c * v[i] for v, c in zip(vectors, coeffs) if c), F0)
                 for i in range(len(vectors[0])))


def matvec(m: Mat, x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def norm_sq(a: Sequence[Fraction]) -> Fraction:
    return sum((x * x for x in a), F0)


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def to_float(a: Sequence[Fraction]) -> tuple[float, ...]:
    return tuple(float(x) for x in a)


def row_vec(p: Sequence[int]) -> Vec:
    """The point x / t of the int row (x, t), t > 0."""
    return tuple(Fraction(a, p[-1]) for a in p[:-1])


def int_scaled(m: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(d, dm): the least positive int d that scales the matrix m of ints
    and Fractions to ints, the lcm of its entries' denominators, and dm."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def int_row(a: Sequence) -> tuple[int, ...]:
    """The row a scaled by a positive factor to ints with gcd 1; zero rows stay zero.

    A row of Python ints is only divided by its gcd, one of ints and
    Fractions is `int_scaled`, and any other goes through `frac` first, so
    a 'p/q' string is read and a float, bool or numpy scalar raises TypeError.
    """
    if (kinds := set(map(type, a))) != {int}:
        a = int_scaled((a if kinds <= {int, Fraction} else vec(a),))[1][0]
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _echelon(m: Mat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: (rows, pivot columns), each
    row a nonzero multiple of the matching rref row (zero rows last).

    Rows are primitive ints, `int_row` of the rows of m, made primitive
    again after each step.
    """
    rows = [list(int_row(r)) for r in m]
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if nrows else 0):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = [prow[c] * x - f * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    rows, pivots = _echelon(m)
    return tuple(tuple(Fraction(x, row[pivots[i]] if i < len(pivots) else 1) for x in row)
                 for i, row in enumerate(rows)), pivots


def rank(m: Mat) -> int:
    return len(_echelon(m)[1])


def int_rref(m: Mat) -> tuple[list[list[int]], list[int], int]:
    """(rows, pivot columns, s): the nonzero rows of the rref of m times the
    positive integer s, in ints, s the lcm of the `_echelon` pivots."""
    rows, pivots = _echelon(m)
    s = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    return [[x * (s // row[c]) for x in row] for row, c in zip(rows, pivots)], pivots, s


def int_nullspace(m: Mat, n: int | None = None) -> tuple[list[tuple[int, ...]], int]:
    """(basis, s): nullspace(m, n) times the positive integer s, in ints."""
    if not m:
        if n is None:
            raise ValueError("nullspace of empty matrix needs explicit dimension")
        return [tuple(int(i == j) for j in range(n)) for i in range(n)], 1
    ncols = len(m[0])
    rows, pivots, s = int_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = s
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis, s


def nullspace(m: Mat, n: int | None = None) -> list[Vec]:
    """Basis of {x : m x = 0}.  `n` gives the ambient dimension when m
    has no rows."""
    basis, s = int_nullspace(m, n)
    return [tuple(Fraction(x, s) for x in v) for v in basis]


def solve(m: Mat, b: Vec) -> Vec | None:
    """One solution of m x = b, or None when inconsistent."""
    if not m:
        return None
    ncols = len(m[0])
    aug = tuple(row + (bi,) for row, bi in zip(m, b))
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def solve_affine(m: Mat, b: Vec, n: int | None = None) -> tuple[Vec, list[Vec]] | None:
    """Full solution set of m x = b as (particular, nullspace basis)."""
    if not m:
        if n is None:
            raise ValueError("empty system needs explicit dimension")
        return zeros(n), [unit(n, i) for i in range(n)]
    x0 = solve(m, b)
    if x0 is None:
        return None
    return x0, nullspace(m, len(m[0]))

