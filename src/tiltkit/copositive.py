"""Exact sign of the minimum of a quadratic form over a polyhedral cone.

Parametrizing the cone by its generators reduces the question to the
nonnegative orthant: with N[i][j] = B(g_i, g_j), the form is negative on
the cone iff t'Nt < 0 for some t >= 0.  By homogeneity that is a minimum
over the standard simplex, and every KKT point there satisfies
2 (N t)_i = lambda on its support with q(t) = lambda / 2, a *rational*
value from a rational linear system.  Enumerating supports therefore
computes the exact simplex minimum, with a rational witness, in exact
integer arithmetic: no eigenvalues, no floats.

For a copositive form, a zero t >= 0 minimizes t'Nt on the orthant, so
N t >= 0 and N_S t_S = 0 on its support S.  An extreme zero direction is
then the one ray of the kernel of N_S, positive on S: one nullspace per
support yields every zero direction up to conic combination.

A form B(p, q) = p'Mq is given as its symmetric matrix M; `graph_form`
builds the ones on the graph space R^n x R^n that the second-order
conditions pair normals (w, z) with.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from .cones import PolyCone
from .rational import F0, Mat, Vec, combine, int_nullspace, int_row, int_rref, is_zero, mat, vec


def graph_form(n: int, ww, wz, zz) -> Mat:
    """The matrix of ww<w,w'> + wz(<w,z'> + <z,w'>)/2 + zz<z,z'> on
    stacked vectors (w, z) in R^n x R^n."""
    ww, wz, zz = vec((ww, wz, zz))
    m = [[F0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][i], m[n + i][n + i] = ww, zz
        m[i][n + i] = m[n + i][i] = wz / 2
    return mat(m)


def gram(gens: list[Vec], form: Mat) -> Mat:
    """[g' M h] over the generators for a symmetric M, summing the nonzero
    entries of M only, each pair of generators once."""
    entries = [(i, j, v) for i, row in enumerate(form) for j, v in enumerate(row) if v]
    n = [[F0] * len(gens) for _ in gens]
    for a, b in itertools.combinations_with_replacement(range(len(gens)), 2):
        g, h = gens[a], gens[b]
        n[a][b] = n[b][a] = sum((g[i] * v * h[j] for i, j, v in entries), F0)
    return tuple(map(tuple, n))


def _int_form(n: Mat) -> tuple[int, list[list[int]]]:
    """(d, dN): the least positive int d that scales N to ints, and dN."""
    d = math.lcm(*(x.denominator for row in n for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in n]


def _embed(t: Vec, s: tuple[int, ...], k: int) -> Vec:
    out = [F0] * k
    for val, i in zip(t, s):
        out[i] = val
    return tuple(out)


def simplex_min(n: Mat) -> tuple[Fraction, Vec]:
    """Exact (min of t'Nt over the standard simplex, argmin).

    Support enumeration: on the support of a minimizer the KKT system
    2 N_S t = lambda, sum t = 1 holds, and q(t) = lambda/2 there.  A
    support whose system has more than one solution is skipped: lambda is
    linear on the bounded polytope {t >= 0} of its solutions, so its least
    value is at a vertex, and a vertex has a zero coordinate and solves the
    system of its own smaller support.  By induction on the support size,
    a smaller support with a unique solution, enumerated earlier, already
    reaches a value at least as low, so no minimum or argmin changes.
    N is scaled to ints M = dN once; each support's system, in (t, mu =
    d lambda), is then one fraction-free `int_rref`.
    """
    k = len(n)
    if k == 0:
        raise ValueError("empty form")
    d, m = _int_form(n)
    best: tuple[int, int] | None = None  # the value as (numerator, denominator)
    arg: Vec | None = None
    for size in range(1, k + 1):
        unique = list(range(size + 1))
        for s in itertools.combinations(range(k), size):
            # rows: 2 (M_S t) - mu = 0 ; sum t = 1, columns (t, mu, rhs)
            rows = [tuple(2 * m[i][j] for j in s) + (-1, 0) for i in s] + [(1,) * size + (0, 1)]
            red, pivots, sc = int_rref(rows)
            if pivots != unique:
                continue  # inconsistent, or more than one solution
            t = [row[-1] for row in red[:size]]
            num, den = red[size][-1], 2 * d * sc  # q(t) = mu / (2 d)
            if all(x >= 0 for x in t) and (best is None or num * best[1] < best[0] * den):
                best = num, den
                arg = _embed(tuple(Fraction(x, sc) for x in t), s, k)
    assert best is not None and arg is not None  # singleton supports always qualify
    return Fraction(*best), arg


def orthant_zero_witnesses(n: Mat) -> Iterator[Vec]:
    """Generators of the zeros {t >= 0 : t'Nt = 0} of a form copositive on
    the orthant: every zero is a conic combination of them.  On a form that
    is not copositive the result is unspecified.

    A zero t minimizes the form on the orthant, so N t >= 0 and N_S t_S = 0
    on S = supp t: t lies in the cone C(S) = {t_S >= 0 : N_S t_S = 0}.  An
    extreme ray of C(S) with support S' is extreme in C(S') too, since
    (N t)_i >= 0 on C(S') makes the part of C(S') inside C(S) a face; being
    positive on S', it is all of C(S').  So a support adds a witness exactly
    when the kernel of N_S, on the ints dN, is one line through a positive
    vector (its free entry is positive, so no sign flip), and the witness is
    that vector made primitive.  Supports run by size, then lexicographically.
    """
    k = len(n)
    _, m = _int_form(n)
    for size in range(1, k + 1):
        for s in itertools.combinations(range(k), size):
            basis, _ = int_nullspace([tuple(m[i][j] for j in s) for i in s], size)
            if len(basis) == 1 and all(x > 0 for x in basis[0]):
                yield _embed(vec(int_row(basis[0])), s, k)


def cone_form_min_sign(cone: PolyCone, form: Mat) -> tuple[int, Vec | None]:
    """Sign of min of the form over cone \\ {0}; witness is a cone point."""
    sign, w, zeros = cone_form_sign_and_zeros(cone, form)
    if sign:
        return sign, w
    # Zero answers must map to a nonzero cone point to count: the first one.
    return next(((0, v) for v in zeros), (1, None))


def cone_form_sign_and_zeros(cone: PolyCone, form: Mat) -> tuple[int, Vec | None, Iterator[Vec]]:
    """(sign, witness, zeros) from one Gram matrix of the cone's generators:
    the sign of the simplex minimum, a cone point where the form is
    negative when that sign is -1, and, when it is 0, the nonzero cone
    points where the form vanishes, enumerated lazily (none otherwise)."""
    gens = cone.generators()
    if not gens:
        return 1, None, iter(())
    n = gram(gens, form)
    val, t = simplex_min(n)
    if val < 0:
        return -1, combine(gens, t), iter(())
    if val > 0:
        return 1, None, iter(())
    points = (combine(gens, t) for t in orthant_zero_witnesses(n))
    return 0, None, (v for v in points if not is_zero(v))

