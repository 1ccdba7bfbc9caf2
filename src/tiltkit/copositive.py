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
then the one ray of the kernel of N_S, positive on S, and the walk over
supports that finds the minimum reads these rays off its own KKT solves.

A form B(p, q) = p'Mq is given as its symmetric matrix M; `graph_form`
builds the ones on the graph space R^n x R^n that the second-order
conditions pair normals (w, z) with.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cones import PolyCone
from .rational import F0, Mat, Vec, combine, int_row, int_rref, int_scaled, is_zero, mat, vec


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
    entries of M only, each pair of generators once; ints on int input."""
    entries = [(i, j, v) for i, row in enumerate(form) for j, v in enumerate(row) if v]
    n = [[0] * len(gens) for _ in gens]
    for a, b in itertools.combinations_with_replacement(range(len(gens)), 2):
        g, h = gens[a], gens[b]
        n[a][b] = n[b][a] = sum((g[i] * v * h[j] for i, j, v in entries), 0)
    return tuple(map(tuple, n))


def _embed(t: Vec, s: tuple[int, ...], k: int) -> Vec:
    out = [F0] * k
    for val, i in zip(t, s):
        out[i] = val
    return tuple(out)


def simplex_min(n: Mat) -> tuple[Fraction, Vec, list[Vec]]:
    """Exact (min of t'Nt over the standard simplex, argmin, zeros).

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

    zeros holds the primitive t, by support size and then lexicographically,
    of each S whose system has one solution, with mu = 0 and t > 0: the S
    where ker N_S is one line through a positive v.  Then (v/1'v, 0) solves
    it, and a kernel vector (x, m) of its matrix has m 1'v = 2 v'N_S x = 0,
    so x is in span(v) with 1'x = 0; conversely, a kernel vector other than
    t would give another solution.  On a copositive N every zero t >= 0 is
    a conic combination of them: t is in C(S) = {t_S >= 0 : N_S t_S = 0},
    S = supp t, and an extreme ray of C(S) with support S' is extreme in
    C(S'), as (N t)_i >= 0 on C(S') makes the part of C(S') in C(S) a face;
    positive on S', it is all of C(S').  Otherwise zeros are unspecified.
    """
    k = len(n)
    if k == 0:
        raise ValueError("empty form")
    d, m = int_scaled(n)
    best: tuple[int, int] | None = None  # the value as (numerator, denominator)
    arg: Vec | None = None
    zeros: list[Vec] = []
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
            if num == 0 and all(x > 0 for x in t):
                zeros.append(_embed(vec(int_row(t)), s, k))
            if all(x >= 0 for x in t) and (best is None or num * best[1] < best[0] * den):
                best = num, den
                arg = _embed(tuple(Fraction(x, sc) for x in t), s, k)
    assert best is not None and arg is not None  # singleton supports always qualify
    return Fraction(*best), arg, zeros


def cone_form_min_sign(cone: PolyCone, form: Mat) -> tuple[int, Vec | None]:
    """Sign of min of the form over cone \\ {0}; witness is a cone point."""
    sign, w, zeros = cone_form_sign_and_zeros(cone, form)
    return sign, zeros[0] if zeros else w


def cone_form_sign_and_zeros(cone: PolyCone, form: Mat) -> tuple[int, Vec | None, list[Vec]]:
    """(sign, witness, zeros) from one Gram matrix of the cone's generators:
    the sign of the form's minimum over cone \\ {0}, a cone point where
    the form is negative when that sign is -1, and, when it is 0, the
    nonzero cone points of `simplex_min`'s zeros, in order (none otherwise).

    The Gram matrix is on ints, the form scaled by the lcm of its
    denominators over the generators' primitive int rows: a positive
    factor on N moves neither the sign, the argmin nor the zeros.
    """
    gens = cone.generators()
    if not gens:
        return 1, None, []
    val, t, zeros = simplex_min(gram(gens, int_scaled(form)[1]))
    if val < 0:
        return -1, combine(gens, t), []
    # zeros is empty when val > 0; a zero counts only at a nonzero cone point
    points = [v for v in (combine(gens, z) for z in zeros) if not is_zero(v)]
    return (0 if points else 1), None, points
