"""Convex polyhedra {x : Ax <= b} over the rationals, and finite unions.

Exact membership, active sets, tangent/normal cones, and a
V-representation through homogenization, whose generators decide
emptiness, implied equalities and faces with no LP.  `strict_leaves` is
the one depth-first strict-feasibility search, over homogeneous primitive
int rows, behind union covers here and the global cell complex in `cells`.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import lp
from .cones import PolyCone, close_under_meets, generated_cone, hrep_to_vrep
from .rational import (F0, Mat, Vec, dot, frac, int_row, int_scaled, mat, neg, nullspace, rank,
                       sub, unit, vec, zeros)


class ConvexPolyhedron:
    """Immutable polyhedron {x in R^n : A x <= b}, given by A and b or by int `ab_rows`,
    each derived when first read; a value: equal, and hashed alike, iff (dim, A, b) are."""

    def __init__(self, a, b, dim: int | None = None):
        self.a = mat(a)
        self.b = vec(b)
        if len(self.a) != len(self.b):
            raise ValueError("row count mismatch between A and b")
        if self.a:
            self.dim = len(self.a[0])
            if dim is not None and dim != self.dim:
                raise ValueError("inconsistent dimension")
        else:
            if dim is None:
                raise ValueError("empty A needs explicit dimension")
            self.dim = dim

    @classmethod
    def from_rows(cls, dim: int, ab_rows) -> "ConvexPolyhedron":
        """From rows (ints, den), den > 0, (a_i, -b_i) = ints / den, put in lowest terms."""
        poly = cls.__new__(cls)
        poly.dim, poly.ab_rows = dim, tuple((tuple(x // g for x in r), d // g)
                                            for r, d in ab_rows for g in [math.gcd(d, *r)])
        return poly

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolyhedron) and \
            (self.dim, self.ab_rows) == (other.dim, other.ab_rows)

    def __hash__(self) -> int:
        return hash((self.dim, self.ab_rows))  # int tuples: cheap to hash at each lookup

    @functools.cached_property
    def ab_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row (a_i, -b_i) as ints over den, the lcm of its entries' denominators."""
        return tuple((tuple(r), d) for ai, bi in zip(self.a, self.b)
                     for d, (r,) in [int_scaled(((*ai, -bi),))])

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row a_i x <= b_i as its primitive int row `homogenize(a_i, b_i)`."""
        return tuple(int_row(r) for r, _ in self.ab_rows)

    @functools.cached_property
    def a(self) -> Mat:
        return tuple(tuple(Fraction(x, d) for x in r[:-1]) for r, d in self.ab_rows)

    @functools.cached_property
    def b(self) -> Vec:
        return tuple(Fraction(-r[-1], d) for r, d in self.ab_rows)

    @classmethod
    def full_space(cls, dim: int) -> "ConvexPolyhedron":
        return cls((), (), dim=dim)

    @classmethod
    def box(cls, center, halfwidth) -> "ConvexPolyhedron":
        """Rows s x_i <= h + s c_i, s = +-1, as ints over q w, for c_i = p / q and h = u / w."""
        center, h = vec(center), frac(halfwidth)
        u, w = h.numerator, h.denominator
        return cls.from_rows(len(center), (
            ([s * c.denominator * w * (j == i) for j in range(len(center))]
             + [-s * c.numerator * w - u * c.denominator], c.denominator * w)
            for i, c in enumerate(center) for s in (1, -1)))

    @property
    def m(self) -> int:
        return len(self.rows)

    def values_at(self, p) -> list[int]:
        """Positive multiples of A_i x - b_i t, for p the ints of (x, t) up to
        a positive factor."""
        return [sum(map(operator.mul, row, p)) for row in self.rows]

    def holds_at(self, p) -> bool:
        """Is x in the polyhedron, for p the ints of (x, 1) up to a positive factor?"""
        return all(v <= 0 for v in self.values_at(p))

    def contains(self, x) -> bool:
        return self.holds_at(_homogeneous(x, self.dim))

    def active_set(self, x) -> frozenset[int]:
        """{i : A_i x = b_i}; raises if x is outside."""
        vals = self.values_at(_homogeneous(x, self.dim))
        if any(v > 0 for v in vals):
            raise ValueError("point is not in the polyhedron")
        return frozenset(i for i, v in enumerate(vals) if v == 0)

    @functools.cached_property
    def homogeneous_generators(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """(lineality, rays) of the homogenization cone {(x, t) : Ax - tb <= 0,
        t >= 0}, primitive int tuples."""
        return hrep_to_vrep(self.rows + ((0,) * self.dim + (-1,),), self.dim + 1)

    def is_empty(self) -> bool:
        """No generator of the homogenization cone has t > 0."""
        return not any(r[-1] for r in self.homogeneous_generators[1])

    def implied_equalities(self) -> frozenset[int]:
        """Rows holding with equality on the entire polyhedron (none when
        it is empty): the rows tight on every generator."""
        if self.is_empty():
            return frozenset()
        return frozenset.intersection(*(t for t, _ in self._generator_tight_sets()))

    def _generator_tight_sets(self) -> list[tuple[frozenset[int], bool]]:
        """(rows tight on it, is a point: t > 0) per generator of the
        homogenization cone, its rays then its lineality."""
        lin, rays = self.homogeneous_generators
        return [(frozenset(i for i, v in enumerate(self.values_at(g)) if not v), g[-1] > 0)
                for g in rays + lin]

    def relint_point(self) -> Vec | None:
        """A point strict on every non-implied row, or None when empty.

        The polyhedron is conv(points) + cone(rays) + span(lineality) of
        vrep(), and ri(C1 + C2) = ri C1 + ri C2 (Rockafellar, Convex
        Analysis, Cor. 6.6.2), so the barycenter of the points plus the
        sum of the rays lies in its relative interior."""
        points, rec, _ = self.vrep()
        if not points:
            return None
        k = len(points)
        return tuple(sum(p[i] for p in points) / k + sum((r[i] for r in rec), F0)
                     for i in range(self.dim))

    def intersect(self, other: "ConvexPolyhedron") -> "ConvexPolyhedron":
        return self.from_rows(self.dim, self.ab_rows + other.ab_rows)

    def translate(self, t) -> "ConvexPolyhedron":
        return self.preimage([unit(self.dim, i) for i in range(self.dim)], neg(vec(t)))

    def preimage(self, cols, shift) -> "ConvexPolyhedron":
        """{s : shift + sum_i s_i cols_i in P}."""
        shift = vec(shift)
        return ConvexPolyhedron(tuple(tuple(dot(row, c) for c in cols) for row in self.a),
                                tuple(bi - dot(row, shift) for row, bi in zip(self.a, self.b)),
                                dim=len(cols))

    def shadow(self, other: "ConvexPolyhedron") -> PolyCone:
        """A cone holding (y, 1) iff `slice(y)` meets `other`: K = {(x, y, t) : these rows,
        other's rows on (x, t), t >= 0} projected onto (y, t), so generated by K's
        generators with the x-part dropped (Fukuda, polyhedral computation FAQ, 2004)."""
        k = other.dim
        lifted = tuple(row[:k] + (0,) * (self.dim - k) + row[k:] for row in other.rows)
        lin, rays = hrep_to_vrep(self.rows + lifted + ((0,) * self.dim + (-1,),), self.dim + 1)
        return PolyCone.from_generators([r[k:] for r in rays], self.dim - k + 1,
                                        [l[k:] for l in lin])

    def slice(self, y) -> "ConvexPolyhedron":
        """{x : (x, y) in P}, y the trailing coordinates: for (p, q) the ints of (y, 1),
        the row (r_x, r_y, r_t) / d becomes (q r_x, r_y . p + q r_t) / (q d)."""
        *p, q = int_row((*y, 1))
        k = self.dim - len(p)
        return self.from_rows(k, (([q * x for x in r[:k]]
                                   + [sum(map(operator.mul, r[k:-1], p)) + q * r[-1]], q * d)
                                  for r, d in self.ab_rows))

    # -- local cones ---------------------------------------------------------

    def tangent_cone(self, x) -> PolyCone:
        """{u : A_i u <= 0 for active i}."""
        act = sorted(self.active_set(x))
        return PolyCone.from_inequalities(tuple(self.a[i] for i in act), self.dim)

    def normal_cone(self, x) -> PolyCone:
        """cone{A_i : i active at x}; the polar of the tangent cone."""
        return generated_cone(tuple(self.a[i] for i in sorted(self.active_set(x))), self.dim)

    # -- faces ----------------------------------------------------------------

    def face(self, eq) -> "ConvexPolyhedron":
        rs = self.ab_rows  # the rows of eq again, negated
        return self.from_rows(self.dim, rs + tuple((neg(rs[i][0]), rs[i][1]) for i in eq))

    def faces(self) -> list[tuple[frozenset[int], "ConvexPolyhedron"]]:
        """Nonempty faces as (implied-active row set, face polyhedron).

        The homogenization of a face is generated by the homogenization
        cone's generators on it, so the face is nonempty iff one of them is
        a point, and its key (the rows tight on all of it) is the
        intersection of their tight sets.  The keys are therefore the
        points' tight sets closed under intersection with every generator's
        tight set; each face appears once, under its exact active set.
        """
        gens = self._generator_tight_sets()
        keys = close_under_meets([t for t, is_point in gens if is_point], [t for t, _ in gens])
        return sorted(((k, self.face(sorted(k))) for k in keys),
                      key=lambda kv: (len(kv[0]), sorted(kv[0])))

    # -- affine structure ------------------------------------------------------

    def affine_hull(self) -> tuple[Vec, list[Vec]]:
        """(point, direction basis) of the affine hull; raises when empty."""
        p = self.relint_point()
        if p is None:
            raise ValueError("empty polyhedron has no affine hull")
        implied = self.implied_equalities()
        return p, nullspace(mat([self.a[i] for i in implied]), self.dim)

    def poly_dim(self) -> int:
        """Dimension of the affine hull, read off vrep(); -1 when empty."""
        points, rec, lin = self.vrep()
        if not points:
            return -1
        return rank(mat([sub(p, points[0]) for p in points[1:]] + rec + lin))

    # -- V-representation -------------------------------------------------------

    def vrep(self) -> tuple[list[Vec], list[Vec], list[Vec]]:
        """(vertex-like points, recession rays, lineality basis).

        From the generators (x, t) of the homogenization cone: a point x / t
        per ray with t > 0, as Fractions; the rest have t = 0 (lineality is
        tight on the row -t <= 0) and give their x, still primitive ints.
        When the polyhedron has lineality, the 'vertices' are points of
        minimal faces rather than true vertices.
        """
        lin, rays = self.homogeneous_generators
        return ([tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1]],
                [r[:-1] for r in rays if not r[-1]], [l[:-1] for l in lin])

    def to_float_rows(self) -> tuple[list[list[float]], list[float]]:
        """Entries ints / den by int true division, which rounds as float(Fraction) does."""
        rs = self.ab_rows
        return [[x / d for x in r[:-1]] for r, d in rs], [-r[-1] / d for r, d in rs]

    def __repr__(self) -> str:
        return f"ConvexPolyhedron(m={self.m}, dim={self.dim})"


class PolyUnion:
    """Nonempty finite union of polyhedra in a common ambient space."""

    def __init__(self, pieces: list[ConvexPolyhedron]):
        if not pieces:
            raise ValueError("union needs at least one piece")
        dims = {p.dim for p in pieces}
        if len(dims) != 1:
            raise ValueError("pieces live in different dimensions")
        for p in pieces:
            if p.is_empty():
                raise ValueError("empty pieces are rejected at construction")
        self.pieces = list(pieces)
        self.dim = pieces[0].dim

    def contains(self, x) -> bool:
        return self.holds_at(_homogeneous(x, self.dim))

    def holds_at(self, p) -> bool:
        """Is x in the union, for p the ints of (x, 1) up to a positive factor?"""
        return any(piece.holds_at(p) for piece in self.pieces)

    def pieces_containing(self, x) -> list[int]:
        return [k for k, p in enumerate(self.pieces) if p.contains(x)]

    def __repr__(self) -> str:
        return f"PolyUnion({len(self.pieces)} pieces, dim={self.dim})"


def critical_cone(piece: ConvexPolyhedron, x, v) -> PolyCone:
    """Tangent cone at x intersected with the orthogonal complement of v;
    v must be a normal vector at x."""
    v = vec(v)
    if not piece.normal_cone(x).contains(v):
        raise ValueError("direction is not in the normal cone at the point")
    return PolyCone.from_inequalities(piece.tangent_cone(x).ineqs + (v, neg(v)), piece.dim)


def _homogeneous(x, dim: int) -> tuple[int, ...]:
    """The primitive ints of (x, 1), x a rational point of R^dim."""
    x = tuple(x)
    if len(x) != dim:
        raise ValueError(f"dimension mismatch: {len(x)} vs {dim}")
    return int_row(x + (1,))


def homogenize(a, b) -> tuple[int, ...]:
    """The row a x <= b as the primitive int row of a x - b t <= 0 on (x, t)."""
    return int_row(tuple(a) + (-b,))


def strict_leaves(levels, n: int, eqs: frozenset = frozenset(),
                  stricts: frozenset = frozenset(), chosen: tuple = ()):
    """Depth-first search for strictly feasible choices, one per level.

    Each level lists options (eq rows, strict rows, payload), the rows
    frozensets of primitive int tuples in R^n.  A node adds one option of
    the next level to the system {E u = 0, S u < 0}; a node whose system
    `lp.strict_homogeneous_feasible` rejects is pruned with its subtree.
    Yields the payload tuple of each feasible leaf, in option order, so a
    caller may stop at the first.  A level with no options has no leaf.

    Affine systems {A_S x < b_S, A_E x = b_E} in R^dim enter through
    `homogenize`, in n = dim + 1, with the strict row -t < 0 (the row
    0 x < 1 homogenized): a solution (x, t) scales by 1/t to one of them.
    """
    if not lp.strict_homogeneous_feasible(eqs, stricts, n):
        return
    if len(chosen) == len(levels):
        yield chosen
        return
    for eq, strict, payload in levels[len(chosen)]:
        yield from strict_leaves(levels, n, eqs | eq, stricts | strict, chosen + (payload,))


def poly_union_covers(covers: list[ConvexPolyhedron],
                      targets: list[ConvexPolyhedron]) -> bool:
    """Exact test: union(targets) subseteq union(covers)."""
    return all(not _poly_escapes(t, covers) for t in targets)


def same_union(a: list[ConvexPolyhedron], b: list[ConvexPolyhedron]) -> bool:
    """Exact test: union(a) == union(b), as covers both ways."""
    return poly_union_covers(a, b) and poly_union_covers(b, a)


def _poly_escapes(target: ConvexPolyhedron, covers: list[ConvexPolyhedron]) -> bool:
    """Does some point of target violate one row of every cover?

    The escape rows are strict, so they cut out an open set, and an open
    set meets a nonempty convex set iff it meets its relative interior:
    the target enters as its implied equalities held with equality and
    every other row strict.  An empty target has no implied equalities,
    so all its rows are strict and nothing escapes.
    """
    rows = target.rows
    implied = target.implied_equalities()
    eqs = frozenset(rows[i] for i in implied)
    stricts = frozenset(r for i, r in enumerate(rows) if i not in implied)
    levels = [[(frozenset(), frozenset([neg(r)]), None) for r in cover.rows]
              for cover in covers]
    t_positive = homogenize(zeros(target.dim), 1)
    leaves = strict_leaves(levels, target.dim + 1, eqs, stricts | {t_positive})
    return next(leaves, None) is not None
