"""Convex polyhedra {x : Ax <= b} over the rationals, and finite unions.

Exact membership, active sets, emptiness, tangent/normal cones, and a
V-representation through homogenization, whose generators decide implied
equalities and faces with no LP.  Row counts are tiny by contract (a guard
rejects more than MAX_ROWS rows before any exponential enumeration runs).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import lp
from .cones import PolyCone, hrep_to_vrep
from .rational import (F0, F1, Vec, dot, is_zero, mat, neg, nullspace,
                       primitive, vec, zeros)

MAX_ROWS = 20
MAX_FACE_ROWS = 16


class ConvexPolyhedron:
    """Immutable polyhedron {x in R^n : A x <= b}; rows kept as given."""

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
        self._vrep: tuple[list[Vec], list[Vec], list[Vec]] | None = None
        self._implied: frozenset[int] | None = None

    @classmethod
    def full_space(cls, dim: int) -> "ConvexPolyhedron":
        return cls((), (), dim=dim)

    @classmethod
    def box(cls, center, halfwidth) -> "ConvexPolyhedron":
        center = vec(center)
        h = halfwidth if isinstance(halfwidth, Fraction) else Fraction(halfwidth)
        n = len(center)
        rows, rhs = [], []
        for i in range(n):
            e = [F0] * n
            e[i] = F1
            rows.append(tuple(e))
            rhs.append(center[i] + h)
            rows.append(tuple(-x for x in e))
            rhs.append(-(center[i] - h))
        return cls(tuple(rows), tuple(rhs))

    @property
    def m(self) -> int:
        return len(self.a)

    def contains(self, x) -> bool:
        x = vec(x)
        return all(dot(row, x) <= bi for row, bi in zip(self.a, self.b))

    def active_set(self, x) -> frozenset[int]:
        """{i : A_i x = b_i}; raises if x is outside."""
        x = vec(x)
        vals = [dot(row, x) for row in self.a]
        for v, bi in zip(vals, self.b):
            if v > bi:
                raise ValueError("point is not in the polyhedron")
        return frozenset(i for i, (v, bi) in enumerate(zip(vals, self.b)) if v == bi)

    def is_empty(self) -> bool:
        return lp.feasible_point(self.a, self.b, n=self.dim) is None

    def feasible_point(self) -> Vec | None:
        return lp.feasible_point(self.a, self.b, n=self.dim)

    def implied_equalities(self) -> frozenset[int]:
        """Rows holding with equality on the entire polyhedron (none when
        it is empty): the face key of the empty equality set."""
        if self._implied is None:
            self._implied = self._face_key((), self._generator_tight_sets()) or frozenset()
        return self._implied

    def _generator_tight_sets(self) -> list[tuple[frozenset[int], bool]]:
        """(rows tight on it, is a point) per vrep() generator: the points
        (t = 1), rays and lineality (t = 0) generating the homogenization
        cone {(x, t) : Ax - tb <= 0, t >= 0}."""
        points, rec, lin = self.vrep()
        rows = list(enumerate(zip(self.a, self.b)))
        return ([(frozenset(i for i, (a, bi) in rows if dot(a, p) == bi), True)
                 for p in points] +
                [(frozenset(i for i, (a, _) in rows if dot(a, r) == 0), False)
                 for r in rec + lin])

    @staticmethod
    def _face_key(subset, gens) -> frozenset[int] | None:
        """Rows tight on the whole face {x in P : A_S x = b_S}, or None when
        it is empty.  The face's homogenization is generated by the
        generators tight on S, so it is nonempty iff one of them is a point,
        and a row is tight on all of it iff tight on all of them."""
        on = [(t, is_point) for t, is_point in gens if t.issuperset(subset)]
        if not any(is_point for _, is_point in on):
            return None
        return frozenset.intersection(*(t for t, _ in on))

    def relint_point(self) -> Vec | None:
        """A point strict on every non-implied row, or None when empty."""
        implied = self.implied_equalities()
        strict = [self.a[i] for i in range(self.m) if i not in implied]
        bs = [self.b[i] for i in range(self.m) if i not in implied]
        eq = [self.a[i] for i in implied]
        be = [self.b[i] for i in implied]
        return lp.strictly_feasible_point(mat(strict), vec(bs), (), (),
                                          mat(eq), vec(be), n=self.dim)

    def intersect(self, other: "ConvexPolyhedron") -> "ConvexPolyhedron":
        return ConvexPolyhedron(self.a + other.a, self.b + other.b, dim=self.dim)

    def with_rows(self, rows, rhs) -> "ConvexPolyhedron":
        return ConvexPolyhedron(self.a + mat(rows), self.b + vec(rhs), dim=self.dim)

    def translate(self, t) -> "ConvexPolyhedron":
        t = vec(t)
        return ConvexPolyhedron(self.a, tuple(bi + dot(row, t) for row, bi in zip(self.a, self.b)),
                                dim=self.dim)

    # -- local cones ---------------------------------------------------------

    def tangent_cone(self, x) -> PolyCone:
        """{u : A_i u <= 0 for active i}."""
        act = sorted(self.active_set(x))
        return PolyCone.from_inequalities(tuple(self.a[i] for i in act), self.dim)

    def normal_cone(self, x) -> PolyCone:
        """cone{A_i : i active at x}; the polar of the tangent cone.
        Cached per active set: grids revisit the same finitely many cones."""
        act = self.active_set(x)
        cache = getattr(self, "_ncone_cache", None)
        if cache is None:
            cache = {}
            self._ncone_cache = cache
        cone = cache.get(act)
        if cone is None:
            cone = PolyCone.from_generators([self.a[i] for i in sorted(act)], self.dim)
            cache[act] = cone
        return cone

    # -- faces ----------------------------------------------------------------

    def face(self, equal_rows) -> "ConvexPolyhedron":
        rows = list(self.a)
        rhs = list(self.b)
        for i in equal_rows:
            rows.append(neg(self.a[i]))
            rhs.append(-self.b[i])
        return ConvexPolyhedron(mat(rows), vec(rhs), dim=self.dim)

    def faces(self) -> list[tuple[frozenset[int], "ConvexPolyhedron"]]:
        """Nonempty faces as (implied-active row set, face polyhedron).

        Enumerates equality subsets and keys each nonempty one by _face_key,
        read off the vrep() generators, so every face appears exactly once
        under its exact active set.
        """
        if self.m > MAX_FACE_ROWS:
            raise ValueError(f"face enumeration guard: {self.m} rows > {MAX_FACE_ROWS}")
        gens = self._generator_tight_sets()
        found: dict[frozenset[int], ConvexPolyhedron] = {}
        for k in range(self.m + 1):
            for subset in itertools.combinations(range(self.m), k):
                key = self._face_key(subset, gens)
                if key is not None and key not in found:
                    found[key] = self.face(sorted(key))
        return sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    # -- affine structure ------------------------------------------------------

    def affine_hull(self) -> tuple[Vec, list[Vec]]:
        """(point, direction basis) of the affine hull; raises when empty."""
        p = self.relint_point()
        if p is None:
            raise ValueError("empty polyhedron has no affine hull")
        implied = self.implied_equalities()
        rows = [self.a[i] for i in implied]
        dirs = nullspace(mat(rows), self.dim) if rows else \
            [vec([F1 if j == i else F0 for j in range(self.dim)]) for i in range(self.dim)]
        return p, dirs

    def poly_dim(self) -> int:
        if self.is_empty():
            return -1
        return len(self.affine_hull()[1])

    # -- V-representation -------------------------------------------------------

    def vrep(self) -> tuple[list[Vec], list[Vec], list[Vec]]:
        """(vertex-like points, recession rays, lineality basis).

        From the homogenization cone {(x,t): Ax - tb <= 0, -t <= 0}; when
        the polyhedron has lineality, the 'vertices' are points of minimal
        faces rather than true vertices.
        """
        if self._vrep is None:
            rows = [tuple(row) + (-bi,) for row, bi in zip(self.a, self.b)]
            rows.append(zeros(self.dim) + (Fraction(-1),))
            lin, rays = hrep_to_vrep(mat(rows), self.dim + 1)
            points: list[Vec] = []
            rec: list[Vec] = []
            linv: list[Vec] = []
            for l in lin:
                if l[-1] != 0:
                    # lineality with t-component: split into a point and use
                    # remaining as recession; cannot happen with -t <= 0 row.
                    raise AssertionError("homogenization lineality hit t != 0")
                if not is_zero(l[:-1]):
                    linv.append(primitive(l[:-1]))
            for r in rays:
                if r[-1] > 0:
                    points.append(tuple(x / r[-1] for x in r[:-1]))
                elif not is_zero(r[:-1]):
                    rec.append(primitive(r[:-1]))
            self._vrep = (points, rec, linv)
        return self._vrep

    def is_bounded(self) -> bool:
        _, rec, lin = self.vrep()
        return not rec and not lin

    def contains_poly(self, other: "ConvexPolyhedron") -> bool:
        """other subseteq self, decided by maximizing each row over other."""
        for row, bi in zip(self.a, self.b):
            status, mx = lp.max_over(row, other.a, other.b)
            if status == lp.UNBOUNDED:
                return False
            if status != lp.OPTIMAL:  # other empty
                return True
            if mx > bi:
                return False
        return True

    def to_float_rows(self) -> tuple[list[list[float]], list[float]]:
        return [list(map(float, r)) for r in self.a], [float(x) for x in self.b]

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
            if p.m > MAX_ROWS:
                raise ValueError(f"piece guard: {p.m} rows > {MAX_ROWS}")
            if p.is_empty():
                raise ValueError("empty pieces are rejected at construction")
        self.pieces = list(pieces)
        self.dim = pieces[0].dim

    def contains(self, x) -> bool:
        return any(p.contains(x) for p in self.pieces)

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
    t = piece.tangent_cone(x)
    rows = list(t.ineqs) + [v, neg(v)]
    return PolyCone.from_inequalities(mat(rows), piece.dim)


def poly_union_covers(covers: list[ConvexPolyhedron],
                      targets: list[ConvexPolyhedron]) -> bool:
    """Exact test: union(targets) subseteq union(covers)."""
    return all(not _poly_escapes(t, covers) for t in targets)


def _poly_escapes(target: ConvexPolyhedron, covers: list[ConvexPolyhedron]) -> bool:
    dim = target.dim

    def recurse(i: int, strict_rows: list[Vec], strict_rhs: list[Fraction]) -> bool:
        pt = lp.strictly_feasible_point(
            mat(strict_rows), vec(strict_rhs), target.a, target.b, n=dim)
        if pt is None:
            return False
        if i == len(covers):
            return True
        cover = covers[i]
        if not cover.a:
            return False  # full-space cover
        for row, bi in zip(cover.a, cover.b):
            if recurse(i + 1, strict_rows + [neg(row)], strict_rhs + [-bi]):
                return True
        return False

    return recurse(0, [], [])
