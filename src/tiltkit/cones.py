"""Polyhedral convex cones with dual descriptions.

A cone is kept in inequality form {u : G u <= 0} and/or generator form
span(lineality) + cone(rays); conversion runs on demand through a double
description pass over exact rationals, so the two forms always describe
the same set.  Polarity is the representation swap: the polar of
{u : G u <= 0} is cone(rows of G), and vice versa.
"""

from __future__ import annotations

import functools
import itertools

from . import lp
from .rational import (F0, F1, MEMO_SIZE, Mat, Vec, dot, int_row, is_zero, mat, neg,
                       nullspace, primitive, rank, row_space_basis, scale, solve,
                       sub, unit, vec, zeros)


def _dd_pointed(dim: int, extra: list[Vec]) -> list[Vec]:
    """Extreme rays of {x in R^dim : x >= 0, a.x <= 0 for a in extra}.

    Incremental double description from the orthant; the combinatorial
    adjacency test is valid because the cone stays pointed.
    """
    rays: list[Vec] = [unit(dim, i) for i in range(dim)]
    # Each ray's zero set: the processed rows it is tight on.  Rows 0..dim-1
    # are the orthant rows -e_i, row dim + j is extra[j].  A new ray is
    # tight exactly where both of its parents are, plus on the new row.
    zsets = {r: frozenset(range(dim)) - {i} for i, r in enumerate(rays)}
    for k, a in enumerate(extra, start=dim):
        vals = [dot(a, r) for r in rays]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        negs = [(r, v) for r, v in zip(rays, vals) if v < 0]
        merged: list[Vec] = []
        new_z: dict[Vec, frozenset[int]] = {}
        for r, v in zip(rays, vals):
            if v <= 0:
                merged.append(r)
                new_z[r] = zsets[r] | {k} if v == 0 else zsets[r]
        for (rp, vp), (rn, vn) in itertools.product(pos, negs):
            common = zsets[rp] & zsets[rn]
            adjacent = not any(
                r is not rp and r is not rn and common <= zsets[r] for r in rays
            )
            if adjacent:
                comb = sub(scale(rn, vp), scale(rp, vn))
                if not is_zero(comb):
                    r = primitive(comb)
                    if r not in new_z:
                        merged.append(r)
                        new_z[r] = common | {k}
        rays, zsets = merged, new_z
    return rays


def _reduce_rays(rays: list[Vec], lineality: list[Vec]) -> list[Vec]:
    """Drop rays inside the lineality span or conically redundant."""
    out: list[Vec] = []
    seen = set()
    for r in rays:
        r = primitive(r)
        if is_zero(r) or r in seen:
            continue
        if lineality and rank(mat(lineality + [r])) == rank(mat(lineality)):
            continue
        seen.add(r)
        out.append(r)
    out.sort()
    kept: list[Vec] = []
    for i, r in enumerate(out):
        others = kept + out[i + 1:]
        if _in_generated(r, others, lineality):
            continue
        kept.append(r)
    return kept


def _in_generated(v: Vec, rays: list[Vec], lineality: list[Vec]) -> bool:
    """Exact membership v in cone(rays) + span(lineality)."""
    n = len(v)
    cols = list(rays) + list(lineality) + [neg(l) for l in lineality]
    if not cols:
        return is_zero(v)
    a_eq = tuple(tuple(col[i] for col in cols) for i in range(n))
    if n and solve(a_eq, v) is None:
        return False  # v is outside the generators' span: no LP needed
    m = len(cols)
    a_ub = tuple(tuple(-F1 if j == k else F0 for j in range(m)) for k in range(m))
    return lp.feasible_point(a_ub, zeros(m), a_eq, v, n=m) is not None


def hrep_to_vrep(g: Mat, dim: int) -> tuple[list[Vec], list[Vec]]:
    """Generators of {u : g u <= 0}: (lineality basis, rays).

    Lifts to the pointed cone {(y,z) >= 0 : g(y-z) <= 0} whose extreme
    rays project onto a generating set of the original cone.  Memoized on
    (dim, the nonzero rows made primitive int rows, in the caller's order)
    and computed from that key alone, so what a caller gets never depends
    on which caller filled the memo.
    """
    lin, rays = _vrep(dim, tuple(r for r in map(int_row, g) if any(r)))
    return list(lin), list(rays)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _vrep(dim: int, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    lineality = nullspace(mat(rows), dim) if rows else [unit(dim, i) for i in range(dim)]
    lineality = [primitive(l) for l in lineality]
    if not rows:
        return tuple(lineality), ()
    lifted = [r + tuple(-x for x in r) for r in rows]
    lifted_rays = _dd_pointed(2 * dim, [vec(l) for l in lifted])
    projected = [tuple(r[i] - r[dim + i] for i in range(dim)) for r in lifted_rays]
    return tuple(lineality), tuple(_reduce_rays(projected, lineality))


@functools.lru_cache(maxsize=MEMO_SIZE)
def generated_cone(rows: tuple[Vec, ...], dim: int) -> PolyCone:
    """cone(rows), memoized on the rows in the caller's order: normal cones
    and cell values ask for the same few cones over and over."""
    return PolyCone.from_generators(rows, dim)


class PolyCone:
    """Immutable polyhedral convex cone in R^n."""

    def __init__(self, dim: int, ineqs: Mat | None = None,
                 rays: list[Vec] | None = None, lineality: list[Vec] | None = None):
        if ineqs is None and rays is None and lineality is None:
            raise ValueError("cone needs at least one description")
        self.dim = dim
        self._ineqs = mat(ineqs) if ineqs is not None else None
        self._rays = [vec(r) for r in rays] if rays is not None else None
        self._lineality = [vec(l) for l in lineality] if lineality is not None else (
            [] if rays is not None else None)

    @classmethod
    def from_inequalities(cls, g, dim: int) -> "PolyCone":
        return cls(dim, ineqs=mat(g))

    @classmethod
    def from_generators(cls, rays, dim: int, lineality=()) -> "PolyCone":
        return cls(dim, rays=[vec(r) for r in rays], lineality=[vec(l) for l in lineality])

    @classmethod
    def zero(cls, dim: int) -> "PolyCone":
        return cls(dim, rays=[], lineality=[])

    @classmethod
    def full(cls, dim: int) -> "PolyCone":
        return cls(dim, ineqs=())

    # -- representations ---------------------------------------------------

    @property
    def ineqs(self) -> Mat:
        # Bipolar: {x : <h,x> <= 0 for every generator h of the polar}.
        if self._ineqs is None:
            self._ineqs = mat(self._polar_generators())
        return self._ineqs

    def _compute_vrep(self) -> None:
        lin, rays = hrep_to_vrep(self.ineqs, self.dim)
        self._lineality, self._rays = lin, rays

    @property
    def rays(self) -> list[Vec]:
        if self._rays is None:
            self._compute_vrep()
        return self._rays

    @property
    def lineality(self) -> list[Vec]:
        if self._lineality is None:
            self._compute_vrep()
        return self._lineality

    def generators(self) -> list[Vec]:
        """Rays plus +-lineality: a finite set whose conic hull is the cone."""
        gens = list(self.rays)
        for l in self.lineality:
            gens.append(l)
            gens.append(neg(l))
        return gens

    def _polar_generators(self) -> list[Vec]:
        # Generators of the polar, from own generators: polar of
        # cone(R)+span(L) is {y : R y <= 0, L y = 0}.
        rows = [vec(r) for r in self.rays]
        for l in self.lineality:
            rows.append(vec(l))
            rows.append(neg(vec(l)))
        lin, rays = hrep_to_vrep(mat(rows), self.dim)
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(neg(l))
        return gens

    def polar(self) -> "PolyCone":
        """{y : <y,u> <= 0 for all u in cone}."""
        if self._rays is not None or self._ineqs is None:
            rows = [vec(r) for r in self.rays]
            for l in self.lineality:
                rows.append(vec(l))
                rows.append(neg(vec(l)))
            return PolyCone(self.dim, ineqs=mat(rows))
        # Polar of {x : Gx <= 0} is the conic hull of the rows of G.
        return PolyCone(self.dim, rays=[vec(r) for r in self.ineqs],
                        lineality=[])._canonical_from_rays()

    def _canonical_from_rays(self) -> "PolyCone":
        # Rays built from inequality normals may hide lineality; rebuild.
        gens = [primitive(r) for r in self._rays if not is_zero(r)]
        lin: list[Vec] = []
        rays: list[Vec] = []
        for g in gens:
            if _in_generated(neg(g), gens, []):
                lin.append(g)
            else:
                rays.append(g)
        lin_basis = row_space_basis(lin, self.dim) if lin else []
        return PolyCone(self.dim, rays=_reduce_rays(rays, lin_basis), lineality=lin_basis)

    # -- predicates --------------------------------------------------------

    def contains(self, v) -> bool:
        v = vec(v)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        if self._ineqs is not None:
            return all(dot(row, v) <= 0 for row in self._ineqs)
        return _in_generated(v, self.rays, self.lineality)

    def contains_cone(self, other: "PolyCone") -> bool:
        return all(self.contains(g) for g in other.generators()) if other.generators() \
            else True

    def equals(self, other: "PolyCone") -> bool:
        return self.contains_cone(other) and other.contains_cone(self)

    def is_trivial(self) -> bool:
        return not self.rays and not self.lineality

    def cone_dim(self) -> int:
        gens = self.rays + self.lineality
        return rank(mat(gens)) if gens else 0

    # -- face lattice --------------------------------------------------------

    def faces(self) -> list["PolyCone"]:
        """All nonempty faces, from the minimal face (lineality space) up to
        the cone itself.

        A face is the conic hull of the extreme rays it contains plus the
        lineality space, so faces are enumerated over ray subsets and
        validated against the inequality description.
        """
        rays = self.rays
        lin = self.lineality
        rows = self.ineqs
        found: dict[frozenset[int], PolyCone] = {}

        def rays_in_face(active: list[int]) -> frozenset[int]:
            return frozenset(
                i for i, r in enumerate(rays)
                if all(dot(rows[a], r) == 0 for a in active)
            )

        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(len(rays)), k) for k in range(len(rays) + 1)):
            chosen = set(subset)
            active = [a for a in range(len(rows))
                      if all(dot(rows[a], rays[i]) == 0 for i in chosen)]
            closure = rays_in_face(active)
            if closure != chosen:
                continue
            if closure in found:
                continue
            face_rays = [rays[i] for i in sorted(closure)]
            found[closure] = PolyCone(self.dim, rays=face_rays, lineality=list(lin))
        return [found[k] for k in sorted(found, key=lambda s: (len(s), sorted(s)))]

    def intersect(self, other: "PolyCone") -> "PolyCone":
        return PolyCone(self.dim, ineqs=self.ineqs + other.ineqs)

    def __repr__(self) -> str:
        return f"PolyCone(dim={self.dim}, rays={self.rays}, lineality={self.lineality})"


class ConeUnion:
    """Finite union of polyhedral convex cones in a common ambient space."""

    def __init__(self, pieces: list[PolyCone], dim: int | None = None):
        if not pieces and dim is None:
            raise ValueError("empty union needs explicit dimension")
        self.dim = dim if dim is not None else pieces[0].dim
        self.pieces = pieces

    def contains(self, v) -> bool:
        return any(p.contains(v) for p in self.pieces)

    def dedupe(self) -> "ConeUnion":
        kept: list[PolyCone] = []
        for p in self.pieces:
            if p.is_trivial() and len(self.pieces) > 1:
                continue
            if any(q.contains_cone(p) for q in kept):
                continue
            kept = [q for q in kept if not p.contains_cone(q)]
            kept.append(p)
        if not kept:
            kept = [PolyCone.zero(self.dim)]
        return ConeUnion(kept, self.dim)

    def __repr__(self) -> str:
        return f"ConeUnion({len(self.pieces)} pieces, dim={self.dim})"

