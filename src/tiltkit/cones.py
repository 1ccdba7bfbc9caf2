"""Polyhedral convex cones with dual descriptions.

A cone is kept in inequality form {u : G u <= 0} and/or generator form
span(lineality) + cone(rays); conversion runs on demand through a double
description pass over ints (int rays, bitmask zero sets), so the two forms
always describe the same set.  It runs on the pointed quotient (the cone
cut down to the orthogonal complement of its lineality space), so its
output is already the set of extreme rays, each orthogonal to the
lineality; no LP runs.  One integer elimination of [G^T | I] sets it up.
Rows, rays and lineality are primitive int tuples throughout: given ones
are made primitive, which keeps the cone, and the double description
hands out the ints it computes.  Polarity is the representation swap: the
polar of {u : G u <= 0} is cone(rows of G), and vice versa.  Membership
tests the rows of the inequality form, which a cone given by generators
gets once, from its polar's double description.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .rational import MEMO_SIZE, int_nullspace, int_row, int_rref, neg

Row = tuple[int, ...]


def _dd_pointed(dim: int, extra: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {x in R^dim : x >= 0, a.x <= 0 for a in extra}, as
    primitive int tuples; the rows of `extra` are int tuples.

    Incremental double description from the orthant; the combinatorial
    adjacency test is valid because the cone stays pointed (Fukuda and
    Prodon, "Double description method revisited", 1996).
    """
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    # Each ray's zero set: a bitmask of the processed rows it is tight on.
    # Bits 0..dim-1 are the orthant rows -e_i, bit dim + j is extra[j].  A new
    # ray is tight exactly where both of its parents are, plus on the new row.
    zsets = {r: ((1 << dim) - 1) ^ (1 << i) for i, r in enumerate(rays)}
    for k, a in enumerate(extra, start=dim):
        vals = [sum(map(operator.mul, a, r)) for r in rays]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        negs = [(r, v) for r, v in zip(rays, vals) if v < 0]
        merged: list[tuple[int, ...]] = []
        new_z: dict[tuple[int, ...], int] = {}
        for r, v in zip(rays, vals):
            if v <= 0:
                merged.append(r)
                new_z[r] = zsets[r] | (1 << k) if v == 0 else zsets[r]
        for (rp, vp), (rn, vn) in itertools.product(pos, negs):
            common = zsets[rp] & zsets[rn]
            if any(zsets[r] & common == common for r in rays if r is not rp and r is not rn):
                continue  # not adjacent
            # nonzero: both parents are nonzero and lie in the orthant
            r = int_row([vp * y - vn * x for x, y in zip(rp, rn)])
            if r not in new_z:
                merged.append(r)
                new_z[r] = common | (1 << k)
        rays, zsets = merged, new_z
    return rays


def hrep_to_vrep(g, dim: int) -> tuple[list[Row], list[Row]]:
    """Generators of {u : g u <= 0}: (lineality basis, rays), primitive int
    tuples; g's rows are exact.

    The rays are the cone's extreme rays, taken orthogonal to the lineality
    space, primitive and sorted.  The double description runs on the
    pointed quotient: with B a maximal independent set of rows, x = -g_B u
    maps the orthogonal complement of the lineality onto R^rank(g), where
    the cone is {x >= 0, -c_j.x <= 0} for each other row g_j = c_j g_B.
    B, the c_j and, for a pointed cone, the map back -g_B^-1 come from one
    fraction-free elimination of [g^T | I].
    Memoized on (dim, the nonzero rows made primitive int rows, in the
    caller's order) and computed from that key alone, so what a caller gets
    never depends on which caller filled the memo.
    """
    lin, rays = _vrep(dim, tuple(r for r in map(int_row, g) if any(r)))
    return list(lin), list(rays)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _vrep(dim: int, rows: tuple[Row, ...]) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
    # rref([g^T | I]) = E [g^T | I]: its left pivots pick B, its left block's
    # other columns hold the c_j, and its right block's first k rows T have
    # g_B T^T = s I, s > 0
    m = len(rows)
    red, pivots, _ = int_rref([tuple(r[i] for r in rows) + tuple(int(i == j) for j in range(dim))
                               for i in range(dim)])
    basis = [c for c in pivots if c < m]
    k = len(basis)
    extra = [tuple(-row[j] for row in red[:k]) for j in range(m) if j not in basis]
    if k == dim:  # pointed: g_B u = -x is u = -T^T x / s
        lineality, back = (), [[-row[m + j] for row in red] for j in range(dim)]
    else:  # the right block of the rref of [g_B, -I; lineality, 0]; g_B spans g's rows
        lineality = tuple(int_row(l) for l in int_nullspace([rows[b] for b in basis], dim)[0])
        system = [rows[b] + tuple(-int(i == r) for i in range(k)) for r, b in enumerate(basis)]
        system += [l + (0,) * k for l in lineality]
        back = [row[dim:] for row in int_rref(system)[0]]
    rays = sorted(int_row([sum(map(operator.mul, row, x)) for row in back])
                  for x in _dd_pointed(k, extra))
    return lineality, tuple(rays)


def close_under_meets(seeds, tight_sets) -> set[frozenset[int]]:
    """The seed sets closed under intersection with each tight set.

    With the tight sets of a generating set of a cone (or homogenized
    polyhedron), and seeds the keys of its minimal faces, these are the
    keys of all its faces: a face's key is the intersection of the tight
    sets of the generators on it.
    """
    keys = set(seeds)
    todo = list(keys)
    while todo:
        key = todo.pop()
        for t in tight_sets:
            meet = key & t
            if meet not in keys:
                keys.add(meet)
                todo.append(meet)
    return keys


@functools.lru_cache(maxsize=MEMO_SIZE)
def generated_cone(rows: tuple, dim: int) -> PolyCone:
    """cone(rows), memoized on the rows in the caller's order: normal cones
    and cell values ask for the same few cones over and over."""
    return PolyCone.from_generators(rows, dim)


class PolyCone:
    """Immutable polyhedral convex cone in R^n; exact rows and generators
    given are kept made primitive."""

    def __init__(self, dim: int, ineqs=None, rays=None, lineality=None):
        if ineqs is None and rays is None and lineality is None:
            raise ValueError("cone needs at least one description")
        self.dim = dim
        if ineqs is not None:
            self.ineqs = tuple(map(int_row, ineqs))
        if rays is not None or lineality is not None:
            self._lin_rays = ([int_row(l) for l in lineality or ()],
                              [int_row(r) for r in rays or ()])

    @classmethod
    def from_inequalities(cls, g, dim: int) -> "PolyCone":
        return cls(dim, ineqs=g)

    @classmethod
    def from_generators(cls, rays, dim: int, lineality=()) -> "PolyCone":
        return cls(dim, rays=rays, lineality=lineality)

    @classmethod
    def zero(cls, dim: int) -> "PolyCone":
        return cls(dim, rays=[], lineality=[])

    # -- representations ---------------------------------------------------

    @functools.cached_property
    def ineqs(self) -> tuple[Row, ...]:
        # Bipolar: {x : <h,x> <= 0 for every generator h of the polar}.
        return tuple(self.polar().generators())

    @functools.cached_property
    def _lin_rays(self) -> tuple[list[Row], list[Row]]:
        """(lineality basis, extreme rays), by double description of `ineqs`."""
        return hrep_to_vrep(self.ineqs, self.dim)

    @functools.cached_property
    def polyhedron(self) -> "ConvexPolyhedron":
        """The inequality form {u : G u <= 0} as a `ConvexPolyhedron`."""
        from .polyhedra import ConvexPolyhedron  # not at the top: polyhedra imports cones
        return ConvexPolyhedron.from_rows(self.dim, ((g + (0,), 1) for g in self.ineqs))

    @property
    def rays(self) -> list[Row]:
        return self._lin_rays[1]

    @property
    def lineality(self) -> list[Row]:
        return self._lin_rays[0]

    def generators(self) -> list[Row]:
        """Rays plus +-lineality: a finite set whose conic hull is the cone."""
        gens = list(self.rays)
        for l in self.lineality:
            gens.append(l)
            gens.append(neg(l))
        return gens

    def polar(self) -> "PolyCone":
        """{y : <y,u> <= 0 for all u in cone}: the inequality form whose rows
        are the cone's generators."""
        return PolyCone(self.dim, ineqs=self.generators())

    # -- predicates --------------------------------------------------------

    def contains(self, v) -> bool:
        v = tuple(v)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return self.holds_at(int_row(v))

    def holds_at(self, u) -> bool:
        """Is v in the cone, for u the ints of a positive multiple of v?"""
        return all(sum(map(operator.mul, row, u)) <= 0 for row in self.ineqs)

    def contains_cone(self, other: "PolyCone") -> bool:
        """Does every generator of other, a primitive int row, hold here?"""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return all(self.holds_at(g) for g in other.generators())

    def equals(self, other: "PolyCone") -> bool:
        return self.contains_cone(other) and other.contains_cone(self)

    def is_trivial(self) -> bool:
        return not self.rays and not self.lineality

    # -- face lattice --------------------------------------------------------

    def faces(self) -> list[tuple[frozenset[int], "PolyCone"]]:
        """All nonempty faces as (rows of `ineqs` tight on the face, face
        cone), from the minimal face (the lineality space) up to the cone
        itself, ordered by the face's set of ray indices as (size, sorted).

        A face is the conic hull of the extreme rays on it plus the
        lineality space, which is tight on every row; so the keys are the
        set of all rows closed under intersection with each ray's tight set.
        """
        rays, rows = self.rays, self.ineqs
        tight = [frozenset(a for a, row in enumerate(rows) if not sum(map(operator.mul, row, r)))
                 for r in rays]
        on = {key: [i for i, t in enumerate(tight) if key <= t]
              for key in close_under_meets([frozenset(range(len(rows)))], tight)}
        return [(key, PolyCone(self.dim, rays=[rays[i] for i in on[key]],
                               lineality=list(self.lineality)))
                for key in sorted(on, key=lambda k: (len(on[k]), on[k]))]

    def __repr__(self) -> str:
        return f"PolyCone(dim={self.dim}, rays={self.rays}, lineality={self.lineality})"


def dedupe(cones: list[PolyCone], dim: int) -> tuple[PolyCone, ...]:
    """A finite union of cones in R^dim without redundant members, in order:
    a trivial cone is dropped unless it is alone, a cone that a kept one
    contains is dropped, and a new cone replaces the kept ones it contains;
    an empty union is {0}."""
    kept: list[PolyCone] = []
    for p in cones:
        if p.is_trivial() and len(cones) > 1:
            continue
        if any(q.contains_cone(p) for q in kept):
            continue
        kept = [q for q in kept if not p.contains_cone(q)]
        kept.append(p)
    return tuple(kept) or (PolyCone.zero(dim),)
