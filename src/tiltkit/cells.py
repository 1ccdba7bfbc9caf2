"""Cell complexes of polyhedral unions and the normal cones they induce.

Near a point of a finite union of polyhedra, only finitely many
"signatures" occur: which pieces contain a nearby point and with which
exact active set.  The regular normal cone is constant on each
signature locus, so the limiting normal cone (the outer limit of regular
normal cones) is exactly the union of those finitely many values over
the cells adherent to the point.  This module reads the cells localized
at a query point (conic signatures) off the covectors of the active rows'
arrangement, with no LP, and finds the global cells (polyhedral closures)
by the strict-feasibility search `polyhedra.strict_leaves`: per piece, a
face to stay on or a row to leave through.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .cones import PolyCone, dedupe, generated_cone
from .polyhedra import ConvexPolyhedron, PolyUnion, homogenize, strict_leaves
from .rational import int_nullspace, mat, neg, rank, vec, zeros


Signature = tuple[tuple[int, frozenset[int]], ...]  # (piece, active rows) per member


def _value_cone(union: PolyUnion, memberships: Sequence[tuple[int, frozenset[int]]]) -> PolyCone:
    """Regular normal cone on a locus where piece k is active exactly on S_k:
    the intersection over pieces of cone{A_k,i : i in S_k}."""
    dim = union.dim
    ineq_rows: list[tuple[int, ...]] = []
    for k, s in memberships:
        rows = tuple(union.pieces[k].a[i] for i in sorted(s))
        ineq_rows.extend(generated_cone(rows, dim).ineqs)
    return PolyCone(dim, ineqs=ineq_rows)


def covectors(planes, dim: int, cones) -> set[tuple[int, ...]]:
    """The sign vectors X = sign(P u), u in R^dim, of the int rows P =
    `planes` that lie in a closed cone of `cones`, a list of (h, s) asking
    s X_h <= 0.  Per cone, they are the compositions of the sets of its
    cocircuits C ((X o C)_h is X_h, or C_h where X_h = 0), each set in one
    fixed order, the empty set giving the zero vector.  A composition is a
    sign vector, of u + eps v for small eps > 0, and keeps signs <= 0.
    Conversely, modulo the lineality, the extreme rays of X's closed cell
    {v : each P_h v zero or of sign X_h} lie on flats of rank r - 1
    (r = rank P), so their signs are cocircuits, in X's cone as they are
    conformal to X; u is a nonnegative sum of them plus lineality, so they
    compose to X in any order (Bjorner, Las Vergnas, Sturmfels, White and
    Ziegler, *Oriented Matroids*, 1999, ch. 3).
    """
    def signs(u):  # as bitmasks: (rows h with P_h u > 0, rows with P_h u < 0)
        dots = [sum(map(operator.mul, p, u)) for p in planes]
        return tuple(sum(1 << h for h, d in enumerate(dots) if d * t > 0) for t in (1, -1))

    r, cocircuits = rank(planes), set()
    for flat in itertools.combinations(planes, max(r - 1, 0)):
        basis = int_nullspace(flat, dim)[0]
        if len(basis) == dim - r + 1:  # rank r - 1: some basis vector is off the lineality
            c = next(filter(any, map(signs, basis)))
            cocircuits |= {c, c[::-1]}
    found = set()
    for cone in cones:  # the rows that may not be positive, and those that may not be negative
        up, down = (sum(1 << h for h in {h for h, s in cone if s == t}) for t in (1, -1))
        reached = {(0, 0)}
        for cp, cn in cocircuits:
            if not (cp & up or cn & down):
                reached |= {(pos | cp & ~negs, negs | cn & ~pos) for pos, negs in reached}
        found |= reached
    return {tuple((pos >> h & 1) - (negs >> h & 1) for h in range(len(planes)))
            for pos, negs in found}


def local_cells(union: PolyUnion, x) -> list[Signature]:
    """Signatures of the localized complex of the union at x (x in union),
    each once, in the order of their least path: per piece, the index of
    the face of its tangent cone that u stays on, or the number of faces
    plus the index of the first active row u leaves through.  Both are read
    off the covectors in some tangent cone of the arrangement of the active
    rows, a row and its negation one hyperplane with opposite signs.
    """
    x = vec(x)
    if not union.contains(x):
        raise ValueError("point is not in the union")
    planes: dict[tuple[int, ...], int] = {}  # hyperplane, its first nonzero entry > 0 -> index
    pieces = []
    for k in union.pieces_containing(x):
        tangent = union.pieces[k].tangent_cone(x)
        signed = [(planes.setdefault(max(row, neg(row)), len(planes)), 1 if row >= neg(row) else -1)
                  for row in tangent.ineqs]
        faces = {key: j for j, (key, _) in enumerate(tangent.faces())}
        pieces.append((k, sorted(union.pieces[k].active_set(x)), signed, faces))
    found = []
    for cov in covectors(tuple(planes), union.dim, [signed for _, _, signed, _ in pieces]):
        sig, path = [], []
        for k, act, signed, faces in pieces:
            vals = [s * cov[h] for h, s in signed]
            if max(vals, default=0) <= 0:
                key = frozenset(j for j, v in enumerate(vals) if not v)
                sig.append((k, frozenset(act[j] for j in key)))
                path.append(faces[key])
            else:
                path.append(len(faces) + next(j for j, v in enumerate(vals) if v > 0))
        found.append((tuple(path), tuple(sig)))
    return list(dict.fromkeys(sig for _, sig in sorted(found)))  # each at its least path


def limiting_normal_cone(union: PolyUnion, x) -> tuple[PolyCone, ...]:
    """The regular normal cone values over all cells adherent to x, deduped:
    the outer limit of regular normal cones, exactly."""
    return dedupe([_value_cone(union, sig) for sig in local_cells(union, x)], union.dim)


# -- global cells -------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One cell of the global complex: closure of a constant-signature locus."""
    memberships: Signature
    closure: ConvexPolyhedron
    value: PolyCone


def cell_complex(union: PolyUnion) -> list[Cell]:
    """All cells of the union's signature decomposition.

    A signature fixes, per piece, either an exact active set (a face) or
    non-membership; cells are the closures of the nonempty loci.  Values
    are the regular normal cones, constant on each locus.
    """
    dim = union.dim
    levels = []
    for k, piece in enumerate(union.pieces):
        ab = list(zip(piece.a, piece.b))
        rows = piece.rows
        opts = []
        for key, _ in piece.faces():
            out = [i for i in range(piece.m) if i not in key]
            # the payload keeps the (a, b) rows that the closure is built from
            opts.append((frozenset(rows[i] for i in key), frozenset(rows[i] for i in out),
                         ((k, key), [ab[i] for i in sorted(key)], [ab[i] for i in out])))
        for (a, bi), row in zip(ab, rows):
            opts.append((frozenset(), frozenset([neg(row)]), (None, [], [(neg(a), -bi)])))
        levels.append(opts)

    cells: list[Cell] = []
    t_positive = homogenize(zeros(dim), 1)
    for chosen in strict_leaves(levels, dim + 1, stricts=frozenset([t_positive])):
        memberships = [m for m, _, _ in chosen if m is not None]
        if not memberships:
            continue
        eqs = [r for _, e, _ in chosen for r in e]
        rows = [r for _, _, s in chosen for r in s] + eqs + [(neg(a), -bi) for a, bi in eqs]
        closure = ConvexPolyhedron(mat([a for a, _ in rows]), vec([bi for _, bi in rows]),
                                   dim=dim)
        cells.append(Cell(tuple(memberships), closure, _value_cone(union, memberships)))
    return cells


# -- brute-force sampling oracle ----------------------------------------------


SCALE_DEN = 64  # each generator's weight in a sampled direction is drawn from 1..SCALE_DEN


def sampled_regular_normals(union: PolyUnion, x, count: int, seed: int) -> list[PolyCone]:
    """Regular normal cones collected at `count` points of the union near x.

    Independent of the cell enumeration: each sample's cone comes straight
    from the pieces and active rows at the sampled point.  Used as the
    outer-limit oracle.  A sample is x + t u, u a random direction in a face
    of a piece's tangent cone at x and t > 0 small enough, so its signature
    is read off signs without forming the point: a piece that misses x stays
    out, and so does each slack row; an active row has value t (row . u).
    So the sample lies in exactly the pieces holding x whose active rows all
    have row . u <= 0, active in each on the rows with row . u = 0.  Equal
    signatures give equal cones, so a cone is built only for a signature
    not seen before.
    """
    x = vec(x)
    rng = random.Random(seed)
    held = tuple((k, union.pieces[k].active_set(x)) for k in union.pieces_containing(x))
    if not held:
        raise ValueError("point is not in the union")

    # Directions that stay in piece k: relint points of its tangent faces,
    # from the faces' generators (primitive int rows) padded to (g, 0).
    face_dirs = [gens for k, _ in held for _, face in union.pieces[k].tangent_cone(x).faces()
                 if (gens := [g + (0,) for g in face.generators()])]
    # the active rows at x of each piece holding x, as (index, int row)
    active = [(k, [(i, union.pieces[k].rows[i]) for i in act]) for k, act in held]

    # constant sequences reach the query point itself, so its regular cone
    # always belongs to the outer limit; with no direction every sample is x
    collected: list[PolyCone] = [_value_cone(union, held)]
    seen = {held}
    for _ in range(count if face_dirs else 0):
        gens = face_dirs[rng.randrange(len(face_dirs))]
        weights = [rng.randint(1, SCALE_DEN) for _ in gens]
        u = [sum(map(operator.mul, weights, col)) for col in zip(*gens)]
        sig = []
        for k, rows in active:
            vals = [(i, sum(map(operator.mul, r, u))) for i, r in rows]
            if all(v <= 0 for _, v in vals):
                sig.append((k, frozenset(i for i, v in vals if not v)))
        sig = tuple(sig)
        if sig in seen:
            continue
        seen.add(sig)
        cone = _value_cone(union, sig)
        if not any(cone.equals(c) for c in collected):
            collected.append(cone)
    return collected
