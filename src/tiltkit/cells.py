"""Cell complexes of polyhedral unions and the normal cones they induce.

Near a point of a finite union of polyhedra, only finitely many
"signatures" occur: which pieces contain a nearby point and with which
exact active set.  The regular normal cone is constant on each
signature locus, so the limiting normal cone (the outer limit of regular
normal cones) is exactly the union of those finitely many values over
the cells adherent to the point.  This module enumerates the cells, both
localized at a query point (conic signatures) and globally (polyhedral
closures), as options for the one strict-feasibility search
`polyhedra.strict_leaves`: per piece, a face to stay on or a row to leave
through.  Local cells choose the members first (a face per piece, or the
piece left out) and then run one first-hit search for leave rows of the
pieces left out; the signatures come ordered by their first feasible path.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .cones import ConeUnion, PolyCone, generated_cone
from .polyhedra import ConvexPolyhedron, PolyUnion, homogenize, strict_leaves
from .rational import mat, neg, vec, zeros


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


def local_cells(union: PolyUnion, x) -> list[Signature]:
    """Signatures of the localized complex of the union at x (x in union),
    each once, in the order of their first strictly feasible path.

    A direction u stays in piece k on a face of its tangent cone (the face's
    rows equal, the other active rows strict) or leaves it through an
    active row (A_i u > 0).  The search first chooses the members: a face
    per piece, or the piece left out.  Each choice with a member is a
    signature iff one first-hit search finds a leave row for every piece
    left out; that hit is the least feasible path of the signature, among
    paths ordered by option index per piece, faces before leave rows.
    """
    x = vec(x)
    if not union.contains(x):
        raise ValueError("point is not in the union")
    levels, outs = [], []
    for k in union.pieces_containing(x):
        piece = union.pieces[k]
        act = sorted(piece.active_set(x))
        tangent = piece.tangent_cone(x)
        rows = dict(zip(act, tangent.ineqs))
        opts = []
        for j, (key, _) in enumerate(tangent.faces()):
            eq = frozenset(act[i] for i in key)
            rows_eq = frozenset(rows[i] for i in eq)
            rows_strict = frozenset(rows[i] for i in act if i not in eq)
            opts.append((rows_eq, rows_strict, (j, (k, eq), rows_eq, rows_strict)))
        levels.append(opts + [(frozenset(), frozenset(), None)])
        outs.append([(frozenset(), frozenset([neg(rows[i])]), len(opts) + j)
                     for j, i in enumerate(act)])
    found = []
    for chosen in strict_leaves(levels, union.dim):
        members = [c for c in chosen if c is not None]
        if not members:
            continue
        escape = next(strict_leaves([o for o, c in zip(outs, chosen) if c is None], union.dim,
                                    frozenset().union(*(e for _, _, e, _ in members)),
                                    frozenset().union(*(s for _, _, _, s in members))), None)
        if escape is not None:
            leave = iter(escape)
            path = tuple(next(leave) if c is None else c[0] for c in chosen)
            found.append((path, tuple(m for _, m, _, _ in members)))
    return [sig for _, sig in sorted(found)]


def limiting_normal_cone(union: PolyUnion, x) -> ConeUnion:
    """Union of the regular normal cone values over all cells adherent
    to x; realizes the outer limit of regular normal cones exactly."""
    values = [_value_cone(union, sig) for sig in local_cells(union, x)]
    return ConeUnion(values, union.dim).dedupe()


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
