"""Cell complexes of polyhedral unions and the normal cones they induce.

Near a point of a finite union of polyhedra, only finitely many
"signatures" occur: which pieces contain a nearby point and with which
exact active set.  The regular normal cone is constant on each
signature locus, so the limiting normal cone (the outer limit of regular
normal cones) is exactly the union of those finitely many values over
the cells adherent to the point.  This module enumerates the cells, both
localized at a query point (conic) and globally (polyhedral).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .cones import ConeUnion, PolyCone, generated_cone
from .polyhedra import ConvexPolyhedron, PolyUnion
from .rational import Vec, add, dot, int_row, is_zero, mat, neg, scale, vec, zeros


def _value_cone(union: PolyUnion, memberships: list[tuple[int, frozenset[int]]]) -> PolyCone:
    """Regular normal cone on a locus where piece k is active exactly on S_k:
    the intersection over pieces of cone{A_k,i : i in S_k}."""
    dim = union.dim
    ineq_rows: list[Vec] = []
    for k, s in memberships:
        rows = tuple(union.pieces[k].a[i] for i in sorted(s))
        ineq_rows.extend(generated_cone(rows, dim).ineqs)
    return PolyCone(dim, ineqs=mat(ineq_rows))


@dataclass(frozen=True)
class LocalCell:
    """One conic cell of the localized complex at a query point."""
    memberships: tuple[tuple[int, frozenset[int]], ...]  # (piece, tangent-active rows)
    cell: PolyCone        # closure of the signature locus, in local coordinates
    value: PolyCone       # regular normal cone on the locus


def _tangent_faces(piece: ConvexPolyhedron, x: Vec) -> list[tuple[frozenset[int], list[Vec]]]:
    """Faces of the tangent cone of `piece` at x, as
    (equality rows, strict rows), indexed by original piece rows."""
    act = sorted(piece.active_set(x))
    tangent = PolyCone.from_inequalities(tuple(piece.a[i] for i in act), piece.dim)
    return [(frozenset(act[j] for j in key),
             [piece.a[i] for j, i in enumerate(act) if j not in key])
            for key, _ in tangent.faces()]


def local_cells(union: PolyUnion, x) -> list[LocalCell]:
    """All cells of the localized complex of the union at x (x in union)."""
    x = vec(x)
    if not union.contains(x):
        raise ValueError("point is not in the union")
    ks = union.pieces_containing(x)
    dim = union.dim
    options: dict[int, list] = {}
    for k in ks:
        piece = union.pieces[k]
        act = sorted(piece.active_set(x))
        opts = [(eq, [piece.a[i] for i in sorted(eq)], strict)
                for eq, strict in _tangent_faces(piece, x)]
        opts += [(None, [], [neg(piece.a[i])]) for i in act]  # A_i u > 0 leaves the piece
        # the strict-feasibility test reads each option's rows as primitive
        # int sets, built once here and unioned down the recursion
        options[k] = [(eq, eq_rows, strict, frozenset(map(int_row, eq_rows)),
                       frozenset(map(int_row, strict))) for eq, eq_rows, strict in opts]

    cells: list[LocalCell] = []

    def recurse(idx: int, eqs: list[Vec], stricts: list[Vec], eq_set: frozenset,
                strict_set: frozenset, memberships: list[tuple[int, frozenset[int]]]) -> None:
        if not lp.strict_homogeneous_feasible(eq_set, strict_set, dim):
            return
        if idx == len(ks):
            if not memberships:
                return
            cell = PolyCone(dim, ineqs=mat(stricts + eqs + [neg(r) for r in eqs]))
            cells.append(LocalCell(tuple(memberships), cell,
                                   _value_cone(union, memberships)))
            return
        k = ks[idx]
        for eq, eq_rows, strict, eq_int, strict_int in options[k]:
            recurse(idx + 1, eqs + eq_rows, stricts + strict, eq_set | eq_int,
                    strict_set | strict_int,
                    memberships if eq is None else memberships + [(k, eq)])

    recurse(0, [], [], frozenset(), frozenset(), [])
    return cells


def regular_normal_cone(union: PolyUnion, x) -> PolyCone:
    """Polar of the union of piece tangent cones at x: the intersection of
    the pieces' convex normal cones.  Convex, exact."""
    x = vec(x)
    ks = union.pieces_containing(x)
    if not ks:
        raise ValueError("point is not in the union")
    return _value_cone(union, [(k, union.pieces[k].active_set(x)) for k in ks])


def limiting_normal_cone(union: PolyUnion, x) -> ConeUnion:
    """Union of the regular normal cone values over all cells adherent
    to x; realizes the outer limit of regular normal cones exactly."""
    values = [c.value for c in local_cells(union, x)]
    return ConeUnion(values, union.dim).dedupe()


# -- global cells -------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One cell of the global complex: closure of a constant-signature locus."""
    memberships: tuple[tuple[int, frozenset[int]], ...]
    closure: ConvexPolyhedron
    value: PolyCone


def cell_complex(union: PolyUnion) -> list[Cell]:
    """All cells of the union's signature decomposition.

    A signature fixes, per piece, either an exact active set (a face) or
    non-membership; cells are the closures of the nonempty loci.  Values
    are the regular normal cones, constant on each locus.
    """
    dim = union.dim
    options: list[list] = []
    for piece in union.pieces:
        faces = piece.faces()
        opts = []
        for key, face in faces:
            strict_rows = [(piece.a[i], piece.b[i]) for i in range(piece.m) if i not in key]
            eq_rows = [(piece.a[i], piece.b[i]) for i in sorted(key)]
            opts.append(("in", key, eq_rows, strict_rows))
        for i in range(piece.m):
            opts.append(("out", None, [], [(neg(piece.a[i]), -piece.b[i])]))
        options.append(opts)

    cells: list[Cell] = []

    def recurse(k: int, eqs: list, stricts: list, memberships: list) -> None:
        a_strict = mat([r for r, _ in stricts])
        b_strict = vec([v for _, v in stricts])
        a_eq = mat([r for r, _ in eqs])
        b_eq = vec([v for _, v in eqs])
        if lp.strictly_feasible_point(a_strict, b_strict, (), (), a_eq, b_eq, n=dim) is None:
            return
        if k == len(union.pieces):
            if not memberships:
                return
            rows = [r for r, _ in stricts] + [r for r, _ in eqs] + [neg(r) for r, _ in eqs]
            rhs = [v for _, v in stricts] + [v for _, v in eqs] + [-v for _, v in eqs]
            closure = ConvexPolyhedron(mat(rows), vec(rhs), dim=dim)
            cells.append(Cell(tuple(memberships), closure,
                              _value_cone(union, memberships)))
            return
        for kind, key, eq_rows, strict_rows in options[k]:
            if kind == "in":
                recurse(k + 1, eqs + eq_rows, stricts + strict_rows,
                        memberships + [(k, key)])
            else:
                recurse(k + 1, eqs, stricts + strict_rows, memberships)

    recurse(0, [], [], [])
    return cells


def cells_adherent_to(cells: list[Cell], x) -> list[Cell]:
    x = vec(x)
    return [c for c in cells if c.closure.contains(x)]


# -- brute-force sampling oracle ----------------------------------------------


def sampled_regular_normals(union: PolyUnion, x, count: int, seed: int,
                            scale_den: int = 64) -> list[PolyCone]:
    """Regular normal cones collected at `count` exact points of the union
    near x.

    Independent of the cell enumeration: each sample's cone comes straight
    from active sets at the sampled point.  Used as the outer-limit oracle.
    """
    x = vec(x)
    rng = random.Random(seed)
    dim = union.dim
    ks = union.pieces_containing(x)
    if not ks:
        raise ValueError("point is not in the union")

    # Directions that stay in some piece: relint points of tangent faces.
    face_dirs: list[tuple[int, list[Vec]]] = []
    for k in ks:
        piece = union.pieces[k]
        act = sorted(piece.active_set(x))
        tangent = PolyCone.from_inequalities(tuple(piece.a[i] for i in act), dim)
        for _, face in tangent.faces():
            gens = face.generators()
            if gens:
                face_dirs.append((k, gens))

    samples: list[PolyCone] = []
    # constant sequences reach the query point itself, so its regular cone
    # always belongs to the outer limit
    collected: list[PolyCone] = [regular_normal_cone_at_point(union, x)]
    for _ in range(count):
        if not face_dirs:
            y = x
        else:
            k, gens = face_dirs[rng.randrange(len(face_dirs))]
            u = zeros(dim)
            for g in gens:
                w = Fraction(rng.randint(1, scale_den), scale_den)
                u = add(u, scale(vec(g), w))
            if is_zero(u):
                y = x
            else:
                # largest exact step keeping x + t u inside piece k
                piece = union.pieces[k]
                t = Fraction(1, scale_den)
                for row, bi in zip(piece.a, piece.b):
                    ru = dot(row, u)
                    if ru > 0:
                        slack = bi - dot(row, x)
                        t = min(t, slack / ru / 2) if slack > 0 else t
                y = add(x, scale(u, t))
                if not union.contains(y):
                    y = x
        cone = regular_normal_cone_at_point(union, y)
        samples.append(cone)
        if not any(cone.equals(c) for c in collected):
            collected.append(cone)
    return collected


def regular_normal_cone_at_point(union: PolyUnion, y: Vec) -> PolyCone:
    """Pointwise regular normal cone from active sets only."""
    rows: list[Vec] = []
    hit = False
    for piece in union.pieces:
        if piece.contains(y):
            hit = True
            rows.extend(piece.normal_cone(y).ineqs)
    if not hit:
        raise ValueError("sample left the union")
    return PolyCone(union.dim, ineqs=mat(rows))
