"""Euclidean projections onto polyhedra and cones (float path).

The nearest point of a polyhedron P to z lies in the relative interior of
exactly one face F, and is the projection of z onto the affine hull of F
(Rockafellar-Wets, Variational Analysis, 6.C).  The candidates are
therefore the faces of P, read exactly and LP-free from its
V-representation; the best feasible candidate is exact up to floating
error.  Each affine hull is cut out by the first linearly independent rows
of its face's key, in index order.
"""

from __future__ import annotations

import functools

import numpy as np

from .polyhedra import ConvexPolyhedron, cone_polyhedron
from .cones import PolyCone
from .rational import MEMO_SIZE, Mat, Vec, rank

FEAS_TOL = 1e-9


@functools.lru_cache(maxsize=MEMO_SIZE)
def _projection_data(a_rows: Mat, b_rows: Vec, dim: int):
    """Float rows of {x : a x <= b} plus, per nonempty face, its independent
    rows and the pseudoinverse solving the projection onto its affine hull,
    in (size, index) order of the rows, so near-ties go to the fewest rows;
    memoized on the exact rows, which the grids revisit thousands of
    times."""
    m = len(a_rows)
    a = np.array([[float(x) for x in row] for row in a_rows], dtype=float).reshape(m, dim)
    b = np.array([float(x) for x in b_rows], dtype=float)
    bases = []
    for key, _ in ConvexPolyhedron(a_rows, b_rows, dim=dim).faces():
        idx: list[int] = []
        for i in sorted(key):
            if rank(tuple(a_rows[j] for j in idx + [i])) > len(idx):
                idx.append(i)
        if idx:  # else the face is all of a full-dimensional P, and z is outside
            bases.append(idx)
    subs = []
    for idx in sorted(bases, key=lambda idx: (len(idx), idx)):
        asub = a[idx]
        subs.append((asub, b[idx], asub.T @ np.linalg.pinv(asub @ asub.T, rcond=1e-12)))
    for arr in (a, b, *(x for sub in subs for x in sub)):
        arr.flags.writeable = False  # every caller of the memo shares them
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    return a, b, tuple(subs), scale


def project_polyhedron(z, poly: ConvexPolyhedron) -> np.ndarray:
    """Nearest point of poly to z.

    Raises ValueError on an empty polyhedron.
    """
    z = np.asarray(z, dtype=float)
    if poly._projection is None:  # looked up once per object: the key hashes every row
        poly._projection = _projection_data(poly.a, poly.b, poly.dim)
    a, b, subs, scale = poly._projection
    if poly.m == 0 or np.max(a @ z - b) <= FEAS_TOL * scale:
        return z.copy()
    best: tuple[float, np.ndarray] | None = None
    for asub, bsub, solve_t in subs:
        x = z - solve_t @ (asub @ z - bsub)
        if np.max(a @ x - b) > FEAS_TOL * scale:
            continue
        d = float(np.linalg.norm(x - z))
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    if best is None:
        raise ValueError("projection onto empty polyhedron")
    return best[1]


def distance_to_polyhedron(z, poly: ConvexPolyhedron) -> float:
    return float(np.linalg.norm(project_polyhedron(z, poly) - np.asarray(z, dtype=float)))


def project_cone(z, cone: PolyCone) -> np.ndarray:
    """Projection onto a polyhedral cone via its inequality form."""
    return project_polyhedron(z, cone_polyhedron(cone))


def distance_to_cone(z, cone: PolyCone) -> float:
    z = np.asarray(z, dtype=float)
    return float(np.linalg.norm(project_cone(z, cone) - z))
