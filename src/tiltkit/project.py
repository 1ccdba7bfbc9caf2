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

from .polyhedra import ConvexPolyhedron
from .rational import MEMO_SIZE, rank

FEAS_TOL = 1e-9


@functools.lru_cache(maxsize=MEMO_SIZE)
def _projection_data(poly: ConvexPolyhedron):
    """Float rows of poly; per nonempty face, its independent rows and the
    pseudoinverse solving the projection onto its affine hull, in (size,
    index) order of the rows, so near-ties go to the fewest rows; the
    largest |b_i|, to which the feasibility tolerances scale.  Memoized on
    the polyhedron, which compares by its rows, so the grids' thousands of
    calls, and equal polyhedra built apart, share one entry."""
    a, b = (np.array(rows, dtype=float) for rows in poly.to_float_rows())
    a = a.reshape(poly.m, poly.dim)
    bases = []
    for key, _ in poly.faces():
        idx: list[int] = []
        for i in sorted(key):
            if rank(tuple(poly.a[j] for j in idx + [i])) > len(idx):
                idx.append(i)
        if idx:  # else the face is all of a full-dimensional P, and z is outside
            bases.append(idx)
    subs = []
    for idx in sorted(bases, key=lambda idx: (len(idx), idx)):
        asub = a[idx]
        subs.append((asub, b[idx], asub.T @ np.linalg.pinv(asub @ asub.T, rcond=1e-12)))
    for arr in (a, b, *(x for sub in subs for x in sub)):
        arr.flags.writeable = False  # every caller of the memo shares them
    return a, b, tuple(subs), float(np.max(np.abs(b), initial=0.0))


def _matvec(a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Every product here is a stacked matvec and every norm sqrt(d @ d) by stacked matmul
    (row_norms): these round as the one-point a @ z and norm(d), so the floats match."""
    return (a @ zs[:, :, None])[:, :, 0]


def row_norms(ds: np.ndarray) -> np.ndarray:
    return np.sqrt(ds[:, None, :] @ ds[:, :, None])[:, 0, 0]


def project_polyhedron(z: np.ndarray, poly: ConvexPolyhedron) -> np.ndarray:
    """Nearest point of poly to each row of an (m, n) array z.

    Raises ValueError on an empty polyhedron.
    """
    out = np.array(z, dtype=float)
    a, b, subs, b_max = _projection_data(poly)
    tol = FEAS_TOL * (1.0 + b_max)
    rows = np.flatnonzero(np.max(_matvec(a, out) - b, axis=1, initial=-np.inf) > tol)
    zs = out[rows]
    # a candidate's tolerance shrinks with z and b, so near a cone's apex no
    # candidate a few FEAS_TOL outside the cone beats the true projection
    cand_tol = tol * np.minimum(1.0, np.max(np.abs(zs), axis=1, initial=0.0) + b_max)
    best, found = np.full(len(rows), np.inf), np.zeros(len(rows), dtype=bool)
    for asub, bsub, solve_t in subs:
        xs = zs - _matvec(solve_t, _matvec(asub, zs) - bsub)
        d = row_norms(xs - zs)
        take = (np.max(_matvec(a, xs) - b, axis=1) <= cand_tol) & (~found | (d < best - 1e-15))
        best[take], found[take], out[rows[take]] = d[take], True, xs[take]
    if not found.all():
        raise ValueError("projection onto empty polyhedron")
    return out


def distance_to_polyhedron(z: np.ndarray, poly: ConvexPolyhedron) -> np.ndarray:
    """d(z_i; poly) for each row z_i of an (m, n) array z."""
    return row_norms(project_polyhedron(z, poly) - z)
