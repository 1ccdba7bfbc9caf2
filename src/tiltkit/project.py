"""Euclidean projections onto polyhedra and cones (float path).

The nearest point in {Ax <= b} is found by enumerating candidate active
sets of size up to n: the true projection is the equality-constrained
projection onto the affine span of its own active set, so the best
feasible candidate over all such subsets is exact up to floating error.
Row counts are tiny by contract; a guard rejects larger inputs.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .polyhedra import MAX_ROWS, ConvexPolyhedron
from .cones import PolyCone
from .rational import MEMO_SIZE, Mat, Vec, zeros

FEAS_TOL = 1e-9
KKT_TOL = 1e-12


@functools.lru_cache(maxsize=MEMO_SIZE)
def _projection_data(a_rows: Mat, b_rows: Vec, dim: int):
    """Float rows of {x : a x <= b} plus, per candidate active subset, the
    pseudoinverse solving the equality-constrained projection; memoized on
    the exact rows, which the grids revisit thousands of times."""
    m = len(a_rows)
    a = np.array([[float(x) for x in row] for row in a_rows], dtype=float).reshape(m, dim)
    b = np.array([float(x) for x in b_rows], dtype=float)
    subs = []
    for k in range(1, min(dim, m) + 1):
        for subset in itertools.combinations(range(m), k):
            idx = list(subset)
            asub = a[idx]
            gram = asub @ asub.T
            pinv = np.linalg.pinv(gram, rcond=1e-12)
            subs.append((idx, asub, b[idx], asub.T @ pinv,
                         float(np.max(np.abs(gram @ pinv @ gram - gram)))))
    for arr in (a, b, *(x for sub in subs for x in sub[1:4])):
        arr.flags.writeable = False  # every caller of the memo shares them
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    return a, b, tuple(subs), scale


def project_polyhedron(z, poly: ConvexPolyhedron) -> tuple[np.ndarray, float]:
    """(nearest point of poly to z, KKT residual).

    Raises ValueError on an empty polyhedron.
    """
    if poly.m > MAX_ROWS:
        raise ValueError(f"projection guard: {poly.m} rows > {MAX_ROWS}")
    z = np.asarray(z, dtype=float)
    a, b, subs, scale = _projection_data(poly.a, poly.b, poly.dim)
    best: tuple[float, np.ndarray] | None = None
    if poly.m == 0 or np.max(a @ z - b) <= FEAS_TOL * scale:
        return z.copy(), 0.0
    for idx, asub, bsub, solve_t, _ in subs:
        x = z - solve_t @ (asub @ z - bsub)
        if np.max(np.abs(asub @ x - bsub)) > 1e-7 * scale:
            continue  # inconsistent subset for this z
        if np.max(a @ x - b) > FEAS_TOL * scale:
            continue
        d = float(np.linalg.norm(x - z))
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    if best is None:
        raise ValueError("projection onto empty polyhedron")
    x = best[1]
    resid = kkt_residual(z, x, poly)
    return x, resid


def kkt_residual(z, x, poly: ConvexPolyhedron, active_tol: float = 1e-8) -> float:
    """Distance of z - x to the cone of nearly-active outward normals."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    if poly.m == 0:
        return float(np.linalg.norm(z - x))
    a, b, _, _ = _projection_data(poly.a, poly.b, poly.dim)
    act = [i for i in range(poly.m) if a[i] @ x > b[i] - active_tol * (1.0 + abs(b[i]))]
    v = z - x
    if not act:
        return float(np.linalg.norm(v))
    g = a[act]
    lam, *_ = np.linalg.lstsq(g.T, v, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.linalg.norm(g.T @ lam - v))


def distance_to_polyhedron(z, poly: ConvexPolyhedron) -> float:
    return float(np.linalg.norm(project_polyhedron(z, poly)[0] - np.asarray(z, dtype=float)))


def project_cone(z, cone: PolyCone) -> tuple[np.ndarray, float]:
    """Projection onto a polyhedral cone via its inequality form."""
    return project_polyhedron(z, ConvexPolyhedron(cone.ineqs, zeros(len(cone.ineqs)),
                                                  dim=cone.dim))


def cone_contains_float(cone: PolyCone, z, tol: float = 1e-12) -> bool:
    z = np.asarray(z, dtype=float)
    if not len(cone.ineqs):
        return True
    g = np.array([[float(x) for x in row] for row in cone.ineqs])
    return bool(np.max(g @ z) <= tol * (1.0 + float(np.linalg.norm(z))))


def distance_to_cone(z, cone: PolyCone) -> float:
    z = np.asarray(z, dtype=float)
    if cone_contains_float(cone, z):
        return 0.0
    return float(np.linalg.norm(project_cone(z, cone)[0] - z))

