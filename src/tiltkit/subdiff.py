"""First-order objects: subdifferentials, their inverses, and distances.

For the exact class the limiting subdifferential is gradient + limiting
normal cone of the domain (the sum rule is an identity here): the values of
the global cells `FunctionSpec.cells` whose closure holds x.  An inverse
image is the slice of `FunctionSpec.graph`, built from the same cells.  The
analytic 1-D path returns certified interval enclosures from derivative
limit sampling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .cones import PolyCone, dedupe
from .model import AnalyticFixture1D, FunctionSpec, ValidationError, scalar
from .polyhedra import ConvexPolyhedron
from .project import distances_to_unions, row_floats, row_norms
from .rational import F1, Vec, int_row, int_scaled, sub, to_float, vec


class EmptySliceError(ValueError):
    """Inverse image is empty inside the requested box (not distance 0)."""


@dataclass(frozen=True)
class ExactSubdifferential:
    """base + the union of `cones`, a `cones.dedupe` tuple; membership is exact."""
    base: Vec
    cones: tuple[PolyCone, ...]

    def contains(self, v) -> bool:
        w = sub(vec(v), self.base)
        return any(c.contains(w) for c in self.cones)


def holds_at_each(cones, g, e, ps) -> list[bool]:
    """Is v in g/e + the union of cones, e > 0, for each p of ps the ints of (v, 1)
    up to a positive factor?  v - g/e is a positive multiple of e p' - p_t g."""
    return [any(c.holds_at([e * a - p[-1] * b for a, b in zip(p, g)]) for c in cones)
            for p in ps]


@dataclass(frozen=True)
class Interval1D:
    """Certified enclosure [lo, hi] of a 1-D subdifferential value."""
    lo: float
    hi: float
    tol: float = 1e-9

    def contains(self, v) -> bool:
        return self.lo - self.tol <= scalar(v) <= self.hi + self.tol


def subdifferential(f: FunctionSpec, x) -> ExactSubdifferential | Interval1D:
    """The limiting subdifferential at x: for the exact class, the gradient
    plus the values of the global cells whose closure holds x."""
    if not f.is_exact:
        if not f.in_domain(scalar(x)):
            raise ValidationError("point is outside the domain")
        return _analytic_subdifferential(f, x)
    x = vec(x)
    if len(x) != f.dim:
        raise ValidationError("dimension mismatch")
    return ExactSubdifferential(f.smooth.gradient(x), _cones_at(f, int_row(x + (F1,))))


def _cones_at(f: FunctionSpec, p) -> tuple[PolyCone, ...]:
    """The values of the global cells whose closure holds x, tested with the
    domain on p, the ints of (x, 1) up to a positive factor."""
    if not f.domain.holds_at(p):
        raise ValidationError("point is outside the domain")
    return dedupe([c.value for c in f.cells if c.closure.holds_at(p)], f.dim)


def subdifferential_distance(f: FunctionSpec, xs, ys) -> np.ndarray:
    """d(y; subdifferential at x) of the exact variant, x by y, over int rows
    (x, t), t > 0: grad f(x) is g / e, g = Qn x + cn t, e = l t, for
    [Qn | cn] = l [Q | c].  0 where y is in the set, tested on the rows;
    elsewhere the float distance (`distances_to_unions`), at most ~1e-10
    above the true one, and 0 where y - grad f(x) is within FEAS_TOL of a
    nontrivial cone on each of its primitive int rows: near a wedge's apex,
    a y 3.5e-10 outside the set reads 0."""
    if any(len(y) != f.dim + 1 for y in ys):
        raise ValueError(f"dimension mismatch: subgradients of R^{f.dim} take rows (y, t)")
    l, qc = int_scaled([[*row, ci] for row, ci in zip(f.smooth.q, f.smooth.c)])
    yfs = row_floats(ys, f.dim)
    out = np.zeros((len(xs), len(ys)))
    far = []
    for i, p in enumerate(xs):
        cones = _cones_at(f, p)
        g, e = [sum(map(operator.mul, row, p)) for row in qc], l * p[-1]
        js = np.flatnonzero(np.logical_not(holds_at_each(cones, g, e, ys)))
        ws = yfs[js] - np.array([gi / e for gi in g])
        polys = [c.polyhedron for c in cones if not c.is_trivial()]
        if not polys:  # the cones are {0}, which dedupe keeps only alone
            out[i, js] = row_norms(ws)
        elif len(js):
            far.append((i, js, (ws, polys)))
    for (i, js, _), d in zip(far, distances_to_unions([r for _, _, r in far])):
        out[i, js] = d
    return out


# -- analytic path --------------------------------------------------------------


# Floats of the analytic path only: a point within POINT_TOL of an exceptional
# point or a domain end is that point; root bisection stops at BISECT_TOL width.
POINT_TOL = 1e-12
BISECT_TOL = 1e-12
BISECT_STEPS = 80
ENCLOSURE_SAMPLES = 10_000  # derivative samples behind an exceptional point's enclosure
INVERSE_GRID = 20001  # bracketing grid of analytic_inverse_points


def _analytic_subdifferential(fx: AnalyticFixture1D, x) -> Interval1D:
    t = scalar(x)
    if any(abs(t - e) < POINT_TOL for e in fx.exceptional):
        return _exceptional_enclosure(fx, t)
    d = float(fx.derivative(t))
    # domain boundary: one-sided linearizations open the interval
    return Interval1D(d if t > fx.lo + POINT_TOL else -math.inf,
                      d if t < fx.hi - POINT_TOL else math.inf)


def analytic_distances(fx: AnalyticFixture1D, xs, v: float) -> np.ndarray:
    """d(v; subdifferential at x) for each x of xs, in one array pass over
    the derivative; exceptional and boundary points take their enclosure."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((fx.lo <= xs) & (xs <= fx.hi)):
        raise ValidationError("point is outside the domain")
    lo = np.array(fx.derivative(xs), dtype=float)  # a copy: a derivative may return xs
    hi = lo.copy()
    special = (xs <= fx.lo + POINT_TOL) | (xs >= fx.hi - POINT_TOL)
    for e in fx.exceptional:
        special |= np.abs(xs - e) < POINT_TOL
    for i in np.flatnonzero(special):
        sd = _analytic_subdifferential(fx, xs[i])
        lo[i], hi[i] = sd.lo, sd.hi
    return np.maximum(np.maximum(lo - v, v - hi), 0.0)  # d(v; [lo, hi])


def _exceptional_enclosure(fx: AnalyticFixture1D, t: float) -> Interval1D:
    """Hull of derivative cluster values on geometric approach sequences of
    ENCLOSURE_SAMPLES points, widened by domain-boundary one-sided behavior.
    An enclosure, not an exact value."""
    ratio = (1e-8) ** (2.0 / ENCLOSURE_SAMPLES)
    offsets = 0.05 * np.power(ratio, np.arange(ENCLOSURE_SAMPLES // 2))
    xs = t + np.concatenate([offsets, -offsets])
    xs = xs[(xs > fx.lo + 1e-300) & (xs < fx.hi) & (np.abs(xs - t) > 1e-14)]
    vals = np.asarray(fx.derivative(xs), dtype=float)
    lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (math.inf, -math.inf)
    lo = -math.inf if abs(t - fx.lo) < POINT_TOL else lo
    hi = math.inf if abs(t - fx.hi) < POINT_TOL else hi
    return Interval1D(lo, hi, tol=1e-6)


def stationary_points_1d(fixture: AnalyticFixture1D, interval: tuple[float, float],
                         grid_density: int, target: float = 0.0) -> list[float]:
    """Roots of derivative == target inside the interval: sign-change
    bracketing on a uniform grid, then all brackets bisected at once, each
    until its midpoint is a root, its width is below BISECT_TOL or
    BISECT_STEPS have run."""
    xs = np.linspace(*interval, grid_density)
    ds = np.asarray(fixture.derivative(xs), dtype=float) - target
    sign = np.sign(ds)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    a, b, fa = xs[i], xs[i + 1], ds[i]
    live = np.ones(len(i), dtype=bool)
    for _ in range(BISECT_STEPS):
        m = 0.5 * (a + b)
        fm = np.asarray(fixture.derivative(m), dtype=float) - target
        live &= (fm != 0.0) & ~(b - a < BISECT_TOL)
        if not live.any():
            break
        left = live & ((fa < 0) == (fm < 0))
        a, fa, b = np.where(left, m, a), np.where(left, fm, fa), np.where(live & ~left, m, b)
    roots = [*(0.5 * (a + b)).tolist(), *xs[ds == 0.0].tolist()]
    return sorted(set(roots))


def analytic_inverse_points(fixture: AnalyticFixture1D, vstar: float,
                            center: float, radius: float) -> list[float]:
    """Points x near `center` with vstar in the subdifferential enclosure:
    the roots of derivative == vstar, then each exceptional point and finite
    domain end whose `_analytic_subdifferential` holds vstar."""
    lo = max(center - radius, fixture.lo)
    hi = min(center + radius, fixture.hi)
    pts = []
    if hi > lo:
        eps = (hi - lo) * 1e-9
        pts = stationary_points_1d(fixture, (lo + eps, hi - eps), INVERSE_GRID,
                                   target=vstar)
    for e in {*fixture.exceptional, fixture.lo, fixture.hi}:
        if math.isfinite(e) and lo <= e <= hi and \
                _analytic_subdifferential(fixture, e).contains(vstar):
            pts.append(e)
    return sorted(set(pts))


# -- inverse images (exact path) -------------------------------------------------


@dataclass(frozen=True)
class InverseSlice:
    """(subdifferential)^{-1}(v) intersected with a bounding box, as an
    exact finite union of polyhedra."""
    v: Vec
    box: ConvexPolyhedron
    pieces: tuple[ConvexPolyhedron, ...]

    def contains(self, x) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces


def inverse_image(f: FunctionSpec, v, box: ConvexPolyhedron) -> InverseSlice:
    """All x in box with v in the subdifferential at x.

    The inverse image is the slice of the subgradient graph at y = v, so
    per graph piece it is the polyhedron `piece.slice(v)`, kept when the
    piece's `shadow` on the box, built once per box and kept on f, holds at
    the ints of (v, 1); slice and box meet on int rows.  Cached on f per (v,
    box): the estimators revisit the same tilted subgradients many times.
    """
    if not f.is_exact:
        raise ValidationError("inverse_image needs the exact variant "
                              "(use analytic_inverse_points)")
    v = vec(v)
    hit = f._inverse_images.get((v, box))
    if hit is None:
        shadows = f._inverse_images.get(box)
        if shadows is None:
            shadows = f._inverse_images[box] = [piece.shadow(box) for piece in f.graph]
        p = int_row(v + (F1,))
        hit = f._inverse_images[v, box] = InverseSlice(v, box, tuple(
            piece.slice(v).intersect(box) for piece, s in zip(f.graph, shadows) if s.holds_at(p)))
    return hit


def distance_to_inverse(slice_: InverseSlice, x: np.ndarray) -> np.ndarray:
    """min distance from each row of an (m, n) array x to the inverse slice; raises
    EmptySliceError when it has no pieces (reported distinctly, never 0)."""
    if slice_.is_empty():
        raise EmptySliceError(f"inverse image of {to_float(slice_.v)} misses the box")
    return distances_to_unions([(x, slice_.pieces)])[0]
