"""Moduli estimation and inequality checking: metric (sub)regularity,
quadratic growth, prox-type lower estimates, uniform growth, localization
single-valuedness, and tilt stability.

Estimates are deterministic lattice suprema/infima, stated as grid
bounds, never certified global moduli.  The moduli share one refinement
rule: the grid is refined until two successive suprema agree to 2%
relative (REFINE_TOL), and the flag `converged` says whether they did.
Graph samples are exact: the reference pair plus the ball points of the
graph pieces around it, as inverse slices get theirs (_ball_points).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .hessian import second_order_map
from .model import FunctionSpec, ProblemInstance, ValidationError, evaluate_exact
from .polyhedra import ConvexPolyhedron
from .project import row_norms
from .rational import (MEMO_SIZE, Vec, add, combine, dot, frac, int_row, mat, matvec, neg,
                       norm_sq, solve_affine, sub, to_float, vec, zeros)
from .subdiff import (EmptySliceError, analytic_distances, analytic_inverse_points,
                      distance_to_inverse, inverse_image, subdifferential_distance)

TIE_TOL = 1e-9
DIST_TOL = 1e-10
SOLUTION_TOL = 1e-12  # analytic path only: a grid point this near a solution is one


# -- grids ---------------------------------------------------------------------


def ball_lattice(center: Vec, radius: Fraction, per_axis: int) -> list[Vec]:
    """Rational lattice on the box, filtered to the Euclidean ball (exact):
    center + o radius / m over int offsets o in {-m, -m + 2, ..., m}^n,
    m = per_axis - 1, kept when |o|^2 <= m^2."""
    return domain_lattice(None, center, radius, per_axis)


ZOOM_SCALES = 13  # shrunken copies at ratios 1/2 .. 1/2^13


def domain_lattice(f: FunctionSpec | None, center: Vec, radius: Fraction, per_axis: int,
                   scales: int = 0) -> list[Vec]:
    """The `ball_lattice` points in f's domain (all of them when f is None),
    then each of them shrunk by 1/2^k toward the center, k = 1..scales, when
    new and in the domain.  Prox-type inequalities fail asymptotically close
    to the reference point; a fixed-pitch lattice cannot see that, shrunken
    copies can.  A point is ints until kept: with center c / den and ball
    offsets o, the k-th copy is (2^k c + o) / (2^k den), its ints tested once
    against the domain's int rows."""
    m = per_axis - 1
    step = frac(radius) / m
    den = math.lcm(step.denominator, *(x.denominator for x in center))
    c, s = [int(x * den) for x in center], int(step * den)
    offsets = [[o * s for o in off]
               for off in itertools.product(range(-m, m + 1, 2), repeat=len(c))
               if sum(o * o for o in off) <= m * m]
    out, seen = [], set()
    for k in range(scales + 1):
        pts = [[(a << k) + b for a, b in zip(c, o)] for o in offsets]
        keep = [f is None or f.domain.holds_at(p + [den << k]) for p in pts]
        if k == 0:  # the copies shrink the points kept here
            offsets = list(itertools.compress(offsets, keep))
        for p in itertools.compress(pts, keep):
            x = tuple(Fraction(a, den << k) for a in p)
            if x not in seen:
                seen.add(x)
                out.append(x)
    return out


def _refinement_schedule(base: int, levels: int) -> list[int]:
    """base, then each level's count with a midpoint between neighbors."""
    return [(base - 1) * 2 ** k + 1 for k in range(levels)]


# -- graph sampling -------------------------------------------------------------


def graph_point_samples(f: FunctionSpec, xbar: Vec, xstar: Vec,
                        radius: Fraction) -> list[tuple[Vec, Vec]]:
    """Exact points of gph of the subdifferential within the radius ball
    around the reference pair: the pair itself, then the ball points of the
    graph pieces (see _ball_points)."""
    n = f.dim
    base = tuple(xbar) + tuple(xstar)
    pieces = second_order_map(f, xbar, xstar).model.pieces
    pts = [base] + [p for p in _ball_points(pieces, base, frac(radius)) if p != base]
    return [(p[:n], p[n:]) for p in pts]


# -- reports ---------------------------------------------------------------------


@dataclass
class ModulusEstimate:
    value: float
    converged: bool
    witness: tuple | None
    history: list[float] = field(default_factory=list)
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class CheckOutcome:
    passed: bool
    violations: list
    worst: float
    checked: int


@dataclass
class LocalizationReport:
    holds_on_grid: bool
    witness_tilt: tuple | None
    witness_points: list
    lipschitz: float | None


@dataclass
class TiltReport:
    verdict: str  # "stable" | "unstable"
    modulus: float | None
    witness_tilt: tuple | None
    witness_minimizers: list


# -- growth and lower inequalities ------------------------------------------------


def _inverse_box(inst: ProblemInstance) -> ConvexPolyhedron:
    return ConvexPolyhedron.box(inst.xbar, inst.params.box_halfwidth)


# Every inequality below reads lhs >= base + c/2 * k on each sample, with
# k >= 0 and c = alpha for quadratic growth or c = -r for the lower
# prox-type estimates; a sample violates it when base + c/2 * k - lhs
# exceeds TIE_TOL.  Both checks evaluate that at one constant in one loop,
# _outcome; the closed forms take the extreme ratio of lhs - base to k/2
# over the same samples.  TIE_TOL stays out of the ratios: folding it in
# lifts alpha-hat from 0 to ~2e-7 on flat directions.

ALPHA_CAP = 2.0 ** 16
ALPHA_POINTS = 2001
R_CAP = 4096.0
PROX_GRID = 7
VIOLATIONS_KEPT = 50


def _values(f: FunctionSpec, points) -> np.ndarray:
    """float(evaluate_exact(f, x)) for each point x of the domain: f(x) is
    (x, 1)' M (x, 1) / 2 with M = [[Q, c], [c', 2d]], so with M = N / l and
    p the ints of (x, 1), it is the int p' N p over 2 l p_t^2, and int / int
    rounds as float(Fraction) does."""
    sm = f.smooth
    m = [[*row, ci] for row, ci in zip(sm.q, sm.c)] + [[*sm.c, 2 * sm.d]]
    l = math.lcm(*(x.denominator for row in m for x in row))
    m = [[int(x * l) for x in row] for row in m]
    out = []
    for x in points:
        p = int_row(tuple(x) + (1,))
        out.append(sum(a * sum(map(operator.mul, row, p)) for a, row in zip(p, m))
                   / (2 * l * p[-1] ** 2))
    return np.array(out)


def _floats(points, n: int) -> np.ndarray:
    return np.array([to_float(p) for p in points], dtype=float).reshape(len(points), n)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=1)


def _gaps(sols: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Distance from each x of xs to the nearest of the sorted sols, a neighbor of x."""
    j = np.searchsorted(sols, xs)
    return np.minimum(np.abs(sols[np.maximum(j - 1, 0)] - xs),
                      np.abs(sols[np.minimum(j, len(sols) - 1)] - xs))


GROWTH_MODES = ("norm-squared", "distance-squared")


def _growth_terms(inst: ProblemInstance, mode: str, eta, per_axis: int,
                  n_points: int = ALPHA_POINTS):
    """(points, base, lhs, k) of the growth inequality on the eta-ball grid:
    lhs = f(x), base = f(xbar) + <xstar, x - xbar>, k = D(x)^2."""
    if mode not in GROWTH_MODES:
        raise ValidationError(f"unknown mode {mode!r}; options {GROWTH_MODES}")
    if not inst.f.is_exact:
        fx = inst.f.fixture
        eta = float(eta)
        x0, v0 = float(inst.xbar[0]), float(inst.xstar[0])
        xs = np.linspace(max(x0 - eta, fx.lo), min(x0 + eta, fx.hi), n_points)
        if mode == "norm-squared":
            k = np.square(xs - x0)
        else:
            sols = analytic_inverse_points(fx, v0, x0, 4 * eta)
            if not sols:
                raise EmptySliceError("no solutions of the stationarity inclusion nearby")
            k = np.square(_gaps(np.array(sols), xs))
        f0 = float(fx.value(x0)) if fx.in_domain(x0) else math.inf
        return xs[:, None], f0 + v0 * (xs - x0), np.asarray(fx.value(xs), dtype=float), k
    try:
        eta = frac(eta)
    except (TypeError, ValueError):
        raise ValidationError(f"the exact path takes eta as an int, a Fraction or a "
                              f"'p/q' string, got {eta!r}") from None
    f = inst.f
    grid = domain_lattice(f, inst.xbar, eta, per_axis)
    pts = _floats(grid, f.dim)
    xbar_f = np.array(to_float(inst.xbar))
    base = float(evaluate_exact(f, inst.xbar)) + \
        _rowdot(pts - xbar_f, np.array(to_float(inst.xstar)))
    lhs = _values(f, grid)
    if mode == "distance-squared":
        slice_ = inverse_image(f, inst.xstar, _inverse_box(inst))
        d = distance_to_inverse(slice_, pts)
    else:
        d = row_norms(pts - xbar_f)
    return pts, base, lhs, d * d


def check_growth(inst: ProblemInstance, alpha, mode: str,
                 eta=None, per_axis: int | None = None,
                 n_points: int | None = None) -> CheckOutcome:
    """Checks f(x) >= f(xbar) + <xstar, x-xbar> + alpha/2 * D(x)^2 on a grid
    in the eta-ball, D = distance to the solution set ("distance-squared")
    or to the reference point ("norm-squared")."""
    eta = inst.params.eta if eta is None else eta
    pts, base, lhs, k = _growth_terms(inst, mode, eta, per_axis or inst.params.grid,
                                      n_points or 100_001)
    return _outcome([(base, lhs, k, (), pts)], float(alpha))


def growth_alpha_hat(inst: ProblemInstance, mode: str) -> float:
    """Largest alpha with zero grid violations, in closed form: the least
    ratio of f(x) - f(xbar) - <xstar, x-xbar> to D(x)^2/2 over the grid
    (analytic variant: ALPHA_POINTS points), clipped to [0, ALPHA_CAP];
    -inf when the inequality already fails at alpha = 0."""
    _, base, lhs, k = _growth_terms(inst, mode, inst.params.eta, inst.params.grid)
    if np.any(lhs < base - TIE_TOL):
        return -math.inf
    far = k > 0
    alpha = float(np.min((lhs - base)[far] / (0.5 * k[far]))) if far.any() else math.inf
    return min(max(alpha, 0.0), ALPHA_CAP)


PROX_MODES = ("3.1", "3.3", "3.10", "2.8", "3.13", "3.15")


def _prox_terms(inst: ProblemInstance, mode: str, per_axis: int):
    """Blocks (base, lhs, k, head, points) of the lower inequality
    lhs >= base - r/2 * k; sample i of a block is named by head plus
    points[i].  See check_lower_prox_inequality for the modes."""
    if mode not in PROX_MODES:
        raise ValidationError(f"unknown mode {mode!r}; options {PROX_MODES}")
    if not inst.f.is_exact:
        raise ValidationError("prox-type checks need the exact variant")
    f = inst.f
    n = f.dim
    eta = inst.params.eta
    xbar_f = np.array(to_float(inst.xbar))
    fbar = float(evaluate_exact(f, inst.xbar))
    if mode == "3.1":
        xs, base, lhs, k = _growth_terms(inst, "distance-squared", eta, per_axis)
        yield base, lhs, k, (), xs
        return

    pairs = graph_point_samples(f, inst.xbar, inst.xstar, eta)
    xs = _floats([x for x, _ in pairs], n)
    ss = _floats([s for _, s in pairs], n)
    fxs = _values(f, [x for x, _ in pairs])
    if mode == "3.3":
        slice_ = inverse_image(f, inst.xstar, _inverse_box(inst))
        d2 = np.square(distance_to_inverse(slice_, xs))
        for u in _ball_points(slice_.pieces, inst.xbar, eta):
            uf = np.array(to_float(u))
            yield (fxs + _rowdot(ss, uf - xs), np.full(len(xs), float(evaluate_exact(f, u))),
                   d2, (tuple(map(float, uf)),), xs)
        return
    if mode == "3.10":
        yield (fxs + _rowdot(ss, xbar_f - xs), np.full(len(xs), fbar),
               np.sum(np.square(xs - xbar_f), axis=1), (), xs)
        return

    # modes 2.8 / 3.15 / 3.13: full two-point neighborhood inequalities;
    # the x-grid is densified geometrically toward the reference point,
    # where prox failures concentrate
    zoomed = domain_lattice(f, inst.xbar, eta, per_axis, ZOOM_SCALES)
    zs = _floats(zoomed, n)
    fzs = _values(f, zoomed)
    xstar_f = np.array(to_float(inst.xstar))
    for uf, usf, fu in zip(xs, ss, fxs):
        if mode == "2.8" and (float(np.linalg.norm(usf - xstar_f)) > float(eta)
                              or abs(fu - fbar) > float(eta)):
            continue
        k = np.zeros(len(zs)) if mode == "3.13" else np.sum(np.square(zs - uf), axis=1)
        yield (fu + _rowdot(zs - uf, usf), fzs, k,
               (tuple(map(float, uf)), tuple(map(float, usf))), zs)


def check_lower_prox_inequality(inst: ProblemInstance, beta, mode: str,
                                per_axis: int | None = None) -> CheckOutcome:
    """Lower quadratic estimates along subgradients.

    Modes: "3.1" reference-point lower growth with squared distance to the
    solution set; "3.3" the same along solution/graph pairs; "3.10"
    reference-side estimate along graph pairs; "2.8" the prox-regularity
    inequality; "3.15" its two-sided neighborhood version; "3.13" the
    plain subgradient inequality (r = 0 case of "3.15").
    """
    return _outcome(_prox_terms(inst, mode, per_axis or inst.params.grid), -float(beta))


def _outcome(blocks, c: float) -> CheckOutcome:
    """The check of lhs >= base + c/2 * k on each sample of the blocks
    (base, lhs, k, head, points), keeping the first VIOLATIONS_KEPT
    violations; c = alpha for growth, c = -r for the lower estimates."""
    violations = []
    worst = 0.0
    checked = 0
    for base, lhs, k, head, pts in blocks:
        rhs = base + 0.5 * c * k
        vio = rhs - lhs
        checked += len(vio)
        worst = max(worst, float(vio.max(initial=0.0)))
        for i in np.nonzero(vio > TIE_TOL)[0][:VIOLATIONS_KEPT - len(violations)]:
            pt = tuple(map(float, pts[i]))
            violations.append((head + (pt,) if head else pt, float(lhs[i]), float(rhs[i])))
    return CheckOutcome(not violations, violations, worst, checked)


def minimal_prox_r(inst: ProblemInstance, mode: str = "2.8") -> tuple[float, CheckOutcome]:
    """Smallest r passing the chosen lower inequality on the grid, in closed
    form: the largest ratio of the r = 0 violation to k/2 over the samples
    violating at r = 0.  math.inf when such a sample has k = 0 or the
    ratio exceeds R_CAP (not prox-regular there); the outcome is then the
    check at R_CAP."""
    blocks = list(_prox_terms(inst, mode, PROX_GRID))
    r = 0.0
    for base, lhs, k, _, _ in blocks:
        slack = base - lhs
        hot = slack > TIE_TOL
        if np.any(k[hot] <= 0):
            r = math.inf
            break
        if hot.any():
            r = max(r, float(np.max(slack[hot] / (0.5 * k[hot]))))
    if r > R_CAP:
        r = math.inf
    return r, _outcome(blocks, -min(r, R_CAP))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _ball_points(pieces: tuple[ConvexPolyhedron, ...], center: Vec,
                 radius: Fraction) -> tuple[Vec, ...]:
    """Vertices, vertex midpoints and a relative-interior point (the
    vertex barycenter) of each piece clipped to the box around center, kept
    when inside the radius ball: the rational points of an inverse slice or
    of graph pieces near a point.  Memoized on the pieces, which compare by
    their rows, the center and the radius."""
    rr = radius ** 2
    pts: list[Vec] = []
    box = ConvexPolyhedron.box(center, radius)
    for piece in pieces:
        clipped = piece.intersect(box)
        vs, _, _ = clipped.vrep()
        if not vs:
            continue
        cand = list(vs)
        for pq in itertools.combinations(vs, 2):
            cand.append(tuple((a + b) / 2 for a, b in zip(*pq)))
        cand.append(clipped.relint_point())
        for v in cand:
            if norm_sq(sub(v, center)) <= rr and v not in pts:
                pts.append(v)
    return tuple(pts)


# -- moduli -----------------------------------------------------------------------


REFINE_TOL = 0.02


def _coarse(p) -> int:
    """Per-axis count of the subgradient and tilt grids, coarser than the
    x-grid since each of their points costs an inverse image or a solve."""
    return max(3, p.grid // 2 + 1)


class _Unbounded(Exception):
    """Raised by a sweep to end the refinement at an unbounded ratio;
    args are (witness, failure text)."""


def _sup(samples) -> tuple[float, tuple | None]:
    """(largest positive value, first witness attaining it) over (value,
    witness) samples; (0.0, None) when no value is positive."""
    best, witness = 0.0, None
    for value, at in samples:
        if value > best:
            best, witness = value, at
    return best, witness


def _refine(levels, sweep) -> ModulusEstimate:
    """Runs sweep(level) -> (supremum, witness) over the refinement levels
    until two successive suprema agree to REFINE_TOL relative.  A level
    without a witness keeps the last one found; a sweep raising _Unbounded
    ends the run at value inf, not converged."""
    history: list[float] = []
    witness = None
    for level in levels:
        try:
            best, found = sweep(level)
        except _Unbounded as e:
            return ModulusEstimate(math.inf, False, e.args[0], history, e.args[1])
        history.append(best)
        witness = witness if found is None else found
        if len(history) > 1 and abs(best - history[-2]) <= REFINE_TOL * max(best, 1e-300):
            return ModulusEstimate(best, True, witness, history)
    return ModulusEstimate(history[-1], False, witness, history)


def _ratios(f: FunctionSpec, xs: list[Vec], ys: list[Vec], slices) -> tuple[float, tuple | None]:
    """_sup of d(x; slice of y) / d(y; subdifferential at x) over the pairs
    whose denominator exceeds DIST_TOL, x-major, witnessed by the pair (x, y)
    as floats; slices[j] is the inverse image of ys[j]."""
    xfs, yfs = _floats(xs, f.dim), _floats(ys, f.dim)
    den = subdifferential_distance(f, xs, ys)
    num = np.zeros_like(den)
    for j, slice_ in enumerate(slices):
        kept = den[:, j] > DIST_TOL
        num[kept, j] = distance_to_inverse(slice_, xfs[kept])
    i, j = np.nonzero(den > DIST_TOL)
    return _sup(zip((num[i, j] / den[i, j]).tolist(),
                    zip(map(tuple, xfs[i].tolist()), map(tuple, yfs[j].tolist()))))


def estimate_subregularity_modulus(inst: ProblemInstance) -> ModulusEstimate:
    """sup over grid x of d(x; solution set) / d(reference subgradient;
    subdifferential at x) on the refined x-grids."""
    p = inst.params
    if not inst.f.is_exact:
        return _subregularity_analytic(inst)
    f = inst.f
    box = _inverse_box(inst)
    slice_ = inverse_image(f, inst.xstar, box)
    if slice_.is_empty():
        return ModulusEstimate(math.inf, False, None, failure="empty solution slice")

    def sweep(per_axis):  # the metric sweep at y = xstar alone
        best, at = _ratios(f, domain_lattice(f, inst.xbar, p.eta, per_axis), [inst.xstar],
                           [slice_])
        return best, at and at[0]

    return _refine(_refinement_schedule(p.grid, p.refine_max), sweep)


def _subregularity_analytic(inst: ProblemInstance) -> ModulusEstimate:
    fx = inst.f.fixture
    p = inst.params
    x0, v0 = float(inst.xbar[0]), float(inst.xstar[0])
    pts = analytic_inverse_points(fx, v0, x0, 4 * float(p.eta))
    if not pts:
        return ModulusEstimate(math.inf, False, None, failure="empty solution slice")
    arr = np.array(pts)
    lo, hi = max(x0 - float(p.eta), fx.lo), min(x0 + float(p.eta), fx.hi)

    def sweep(n_pts):
        xs = np.linspace(lo, hi, n_pts)
        num = _gaps(arr, xs)
        xs, num = xs[num >= SOLUTION_TOL], num[num >= SOLUTION_TOL]
        den = analytic_distances(fx, xs, v0)
        ok = den > DIST_TOL
        return _sup(zip((num[ok] / den[ok]).tolist(), zip(xs[ok].tolist())))

    return _refine([2001, 4001, 8001][: p.refine_max], sweep)


def estimate_metric_regularity_modulus(inst: ProblemInstance) -> ModulusEstimate:
    """sup over x and y grids of d(x; preimage of y) / d(y; value at x);
    an empty preimage for some y is failure of metric regularity and is
    reported as such (unbounded ratio), never silently skipped."""
    if not inst.f.is_exact:
        raise ValidationError("metric regularity estimation needs the exact variant")
    f = inst.f
    p = inst.params
    box = _inverse_box(inst)

    def sweep(level):
        xs = domain_lattice(f, inst.xbar, p.eta, level[0])
        ys = ball_lattice(inst.xstar, p.delta, level[1])
        slices = []
        for y in ys:  # in y order: no inverse image past the first empty one
            slices.append(inverse_image(f, y, box))
            if slices[-1].is_empty():
                raise _Unbounded(to_float(y), f"empty preimage at y={to_float(y)}")
        return _ratios(f, xs, ys, slices)

    levels = zip(_refinement_schedule(p.grid, p.refine_max),
                 _refinement_schedule(_coarse(p), p.refine_max))
    return _refine(levels, sweep)


def check_uniform_growth(inst: ProblemInstance, kappa) -> CheckOutcome:
    """For each tilted subgradient on the delta-grid, some solution point
    must dominate the 1/(2 kappa) growth inequality against the whole
    x-grid; a grid can only refute, never confirm."""
    if not inst.f.is_exact:
        raise ValidationError("exact variant only")
    f = inst.f
    p = inst.params
    box = _inverse_box(inst)
    xs = domain_lattice(f, inst.xbar, p.eta, p.grid)
    xs_f = _floats(xs, f.dim)
    fvals = _values(f, xs)
    two_kappa = 2 * float(kappa)

    def dominates(u: Vec, usf: np.ndarray) -> bool:
        d = xs_f - np.array(to_float(u))
        rhs = float(evaluate_exact(f, u)) + _rowdot(d, usf) + _rowdot(d, d) / two_kappa
        return not np.any(fvals < rhs - TIE_TOL)

    ustars = ball_lattice(inst.xstar, p.delta, _coarse(p))
    violations = []
    for ustar in ustars:
        usf = np.array(to_float(ustar))
        cands = _ball_points(inverse_image(f, ustar, box).pieces, inst.xbar, p.eta)
        if not any(dominates(u, usf) for u in cands):
            violations.append(tuple(map(float, usf)))
    return CheckOutcome(not violations, violations, float(len(violations)), len(ustars))


def _lipschitz(pairs) -> float:
    """Largest difference quotient |m1 - m2| / |t1 - t2| over pairs of
    (exact parameter, float point) samples with distinct parameters."""
    lip = 0.0
    for (t1, m1), (t2, m2) in itertools.combinations(pairs, 2):
        dt = float(np.linalg.norm(np.array(to_float(t1)) - np.array(to_float(t2))))
        if dt > PARAM_TOL:
            lip = max(lip, float(np.linalg.norm(m1 - m2)) / dt)
    return lip


def check_single_valued_localization(inst: ProblemInstance) -> LocalizationReport:
    """Grid refutation of single-valuedness of the localized inverse:
    fails when some tilted subgradient has a solution slice of diameter
    beyond tolerance (or several separated pieces).  All grid failures are
    collected and the most symmetric witness (smallest component-magnitude
    spread) is reported."""
    if not inst.f.is_exact:
        raise ValidationError("exact variant only")
    f = inst.f
    p = inst.params
    box = _inverse_box(inst)
    points: dict[Vec, np.ndarray] = {}
    failures: list[tuple[float, tuple, list]] = []
    for ustar in ball_lattice(inst.xstar, p.delta, _coarse(p)):
        slice_ = inverse_image(f, ustar, box)
        cands = _ball_points(slice_.pieces, inst.xbar, p.eta)
        if not cands:
            continue
        arr = np.array([to_float(c) for c in cands], dtype=float)
        dia, pair = _sup((float(np.linalg.norm(a - b)), (a, b))
                         for a, b in itertools.combinations(arr, 2))
        if dia > TIE_TOL:
            uf = to_float(ustar)
            mags = sorted(abs(t) for t in uf)
            spread = mags[-1] - mags[0] if uf else 0.0
            failures.append((spread, uf, [tuple(map(float, q)) for q in pair]))
            continue
        points[ustar] = arr[0]
    if failures:
        failures.sort(key=lambda rec: (rec[0], rec[1]))
        spread, uf, pair = failures[0]
        return LocalizationReport(False, uf, pair, None)
    return LocalizationReport(True, None, [], _lipschitz(points.items()) if points else None)


# -- tilt stability ----------------------------------------------------------------


FEASIBLE_TOL = 1e-9  # a float boundary candidate this far outside a row is on it
MINIMIZER_TOL = 1e-7  # candidates this near are one; one this near the gamma-sphere is on it
CLIP_TOL = 1e-30  # a ball-clip segment of smaller squared length is a point
SECTION_TOL = 1e-18  # a sphere section of squared radius up to this is empty
SECULAR_OFFSET = 1e-12  # the secular root's lower bracket end, above the least pole
SECULAR_DOUBLINGS = 200  # at most this many doublings of the upper bracket end
SECULAR_BISECTIONS = 120
EIGEN_TIE_TOL = 1e-12  # hard case: eigenvalues this near the least share its eigenspace
PARAM_TOL = 1e-12  # _lipschitz: parameters this near are one


def solve_tilts(inst: ProblemInstance, tilts):
    """Exact-candidate global solves of min f(x) - <tilt, x> over the
    gamma-ball, yielding each tilt's minimizers in turn, so a caller may
    stop at any tilt.  Only the linear term changes with the tilt, so each
    domain cell face's affine hull, reduced Hessians and eigenpairs are
    built once per instance (_tilt_face).  All minimizers within TIE_TOL of
    the best value are yielded (ties are a verdict, not an error)."""
    if not inst.f.is_exact:
        raise ValidationError("exact variant only")
    f = inst.f
    if f.dim > 3:
        raise ValidationError("tilt solves are limited to ambient dimension <= 3")
    qf = np.array([[float(v) for v in row] for row in f.smooth.q])
    d0 = float(f.smooth.d)
    faces = [_tilt_face(inst, qf, piece, *face.affine_hull())
             for piece in f.domain.pieces for _, face in piece.faces()]
    for tilt in tilts:
        lin = sub(f.smooth.c, vec(tilt))
        lin_f = np.array(to_float(lin))
        cand = [(x, 0.5 * float(x @ qf @ x) + float(lin_f @ x) + d0)
                for face in faces for x in face(lin, lin_f)]
        if not cand:
            raise ValidationError("empty feasible region for the tilt problem")
        best = min(v for _, v in cand)
        mins: list[np.ndarray] = []
        for x, v in cand:
            if v <= best + TIE_TOL and not any(np.linalg.norm(x - m) <= MINIMIZER_TOL for m in mins):
                mins.append(x)
        yield [tuple(map(float, m)) for m in mins]


def _tilt_face(inst: ProblemInstance, qf: np.ndarray, piece: ConvexPolyhedron, p0: Vec,
               dirs: list[Vec]):
    """The candidate points of the face with affine hull p0 + span dirs, as a
    function of the linear term, exact and float: interior critical points
    are exact rational solves; ball-boundary candidates come from a
    secular-equation solve on the hull's section of the gamma-sphere.  What
    does not depend on the tilt is built here, once."""
    q, xbar, gamma = inst.f.smooth.q, inst.xbar, inst.params.gamma
    gamma2, gamma_f = gamma * gamma, float(gamma)
    xbar_f = np.array(to_float(xbar))

    def isolated(pt):  # the one critical point, when it is feasible
        if not (piece.contains(pt) and norm_sq(sub(pt, xbar)) <= gamma2):
            return []
        return [np.array(to_float(pt))]

    if not dirs:
        pts = isolated(p0)
        return lambda lin, lin_f: pts
    h = mat([[dot(bi, matvec(q, bj)) for bj in dirs] for bi in dirs])
    qp0 = matvec(q, p0)

    def interior(lin) -> list[np.ndarray]:
        sol = solve_affine(h, neg(vec([dot(bi, add(qp0, lin)) for bi in dirs])), len(dirs))
        if sol is None:
            return []
        s0, null = sol
        x0 = add(p0, combine(dirs, s0))
        if not null:
            return isolated(x0)
        # flat critical set: an affine subset with constant objective, represented
        # vertex-style inside the piece and the gamma box
        sol_dirs = [combine(dirs, t) for t in null]
        polyt = piece.intersect(ConvexPolyhedron.box(xbar, gamma)).preimage(sol_dirs, x0)
        vs, _, _ = polyt.vrep()
        crit = [add(x0, combine(sol_dirs, t)) for t in vs + [polyt.relint_point()]] if vs else []
        pts_in = [np.array(to_float(pt)) for pt in crit if norm_sq(sub(pt, xbar)) <= gamma2]
        pts_out = [np.array(to_float(pt)) for pt in crit if norm_sq(sub(pt, xbar)) > gamma2]
        # ball clips along the flat set keep witnesses inside the ball
        clips = (_ball_clip(a, b, xbar_f, gamma_f) for a in pts_in for b in pts_out)
        return pts_in + [t for t in clips if t is not None]

    bq, _ = np.linalg.qr(np.array([to_float(d) for d in dirs], dtype=float).T)  # n x k
    p0f = np.array(to_float(p0))
    # x = p0 + bq y ; sphere: |x - xbar| = gamma
    v = p0f - xbar_f
    v_par = bq.T @ v
    rad2 = gamma_f * gamma_f - (float(v @ v) - float(v_par @ v_par))
    if rad2 <= SECTION_TOL:
        return lambda lin, lin_f: interior(lin)
    # objective in y: 1/2 y'Hy + g'y + const, centered so sphere is |y + v_par|^2 = rad2
    hf = bq.T @ qf @ bq
    hv, qp0f = hf @ v_par, qf @ p0f
    w, u = np.linalg.eigh(hf)
    lo = -float(w[0])
    rows, rhs = (np.array(r) for r in piece.to_float_rows())

    def sphere(lin_f) -> list[np.ndarray]:
        # shift z = y + v_par: minimize 1/2 z'Hz + (g - H v_par)'z over |z|^2 = rad2
        beta = u.T @ (bq.T @ (qp0f + lin_f) - hv)

        def norm2(mu: float) -> float:
            den = w + mu
            return float(np.sum((beta / den) ** 2))

        roots: list[np.ndarray] = []
        # easy case scan on (lo, lo + big]
        mu_hi = lo + 1.0
        for _ in range(SECULAR_DOUBLINGS):
            if norm2(mu_hi) < rad2:
                break
            mu_hi = lo + (mu_hi - lo) * 2
        mu_lo = lo + SECULAR_OFFSET
        if norm2(mu_lo) >= rad2:
            a, bb = mu_lo, mu_hi
            for _ in range(SECULAR_BISECTIONS):
                mid = 0.5 * (a + bb)
                if norm2(mid) >= rad2:
                    a = mid
                else:
                    bb = mid
            mu = 0.5 * (a + bb)
            roots.append(-(u @ (beta / (w + mu))))
        else:
            # hard case: minimum eigenspace component free
            tie = np.abs(w - w[0]) < EIGEN_TIE_TOL
            z0 = -(u @ np.where(tie, 0.0, beta / np.where(tie, 1.0, w + lo)))
            tail = rad2 - float(z0 @ z0)
            if tail > 0:
                roots.extend(z0 + sgn * math.sqrt(tail) * u[:, 0] for sgn in (+1.0, -1.0))
        xs = (p0f + bq @ (z - v_par) for z in roots)
        return [x for x in xs if (piece.m == 0 or np.max(rows @ x - rhs) <= FEASIBLE_TOL)
                and abs(float(np.linalg.norm(x - xbar_f)) - gamma_f) < MINIMIZER_TOL]

    return lambda lin, lin_f: interior(lin) + sphere(lin_f)


def _ball_clip(inside: np.ndarray, outside: np.ndarray, center: np.ndarray,
               gamma: float) -> np.ndarray | None:
    d = outside - inside
    a = float(d @ d)
    if a < CLIP_TOL:
        return None
    b = 2 * float((inside - center) @ d)
    c = float((inside - center) @ (inside - center)) - gamma * gamma
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    t = (-b + math.sqrt(disc)) / (2 * a)
    if 0 <= t <= 1:
        return inside + t * d
    return None


def tilt_stability_verdict(inst: ProblemInstance) -> TiltReport:
    """Stable iff every sampled tilt has a unique minimizer, the zero tilt
    recovers the reference point, and difference quotients stay bounded;
    the modulus estimate is their maximum."""
    p = inst.params
    xbar_f = np.array(to_float(inst.xbar))
    tilts = ball_lattice(zeros(inst.f.dim), p.rho, _coarse(p))
    # the zero tilt anchors the verdict; check it first
    tilts.sort(key=lambda t: sum(abs(x) for x in t))
    argmin: list[tuple[tuple, np.ndarray]] = []
    for t, mins in zip(tilts, solve_tilts(inst, tilts)):
        m = np.array(mins[0])
        if len(mins) > 1 or (
                all(x == 0 for x in t) and float(np.linalg.norm(m - xbar_f)) > TIE_TOL):
            return TiltReport("unstable", None, to_float(t), mins)
        argmin.append((t, m))
    return TiltReport("stable", _lipschitz(argmin), None, [])
