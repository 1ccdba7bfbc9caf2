"""Representable function classes, evaluation, and problem ingestion.

The exact class is a quadratic smooth part plus the indicator of a finite
union of rational polyhedra; every first- and second-order object it
produces stays polyhedral and is computed in exact arithmetic.  A small
registry of closed-form 1-D fixtures covers the sampling-based analytic
path; its machinery never mixes with the exact one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .cells import cell_complex
from .polyhedra import ConvexPolyhedron, PolyUnion
from .rational import (F0, Mat, Vec, add, dot, frac, mat, matvec, neg, norm_sq,
                       scale, sub, vec, zeros)

# Rows per problem-file piece and problem dimension: the exact machinery grows
# quickly with the rows of the pieces, the grids and tilt solves with the dimension.
MAX_ROWS = 20
MAX_DIM = 3
TINY = np.finfo(float).tiny  # sin-inv's 1/x takes x >= TINY: at subnormal x, 1/x is inf


class ParseError(ValueError):
    """Malformed problem file."""


class ValidationError(ValueError):
    """Well-formed file whose data violates a contract."""


@dataclass(frozen=True)
class QuadraticForm:
    """q(x) = x'Qx/2 + c'x + d with Q symmetric rational."""
    q: Mat
    c: Vec
    d: Fraction

    def __post_init__(self):
        n = len(self.c)
        if len(self.q) != n or any(len(r) != n for r in self.q):
            raise ValidationError("Q must be n x n matching c")
        for i in range(n):
            for j in range(n):
                if self.q[i][j] != self.q[j][i]:
                    raise ValidationError("Q must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.c)

    def value(self, x) -> Fraction:
        x = vec(x)
        return dot(x, matvec(self.q, x)) / 2 + dot(self.c, x) + self.d

    def gradient(self, x) -> Vec:
        return add(matvec(self.q, vec(x)), self.c)

    @classmethod
    def make(cls, q, c, d=0) -> "QuadraticForm":
        return cls(mat(q), vec(c), frac(d))

    @classmethod
    def zero(cls, n: int) -> "QuadraticForm":
        return cls(mat([[F0] * n for _ in range(n)]), zeros(n), F0)


@dataclass(frozen=True)
class AnalyticFixture1D:
    """A 1-D closed-form fixture with a sampling-based subdifferential path.

    `value`/`derivative` accept floats or numpy arrays.  Outside
    [lo, hi] the function is +inf; at `exceptional` points the derivative
    is only available through limit sampling.
    """
    name: str
    lo: float
    hi: float
    value: Callable
    derivative: Callable
    exceptional: tuple[float, ...]
    notes: str = ""

    def in_domain(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def check_derivative(self, n_points: int = 100, rel_tol: float = 1e-6) -> float:
        """Worst relative error of central differences vs `derivative` on an
        interior grid; the construction invariant for fixtures.

        The grid keeps a safety margin around exceptional points, where
        higher derivatives blow up and finite differences are meaningless;
        those points are owned by the limit-sampling machinery instead.
        """
        h = 1e-6
        lo = self.lo if math.isfinite(self.lo) else -1.0
        hi = self.hi if math.isfinite(self.hi) else 1.0
        span = hi - lo
        margin = 0.05 * span
        worst = 0.0
        for i in range(1, n_points + 1):
            x = lo + span * i / (n_points + 1)
            if any(abs(x - e) < margin for e in self.exceptional):
                continue
            if not (self.lo + h < x < self.hi - h):
                continue
            fd = (self.value(x + h) - self.value(x - h)) / (2 * h)
            d = self.derivative(x)
            err = abs(fd - d) / max(1.0, abs(d))
            worst = max(worst, err)
        if worst > rel_tol:
            raise ValidationError(
                f"fixture {self.name}: derivative mismatch {worst:.3g} > {rel_tol}")
        return worst


def _oscillating_value(x):
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, 0.5 * x - np.square(x) * np.sin(1.0 / np.fmax(x, TINY)), 0.0)
    return out if out.ndim else float(out)


def _oscillating_derivative(x):
    x = np.asarray(x, dtype=float)
    w = 1.0 / np.fmax(x, TINY)  # at x <= 0 and nan too, where 0.5 is taken
    out = np.where(x > 0, 0.5 - 2.0 * x * np.sin(w) + np.cos(w), 0.5)
    return out if out.ndim else float(out)


ANALYTIC_REGISTRY: dict[str, AnalyticFixture1D] = {
    # Oscillating near-minimizer: quadratic growth holds with rate 1 at the
    # origin while stationary points accumulate at it, so the reference
    # point is not isolated among solutions of the stationarity inclusion.
    # (The usual phrasing transposes the pair; the implemented reading is
    # "the reference point is not isolated in the preimage of the
    # reference subgradient".)
    "sin-inv": AnalyticFixture1D(
        name="sin-inv", lo=0.0, hi=math.inf,
        value=_oscillating_value,
        derivative=_oscillating_derivative,
        exceptional=(0.0,),
        notes="x/2 - x^2 sin(1/x) on (0,inf), 0 at 0, +inf on x<0"),
    "abs": AnalyticFixture1D(
        name="abs", lo=-math.inf, hi=math.inf,
        value=lambda x: np.abs(np.asarray(x, dtype=float)),
        derivative=lambda x: np.sign(np.asarray(x, dtype=float)),
        exceptional=(0.0,),
        notes="|x|; subdifferential at 0 is [-1,1] via limit sampling"),
    "square": AnalyticFixture1D(
        name="square", lo=-math.inf, hi=math.inf,
        value=lambda x: 0.5 * np.square(np.asarray(x, dtype=float)),
        derivative=lambda x: np.asarray(x, dtype=float),
        exceptional=(),
        notes="x^2/2 on the line"),
}


class FunctionSpec:
    """Either Exact (quadratic + polyhedral-union indicator) or a named
    analytic 1-D fixture."""

    def __init__(self, smooth: QuadraticForm | None = None,
                 domain: PolyUnion | None = None,
                 fixture: AnalyticFixture1D | None = None):
        if fixture is not None:
            if smooth is not None or domain is not None:
                raise ValidationError("analytic variant carries no exact data")
            self.variant = "analytic"
            self.fixture = fixture
            self.dim = 1
            self.smooth = None
            self.domain = None
        else:
            if smooth is None or domain is None:
                raise ValidationError("exact variant needs smooth part and domain")
            if smooth.dim != domain.dim:
                raise ValidationError("smooth part and domain dimension mismatch")
            self.variant = "exact"
            self.smooth = smooth
            self.domain = domain
            self.fixture = None
            self.dim = smooth.dim
        # second_order_map's memo; inverse_image's slices per (y, box) and shadows per box
        self._graph_models: dict = {}
        self._inverse_images: dict = {}

    @property
    def is_exact(self) -> bool:
        return self.variant == "exact"

    @functools.cached_property
    def cells(self) -> tuple:
        """The domain's global cells (`cells.cell_complex`), read by `graph` and `subdiff`."""
        return tuple(cell_complex(self.domain))

    @functools.cached_property
    def graph(self) -> tuple[ConvexPolyhedron, ...]:
        """gph of the subdifferential as one polyhedron {(x, y) : x in cl C, y - Qx - c in V_C}
        per global cell C of `cells`: cl C's rows padded with zeros, then (-gQ | g) <= g.c per
        row g of the normal-cone value V_C."""
        n, q, c = self.dim, self.smooth.q, self.smooth.c
        # cells share value rows, so each distinct g is multiplied out once
        vrow = {g: (neg(matvec(q, g)) + g, dot(g, c))
                for g in dict.fromkeys(g for cell in self.cells for g in cell.value.ineqs)}
        return tuple(ConvexPolyhedron(
            [row + zeros(n) for row in cell.closure.a] + [vrow[g][0] for g in cell.value.ineqs],
            cell.closure.b + tuple(vrow[g][1] for g in cell.value.ineqs), dim=2 * n)
            for cell in self.cells)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"FunctionSpec(exact, n={self.dim}, pieces={len(self.domain.pieces)})"
        return f"FunctionSpec(analytic:{self.fixture.name})"


def evaluate_exact(f: FunctionSpec, x) -> Fraction | None:
    """Exact value at a rational point; None encodes +inf."""
    if not f.is_exact:
        raise ValidationError("evaluate_exact needs the exact variant")
    x = vec(x)
    if len(x) != f.dim:
        raise ValidationError("dimension mismatch")
    if not f.domain.contains(x):
        return None
    return f.smooth.value(x)


def scalar(x) -> float:
    """The float of a 1-D point given as a number or a one-entry sequence."""
    return float(x[0]) if isinstance(x, (list, tuple)) else float(x)


def regularize(f: FunctionSpec, theta, center) -> FunctionSpec:
    """Add (theta/2)||x - center||^2 to the smooth part; domain unchanged."""
    if not f.is_exact:
        raise ValidationError("regularize supports only the exact variant")
    theta = frac(theta)
    center = vec(center)
    n = f.dim
    q = [list(row) for row in f.smooth.q]
    for i in range(n):
        q[i][i] += theta
    c = sub(f.smooth.c, scale(center, theta))
    d = f.smooth.d + theta * norm_sq(center) / 2
    return FunctionSpec(smooth=QuadraticForm(mat(q), c, d), domain=f.domain)


@dataclass
class Params:
    """Neighborhood radii, grid densities, and tolerances.

    Defaults: eta = delta = 1/10, gamma = 1/2, rho = 1/20; all strictly
    positive by contract.
    """
    eta: Fraction = Fraction(1, 10)
    delta: Fraction = Fraction(1, 10)
    gamma: Fraction = Fraction(1, 2)
    rho: Fraction = Fraction(1, 20)
    grid: int = 9
    box_halfwidth: Fraction = Fraction(1)
    refine_max: int = 3

    def __post_init__(self):
        for name in ("eta", "delta", "gamma", "rho", "box_halfwidth"):
            v = getattr(self, name)
            setattr(self, name, frac(v) if not isinstance(v, Fraction) else v)
            if getattr(self, name) <= 0:
                raise ValidationError(f"param {name} must be positive")
        if self.grid < 2 or self.refine_max < 1:
            raise ValidationError("param grid must be at least 2 and refine_max at least 1")

    def replace(self, **kw) -> "Params":
        return dataclasses.replace(self, **kw)


@dataclass
class ProblemInstance:
    """A function with a validated reference pair on its subgradient graph."""
    f: FunctionSpec
    xbar: Vec
    xstar: Vec
    params: Params = field(default_factory=Params)
    name: str = ""

    def __post_init__(self):
        self.xbar = vec(self.xbar) if self.f.is_exact else self.xbar
        self.xstar = vec(self.xstar) if self.f.is_exact else self.xstar

    def validate(self) -> None:
        from .subdiff import subdifferential  # not at the top: subdiff imports model
        if len(self.xbar) != self.f.dim or len(self.xstar) != self.f.dim:
            raise ValidationError("dimension mismatch")
        sd = subdifferential(self.f, self.xbar)
        if not sd.contains(self.xstar):
            raise ValidationError("reference subgradient is not in the subdifferential "
                                  "at the reference point")


# -- problem files -------------------------------------------------------------


def _reject_floats(s: str):
    raise ParseError(f"floating-point literal {s!r} is not allowed; "
                     "write rationals as integers or 'p/q' strings")


def _parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ParseError("booleans are not rational scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational literal {x!r}: {e}") from None
    raise ParseError(f"expected rational (int or 'p/q'), got {x!r}")


def parse_problem(text: str) -> ProblemInstance:
    """Parse and validate a JSON problem file.

    Exact files must be float-free; the reference pair is membership-checked
    exactly (exact variant) or within 1e-9 (analytic variant).
    """
    try:
        raw = json.loads(text, parse_float=_reject_floats)
    except ParseError:
        raise
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(raw, dict) or "variant" not in raw:
        raise ParseError("problem file must be an object with a 'variant' field")

    variant = raw["variant"]
    params = _parse_params(raw.get("params", {}))
    if variant == "exact":
        inst = _parse_exact(raw, params)
    elif variant == "analytic":
        inst = _parse_analytic(raw, params)
    else:
        raise ParseError(f"unknown variant {variant!r}")
    inst.validate()
    return inst


def _parse_params(obj) -> Params:
    if not isinstance(obj, dict):
        raise ParseError("'params' must be an object")
    kw = {}
    for key in ("eta", "delta", "gamma", "rho", "box_halfwidth"):
        if key in obj:
            kw[key] = _parse_rational(obj[key])
    for key in ("grid", "refine_max"):
        if key in obj:
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise ParseError(f"param {key} must be an integer")
            kw[key] = obj[key]
    try:
        return Params(**kw)
    except ValidationError:
        raise
    except ValueError as e:
        raise ParseError(str(e)) from None


def _field(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    return obj[key]


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be an object")
    return x


def _rationals(x, what: str, rows: bool = False) -> list:
    """A JSON list of rationals, or of such lists when `rows`."""
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a list")
    return [_rationals(v, f"each row of {what}") if rows else _parse_rational(v) for v in x]


def _parse_exact(raw: dict, params: Params) -> ProblemInstance:
    smooth_obj = _object(_field(raw, "smooth"), "'smooth'")
    q = mat(_rationals(_field(smooth_obj, "Q"), "'Q'", rows=True))
    c = vec(_rationals(_field(smooth_obj, "c"), "'c'"))
    d = _parse_rational(smooth_obj.get("d", 0))
    xbar = vec(_rationals(_field(raw, "xbar"), "'xbar'"))
    xstar = vec(_rationals(_field(raw, "xstar"), "'xstar'"))
    n = len(c)
    if not 1 <= n <= MAX_DIM:
        raise ParseError(f"problem dimension {n} is outside 1..{MAX_DIM}")
    if len(xbar) != n or len(xstar) != n:
        raise ParseError("xbar/xstar dimension mismatch")
    pieces_obj = raw.get("pieces", [{"A": [], "b": []}])
    if not isinstance(pieces_obj, list):
        raise ParseError("'pieces' must be a list")
    pieces = []
    for piece_obj in pieces_obj:
        piece_obj = _object(piece_obj, "each piece")
        a = _rationals(_field(piece_obj, "A"), "'A'", rows=True)
        b = _rationals(_field(piece_obj, "b"), "'b'")
        if len(a) > MAX_ROWS:
            raise ParseError(f"piece has {len(a)} rows > {MAX_ROWS}")
        if len(a) != len(b):
            raise ParseError(f"piece has {len(a)} rows in 'A' but {len(b)} in 'b'")
        for row in a:
            if len(row) != n:
                raise ParseError("piece row dimension mismatch")
        pieces.append(ConvexPolyhedron(mat(a), vec(b), dim=n))
    try:
        smooth = QuadraticForm(q, c, d)
        domain = PolyUnion(pieces)
    except (ValidationError, ValueError) as e:
        raise ParseError(str(e)) from None
    f = FunctionSpec(smooth=smooth, domain=domain)
    return ProblemInstance(f, xbar, xstar, params, name=raw.get("name", ""))


def _parse_analytic(raw: dict, params: Params) -> ProblemInstance:
    name = raw.get("fixture")
    if not isinstance(name, str) or name not in ANALYTIC_REGISTRY:
        raise ParseError(f"unknown analytic fixture {name!r}; "
                         f"known: {sorted(ANALYTIC_REGISTRY)}")
    fixture = ANALYTIC_REGISTRY[name]
    xbar = [float(v) for v in _rationals(_field(raw, "xbar"), "'xbar'")]
    xstar = [float(v) for v in _rationals(_field(raw, "xstar"), "'xstar'")]
    if len(xbar) != 1 or len(xstar) != 1:
        raise ParseError("analytic problems are one-dimensional")
    f = FunctionSpec(fixture=fixture)
    return ProblemInstance(f, tuple(xbar), tuple(xstar), params, name=raw.get("name", ""))
