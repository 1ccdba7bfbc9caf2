"""Second-order objects: graph models of the subdifferential, normal cones
to them, generalized Hessians, kernels, and definiteness verdicts.

The subgradient graph of a quadratic-plus-polyhedral function is a finite
union of polyhedra {(x, Qx+c+v) : x in cell, v in value cone}, one per
global cell (`FunctionSpec.graph`); near a reference pair it is the union
of the pieces containing that pair, and every second-order construction
reduces to exact polyhedral computations on that union.  Hessian values
are slices of the graph's normal cones, as inverse images are slices of
the graph itself.  Sign conventions follow the coderivative pairing: w is
a Hessian value at direction u exactly when (w, -u) is normal to the graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cells import limiting_normal_cone
from .cones import ConeUnion, PolyCone
from .copositive import cone_form_sign_and_zeros, graph_form
from .model import FunctionSpec, QuadraticForm, ValidationError
from .polyhedra import ConvexPolyhedron, PolyUnion, cone_polyhedron, same_union
from .rational import F0, F1, Vec, dot, is_zero, matvec, neg, sub, vec


@dataclass(frozen=True)
class GraphLocalModel:
    """gph of the subdifferential near (xbar, xstar) as a polyhedral union."""
    f: FunctionSpec
    xbar: Vec
    xstar: Vec
    pieces: tuple[ConvexPolyhedron, ...]

    @property
    def union(self) -> PolyUnion:
        return PolyUnion(list(self.pieces))

    @property
    def basepoint(self) -> Vec:
        return self.xbar + self.xstar


def build_graph_model(f: FunctionSpec, xbar, xstar) -> GraphLocalModel:
    """The pieces of `f.graph` whose cell holds xbar and whose value holds xstar - grad q(xbar)."""
    if not f.is_exact:
        raise ValidationError("graph models need the exact variant")
    xbar, xstar = vec(xbar), vec(xstar)
    if len(xbar) != f.dim or len(xstar) != f.dim:
        raise ValidationError("dimension mismatch")
    v = sub(xstar, f.smooth.gradient(xbar))
    pieces = tuple(p for p, c in zip(f.graph, f.cells)
                   if c.closure.contains(xbar) and c.value.contains(v))
    if not pieces:
        raise ValidationError("reference pair is not on the subdifferential graph")
    return GraphLocalModel(f, xbar, xstar, pieces)


class SecondOrderMap:
    """Queryable generalized Hessian at a fixed reference pair."""

    def __init__(self, model: GraphLocalModel):
        self.model = model
        self.n = model.f.dim

    @functools.cached_property
    def normal_cone(self) -> ConeUnion:
        """Limiting normal cone to the graph union at the reference pair, built when read."""
        return limiting_normal_cone(self.model.union, self.model.basepoint)

    def value(self, u) -> list[ConvexPolyhedron]:
        """{w : (w, -u) normal to the graph} as polyhedra in w-space."""
        return _slice_pieces(self.normal_cone.pieces, vec(u), self.n)

    def contains(self, u, w) -> bool:
        u, w = vec(u), vec(w)
        return self.normal_cone.contains(tuple(w) + tuple(neg(u)))


def _slice_pieces(cones: list[PolyCone], u: Vec, n: int) -> list[ConvexPolyhedron]:
    """The nonempty slices at z = -u of the cones {(w, z) : g.(w, z) <= 0}."""
    cuts = (cone_polyhedron(k).slice(neg(u)) for k in cones)
    return [p for p in cuts if not p.is_empty()]


def second_order_map(f: FunctionSpec, xbar, xstar) -> SecondOrderMap:
    """Cached generalized-Hessian map at a reference pair."""
    key = (vec(xbar), vec(xstar))
    cached = f._graph_models.get(key)
    if cached is None:
        cached = SecondOrderMap(build_graph_model(f, xbar, xstar))
        f._graph_models[key] = cached
    return cached


def hessian_sum_rule_check(f: FunctionSpec, xbar, xstar) -> bool:
    """Exact set equality of the Hessian slice against Qu + the slice of the
    pure-indicator Hessian at the shifted pair, over a generator set of
    directions (`_direction_set`)."""
    if not f.is_exact:
        raise ValidationError("exact variant only")
    xbar, xstar = vec(xbar), vec(xstar)
    n = f.dim
    f_ind = FunctionSpec(smooth=QuadraticForm.zero(n), domain=f.domain)
    vbar = sub(xstar, f.smooth.gradient(xbar))
    full = second_order_map(f, xbar, xstar)
    ind = second_order_map(f_ind, xbar, vbar)
    for u in _direction_set(n):
        qu = matvec(f.smooth.q, u)
        lhs = full.value(u)
        rhs = [p.translate(qu) for p in ind.value(u)]
        if not same_union(lhs, rhs):
            return False
    return True


def _direction_set(n: int) -> list[Vec]:
    dirs = []
    for i in range(n):
        e = [F0] * n
        e[i] = F1
        dirs.append(tuple(e))
        dirs.append(tuple(-x for x in e))
    dirs.append(tuple([F1] * n))
    dirs.append(tuple([Fraction(1, 2)] + [Fraction(-1)] * (n - 1)) if n > 1 else (Fraction(2),))
    return dirs


@dataclass(frozen=True)
class KernelReport:
    trivial: bool
    basis: tuple[Vec, ...]  # nonzero directions u with 0 in the Hessian value


def kernel(f: FunctionSpec, xbar, xstar) -> KernelReport:
    """Directions u != 0 with 0 in the generalized Hessian value: per normal
    cone piece this is the z-section {z : (0,z) in piece}, a rational cone."""
    som = second_order_map(f, xbar, xstar)
    n = f.dim
    witnesses: list[Vec] = []
    for k in som.normal_cone.pieces:
        sect = PolyCone.from_inequalities([g[n:] for g in k.ineqs], n)
        for g in sect.rays + sect.lineality + [neg(l) for l in sect.lineality]:
            u = neg(g)
            if not is_zero(u) and u not in witnesses:
                witnesses.append(u)
    return KernelReport(trivial=not witnesses, basis=tuple(witnesses))


POSITIVE_DEFINITE = "positive_definite"
SEMIDEFINITE_DEGENERATE = "positive_semidefinite_degenerate"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class DefinitenessVerdict:
    verdict: str
    witness: tuple[Vec, Vec, Fraction] | None  # (u, ustar, <ustar,u>)


def definiteness(f: FunctionSpec, xbar, xstar) -> DefinitenessVerdict:
    """Exact sign analysis of <ustar, u> over the generalized Hessian.

    Per normal-cone piece, minimizes the pairing form over the cone by the
    copositivity engine; zeros are genuine degeneracies only when they
    occur at u != 0,  and pieces supported on u = 0 never affect the
    verdict (the definiteness quantifier ranges over u != 0).
    """
    som = second_order_map(f, xbar, xstar)
    n = f.dim
    form = graph_form(n, 0, -1, 0)  # <w, -z> on stacked (w, z)
    neg_wit = None
    zero_wit = None
    for k in som.normal_cone.pieces:
        if all(is_zero(g[n:]) for g in k.generators()):
            continue
        sign, w, zero_points = cone_form_sign_and_zeros(k, form)
        if sign < 0:
            neg_wit = w
            break
        if zero_wit is None:
            zero_wit = next((v for v in zero_points if not is_zero(v[n:])), None)
    if neg_wit is not None:
        u, ustar = neg(neg_wit[n:]), neg_wit[:n]
        return DefinitenessVerdict(INDEFINITE, (u, ustar, dot(ustar, u)))
    if zero_wit is not None:
        u, ustar = neg(zero_wit[n:]), zero_wit[:n]
        return DefinitenessVerdict(SEMIDEFINITE_DEGENERATE, (u, ustar, F0))
    return DefinitenessVerdict(POSITIVE_DEFINITE, None)
