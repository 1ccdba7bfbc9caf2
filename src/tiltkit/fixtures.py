"""The fixture corpus: named problem instances with expected verdicts.

Every expected entry carries a provenance tag: short claims that anchor
the verifier suites.  Derived entries name the oracle that produced the
frozen expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import ANALYTIC_REGISTRY, FunctionSpec, Params, ProblemInstance, QuadraticForm
from .polyhedra import ConvexPolyhedron, PolyUnion

F = Fraction


@dataclass(frozen=True)
class Expected:
    value: object
    provenance: str  # "[PAPER: ...]" | "[TRIVIAL: ...]" | "[DERIVED: oracle=...]"


@dataclass
class Fixture:
    name: str
    instance: ProblemInstance
    expected: dict[str, Expected] = field(default_factory=dict)
    tags: frozenset[str] = frozenset()

    def expect(self, key: str, default=None):
        e = self.expected.get(key)
        return e.value if e is not None else default


def _exact(q, c, pieces, xbar, xstar, name, params=None) -> ProblemInstance:
    f = FunctionSpec(smooth=QuadraticForm.make(q, c), domain=PolyUnion(pieces))
    return ProblemInstance(f, xbar, xstar, params or Params(), name=name)


def _wedge() -> ConvexPolyhedron:
    # {x : -x1 + x2 <= 0, -x1 - x2 <= 0}, the wedge around the positive x1-axis
    return ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))


def _cross_pieces() -> list[ConvexPolyhedron]:
    return [ConvexPolyhedron([(0, 1), (0, -1)], (0, 0)),
            ConvexPolyhedron([(1, 0), (-1, 0)], (0, 0))]


def build_corpus() -> dict[str, Fixture]:
    out: dict[str, Fixture] = {}

    def add(fx: Fixture) -> None:
        out[fx.name] = fx

    stable = {
        "local_min": Expected(True, "[TRIVIAL: strictly convex on its domain]"),
        "tilt": Expected("stable", "[DERIVED: oracle=per-cell exact tilt solve]"),
        "definiteness": Expected("positive_definite",
                                 "[DERIVED: oracle=cone copositivity engine]"),
        "kernel_trivial": Expected(True, "[TRIVIAL: nonsingular quadratic part]"),
        "prox_regular": Expected(True, "[TRIVIAL: quadratic plus convex indicator]"),
        "localization": Expected("holds", "[DERIVED: oracle=inverse-slice diameters]"),
    }

    add(Fixture(
        "quad-1d",
        _exact([[1]], [0], [ConvexPolyhedron.full_space(1)], (0,), (0,), "quad-1d"),
        dict(stable,
             subreg_kappa=Expected(1.0, "[TRIVIAL: both distances equal |x|]"),
             metric_kappa=Expected(1.0, "[TRIVIAL: identity gradient]")),
        tags=frozenset({"minimizer", "t31", "c33", "c39", "oracle-free"})))

    add(Fixture(
        "quad-diag",
        _exact([[1, 0], [0, 2]], [0, 0], [ConvexPolyhedron.full_space(2)],
               (0, 0), (0, 0), "quad-diag"),
        dict(stable,
             subreg_kappa=Expected(1.0, "[DERIVED: oracle=ratio |x|/|Qx| along e1]"),
             metric_kappa=Expected(1.0, "[DERIVED: oracle=inverse-Hessian norm]"),
             tilt_kappa=Expected(1.0, "[DERIVED: oracle=M(t)=Q^{-1}t analytic]"),
             alpha_hat=Expected(1.0, "[DERIVED: oracle=Rayleigh-quotient minimum]")),
        tags=frozenset({"minimizer", "t31", "c33", "c39", "smooth", "c411"})))

    add(Fixture(
        "quad-3d",
        _exact([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [0, 0, 0],
               [ConvexPolyhedron.full_space(3)], (0, 0, 0), (0, 0, 0), "quad-3d",
               Params(grid=5)),
        dict(stable),
        tags=frozenset({"minimizer", "c411"})))

    add(Fixture(
        "quad-rot",
        _exact([[2, 1], [1, 2]], [0, 0], [ConvexPolyhedron.full_space(2)],
               (0, 0), (0, 0), "quad-rot"),
        dict(stable,
             metric_kappa=Expected(1.0, "[DERIVED: oracle=smallest eigenvalue 1 of Q]")),
        tags=frozenset({"minimizer", "t31", "c33", "c39", "c411"})))

    add(Fixture(
        "complementarity-1d",
        _exact([[1]], [0], [ConvexPolyhedron([(-1,)], (0,), dim=1)], (0,), (0,),
               "complementarity-1d"),
        dict(stable),
        tags=frozenset({"minimizer", "t31", "c39", "oracle"})))

    add(Fixture(
        "quadrant",
        _exact([[1, 0], [0, 1]], [0, 0], [ConvexPolyhedron([(-1, 0), (0, -1)], (0, 0))],
               (0, 0), (0, 0), "quadrant"),
        dict(stable),
        tags=frozenset({"minimizer", "t31", "c39"})))

    add(Fixture(
        "halfspace",
        _exact([[1, 0], [0, 1]], [0, 0], [ConvexPolyhedron([(1, 0)], (0,))],
               (0, 0), (0, 0), "halfspace"),
        dict(stable),
        tags=frozenset({"minimizer", "t31"})))

    add(Fixture(
        "wedge-psd",
        _exact([[1, 0], [0, 1]], [0, 0], [_wedge()], (0, 0), (0, 0), "wedge-psd"),
        dict(stable),
        tags=frozenset({"minimizer", "t31", "c39"})))

    add(Fixture(
        "skew-cone",
        _exact([[1, 0], [0, 1]], [0, 0],
               [ConvexPolyhedron([(0, -1), (1, -1)], (0, 0))], (0, 0), (0, 0),
               "skew-cone"),
        dict(stable),
        tags=frozenset({"minimizer"})))

    add(Fixture(
        "line-domain",
        _exact([[1, 0], [0, 1]], [0, 0],
               [ConvexPolyhedron([(0, 1), (0, -1)], (0, 0))], (0, 0), (0, 0),
               "line-domain"),
        dict(stable),
        tags=frozenset({"minimizer"})))

    add(Fixture(
        "box-domain",
        _exact([[1, 0], [0, 1]], [0, 0], [ConvexPolyhedron.box((0, 0), F(1))],
               (0, 0), (0, 0), "box-domain"),
        dict(stable),
        tags=frozenset({"minimizer", "t31"})))

    add(Fixture(
        "shifted-min",
        _exact([[1, 0], [0, 2]], [-1, -2],
               [ConvexPolyhedron.box((1, 1), F(2))], (1, 1), (0, 0), "shifted-min"),
        dict(stable),
        tags=frozenset({"minimizer", "t31"})))

    add(Fixture(
        "degenerate-psd",
        _exact([[1, 0], [0, 0]], [0, 0], [ConvexPolyhedron.full_space(2)],
               (0, 0), (0, 0), "degenerate-psd"),
        {
            "local_min": Expected(True, "[TRIVIAL: f = x1^2/2 >= 0]"),
            "tilt": Expected("unstable",
                             "[DERIVED: oracle=flat argmin along the null axis]"),
            "definiteness": Expected(
                "positive_semidefinite_degenerate",
                "[DERIVED: oracle=pairing vanishes on the null axis]"),
            "kernel_trivial": Expected(False, "[TRIVIAL: Qe2 = 0]"),
            "prox_regular": Expected(True, "[TRIVIAL: convex]"),
            "localization": Expected("fails",
                                     "[DERIVED: oracle=flat inverse slices]"),
        },
        tags=frozenset({"minimizer"})))

    add(Fixture(
        "indicator-halfline",
        _exact([[0]], [0], [ConvexPolyhedron([(-1,)], (0,), dim=1)], (0,), (0,),
               "indicator-halfline"),
        {
            "local_min": Expected(True, "[TRIVIAL: indicator minimum]"),
            "tilt": Expected("unstable",
                             "[DERIVED: oracle=flat argmin at zero tilt]"),
            "definiteness": Expected(
                "positive_semidefinite_degenerate",
                "[DERIVED: oracle=complementarity graph normal cone]"),
            "kernel_trivial": Expected(False,
                                       "[DERIVED: oracle=z-axis normals of the graph]"),
            "prox_regular": Expected(True, "[TRIVIAL: convex]"),
        },
        tags=frozenset({"minimizer", "oracle"})))

    add(Fixture(
        "saddle-cone",
        _exact([[2, 0], [0, -2]], [0, 0], [_wedge()], (0, 0), (0, 0), "saddle-cone"),
        {
            "local_min": Expected(True, "[PAPER: the reference point minimizes "
                                        "the saddle quadratic over the wedge]"),
            "tilt": Expected("unstable", "[DERIVED: oracle=per-cell exact solve, "
                                         "flat zero set along both edge rays]"),
            "definiteness": Expected("indefinite",
                                     "[PAPER: pairing value -2 at the witness pair]"),
            "kernel_trivial": Expected(False,
                                       "[DERIVED: oracle=face-pair enumeration of "
                                       "the graph normal cone]"),
            "prox_regular": Expected(True, "[DERIVED: oracle=grid bisection, "
                                           "minimal r = 2 from interior pairs]"),
            "localization": Expected("fails",
                                     "[DERIVED: oracle=two-segment inverse slice]"),
            "hessian_witness": Expected(((0, 1), (0, -2), -2),
                                        "[PAPER: membership of the witness pair with "
                                        "pairing -2]"),
            "metric_kappa": Expected(None, "[DERIVED: oracle=empty preimages off "
                                           "the wedge range]"),
        },
        tags=frozenset({"minimizer", "t31", "oracle"})))

    add(Fixture(
        "cross-quadratic",
        _exact([[2, 0], [0, 2]], [0, 0], _cross_pieces(), (0, 0), (0, 0),
               "cross-quadratic"),
        {
            "local_min": Expected(True, "[TRIVIAL: strictly positive off the origin]"),
            "tilt": Expected("unstable",
                             "[PAPER: symmetric tilts split the argmin]"),
            "definiteness": Expected("positive_definite",
                                     "[DERIVED: oracle=graph-plane normal computation; "
                                     "the equivalence chain does not apply, the "
                                     "fixture is not prox-regular]"),
            "kernel_trivial": Expected(True,
                                       "[DERIVED: oracle=graph-plane normals]"),
            "prox_regular": Expected(False, "[PAPER: fails prox-regularity at the "
                                            "reference pair]"),
            "metric_kappa": Expected(0.5, "[DERIVED: oracle=axiswise ratio analysis]"),
            "localization": Expected("fails", "[PAPER: not strongly regular]"),
        },
        tags=frozenset({"minimizer", "oracle"})))

    add(Fixture(
        "neg-quad",
        _exact([[-1]], [0], [ConvexPolyhedron.full_space(1)], (0,), (0,), "neg-quad"),
        {
            "local_min": Expected(False, "[TRIVIAL: concave]"),
            "condition_r_threshold": Expected(
                1.0, "[PAPER: the paired bounds hold exactly from r = 1 on]"),
        },
        tags=frozenset()))

    add(Fixture(
        "halfline-tilted",
        _exact([[0]], [0], [ConvexPolyhedron([(-1,)], (0,), dim=1)], (0,), (-1,),
               "halfline-tilted"),
        {
            "metric_kappa_finite": Expected(
                True, "[DERIVED: oracle=complementarity geometry, preimages stay {0}]"),
        },
        tags=frozenset()))

    add(Fixture(
        "oscillating-1d",
        ProblemInstance(ANALYTIC_REGISTRY["sin-inv"], (0.0,), (0.0,), Params(eta=F(1, 20)),
                        name="oscillating-1d"),
        {
            "growth_alpha_1": Expected(True, "[PAPER: rate-1 norm-squared growth at 0]"),
            "stationary_accumulation": Expected(
                True, "[DERIVED: oracle=dense derivative sign scan; solutions "
                      "accumulate at the reference point, which is therefore not "
                      "isolated in the solution set]"),
        },
        tags=frozenset({"analytic"})))

    add(Fixture(
        "abs-1d",
        ProblemInstance(ANALYTIC_REGISTRY["abs"], (0.0,), (0.0,), Params(), name="abs-1d"),
        {
            "subreg_eta_scaling": Expected(
                True, "[DERIVED: oracle=ratio |x| over unit residual, sup = eta]"),
        },
        tags=frozenset({"analytic"})))

    return out


CORPUS = build_corpus()


def fixture(name: str) -> Fixture:
    if name not in CORPUS:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(CORPUS)}")
    return CORPUS[name]


def minimizer_fixtures() -> list[Fixture]:
    return [f for f in CORPUS.values() if "minimizer" in f.tags]
