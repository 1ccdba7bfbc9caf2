"""Verification suites over the fixture corpus, the randomized probe for
the regularity/strong-regularity question, and report emission.

Suites are consistency checks between independently computed quantities,
never re-proofs.  Existence-quantified positive outcomes are reported as
"no-counterexample-on-grid", which the result type enforces; probe
escalations are surfaced in a distinguished section and never counted as
failures.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import regularity as reg
from .cells import limiting_normal_cone, sampled_regular_normals
from .cones import PolyCone
from .copositive import cone_form_min_sign, graph_form
from .fixtures import CORPUS, fixture, minimizer_fixtures
from .hessian import (INDEFINITE, POSITIVE_DEFINITE, build_graph_model, definiteness,
                      hessian_sum_rule_check, kernel, second_order_map)
from .model import (FunctionSpec, Params, ProblemInstance, QuadraticForm,
                    ValidationError, ANALYTIC_REGISTRY)
from .polyhedra import ConvexPolyhedron, PolyUnion, cone_polyhedron, critical_cone, same_union
from .rational import F0, dot, is_zero, matvec, norm_sq, vec
from .subdiff import inverse_image, stationary_points_1d

PASS = "pass"
FAIL = "fail"
NO_COUNTEREXAMPLE = "no-counterexample-on-grid"
SKIPPED = "skipped"
ESCALATED = "escalated"


@dataclass
class CheckResult:
    name: str
    status: str
    provenance: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    suite: str
    title: str
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    @property
    def escalations(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == ESCALATED]

    def add(self, name: str, ok: bool, provenance: str = "", existence: bool = False,
            **details) -> None:
        status = (NO_COUNTEREXAMPLE if existence else PASS) if ok else FAIL
        self.checks.append(CheckResult(name, status, provenance, dict(details)))

    def skip(self, name: str, reason: str) -> None:
        self.checks.append(CheckResult(name, SKIPPED, "", {"reason": reason}))


def _jsonable(x):
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator] if x.denominator != 1 else x.numerator
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x))
    return x


# -- individual suites -----------------------------------------------------------


def _suite_saddle_cone() -> SuiteResult:
    s = SuiteResult("EX4.14", "saddle-cone second-order verdicts")
    fx = fixture("saddle-cone")
    inst = fx.instance
    f = inst.f
    som = second_order_map(f, inst.xbar, inst.xstar)
    u = (0, 1)
    w = (0, -2)
    member = som.contains(u, w)
    pairing = dot(vec(w), vec(u))
    s.add("hessian witness membership", member,
          fx.expected["hessian_witness"].provenance,
          u=u, w=w)
    s.add("pairing value is exactly -2", pairing == F0 - 2,
          fx.expected["hessian_witness"].provenance, pairing=_jsonable(pairing))
    dv = definiteness(f, inst.xbar, inst.xstar)
    s.add("definiteness indefinite", dv.verdict == INDEFINITE,
          fx.expected["definiteness"].provenance, verdict=dv.verdict,
          witness=_jsonable(dv.witness))

    kr = kernel(f, inst.xbar, inst.xstar)
    s.add("kernel nontrivial", not kr.trivial,
          fx.expected["kernel_trivial"].provenance,
          basis=_jsonable(kr.basis[:4]))

    # critical cone of the wedge at the origin for the zero normal is the wedge
    wedge = f.domain.pieces[0]
    tangent = wedge.tangent_cone(inst.xbar)
    crit = critical_cone(wedge, inst.xbar, (0, 0))
    wedge_cone = PolyCone.from_inequalities(wedge.a, 2)
    s.add("critical cone equals the wedge", crit.equals(wedge_cone) and
          tangent.equals(wedge_cone),
          "[PAPER: the critical cone at the apex is the wedge itself]")

    tilt = reg.tilt_stability_verdict(inst)
    pts = np.array(tilt.witness_minimizers) if tilt.witness_minimizers else np.zeros((1, 2))
    dia = max((float(np.linalg.norm(a - b)) for a in pts for b in pts), default=0.0)
    s.add("tilt unstable at the zero tilt", tilt.verdict == "unstable" and
          tilt.witness_tilt == (0.0, 0.0), fx.expected["tilt"].provenance,
          witness_tilt=tilt.witness_tilt, diameter=dia)
    s.add("argmin diameter at least 0.4", dia >= 0.4,
          fx.expected["tilt"].provenance, diameter=dia)

    s.add("second-order sum rule", hessian_sum_rule_check(f, inst.xbar, inst.xstar),
          "[PAPER: quadratic shift of the indicator second-order map]")
    r_min, _ = reg.minimal_prox_r(inst)
    s.add("prox-regular with finite lower constant", math.isfinite(r_min),
          fx.expected["prox_regular"].provenance, minimal_r=r_min)
    s.artifacts["minimal_prox_r"] = r_min
    return s


def _suite_cross_quadratic() -> SuiteResult:
    s = SuiteResult("R4.8", "cross-quadratic regular-but-not-strongly split")
    fx = fixture("cross-quadratic")
    inst = fx.instance
    est = reg.estimate_metric_regularity_modulus(inst)
    s.add("metric regularity modulus converges", est.converged and
          math.isfinite(est.value), fx.expected["metric_kappa"].provenance,
          kappa=est.value, history=est.history)
    loc = reg.check_single_valued_localization(inst)
    sym = None
    if loc.witness_tilt is not None:
        mags = sorted(abs(t) for t in loc.witness_tilt)
        sym = mags[-1] - mags[0]
    s.add("single-valued localization fails", not loc.holds_on_grid,
          fx.expected["localization"].provenance, witness=loc.witness_tilt,
          points=loc.witness_points)
    s.add("witness tilt is magnitude-symmetric", sym is not None and sym <= 1e-9,
          fx.expected["localization"].provenance, spread=sym)
    tilt = reg.tilt_stability_verdict(inst)
    s.add("tilt unstable", tilt.verdict == "unstable",
          fx.expected["tilt"].provenance, witness=tilt.witness_tilt)
    r_min, out = reg.minimal_prox_r(inst)
    s.add("prox-regularity fails on the grid", not math.isfinite(r_min),
          fx.expected["prox_regular"].provenance, minimal_r=_jsonable(r_min),
          worst_violation=out.worst)
    dv = definiteness(inst.f, inst.xbar, inst.xstar)
    s.add("definiteness positive-definite (equivalence hypotheses fail here)",
          dv.verdict == POSITIVE_DEFINITE, fx.expected["definiteness"].provenance,
          verdict=dv.verdict)
    s.artifacts["metric_kappa"] = est.value
    return s


def _suite_oscillating() -> SuiteResult:
    s = SuiteResult("EX3.4", "oscillating growth with accumulating solutions")
    fx = fixture("oscillating-1d")
    inst = fx.instance
    rep = reg.check_growth(inst, 1.0, "norm-squared", eta=0.05)
    s.add("norm-squared growth with rate 1, zero violations", rep.passed,
          fx.expected["growth_alpha_1"].provenance, checked=rep.checked,
          violations=len(rep.violations))
    roots = stationary_points_1d(ANALYTIC_REGISTRY["sin-inv"], (0.001, 0.1), 100_000)
    s.add("at least 3 stationary points in (0.001, 0.1)", len(roots) >= 3,
          fx.expected["stationary_accumulation"].provenance, count=len(roots),
          smallest=roots[0] if roots else None)
    s.add("solutions accumulate toward the reference point",
          bool(roots) and roots[0] < 0.01,
          fx.expected["stationary_accumulation"].provenance)
    s.artifacts["stationary_count"] = len(roots)
    return s


def _suite_subregularity_growth() -> SuiteResult:
    s = SuiteResult("T3.1", "subregularity with lower estimate implies "
                            "distance-squared growth")
    eligible = 0
    for fx in CORPUS.values():
        if "t31" not in fx.tags:
            continue
        inst = fx.instance
        est = reg.estimate_subregularity_modulus(inst)
        if not est.converged or not math.isfinite(est.value) or est.value <= 0:
            s.skip(fx.name, f"subregularity estimate not converged ({est.value})")
            continue
        kappa = est.value
        r_min, _ = reg.minimal_prox_r(inst, mode="3.1")
        if not (r_min < 1.0 / kappa):
            s.skip(fx.name, f"lower-estimate constant {r_min} not below 1/kappa")
            continue
        eligible += 1
        alpha = 0.9 / kappa
        rep = reg.check_growth(inst, alpha, "distance-squared")
        s.add(f"{fx.name}: growth at alpha=0.9/kappa", rep.passed,
              "[DERIVED: oracle=grid evaluation of the growth inequality]",
              kappa=kappa, r=r_min, alpha=alpha, violations=len(rep.violations))
    s.add("at least 5 eligible fixtures", eligible >= 5, "", eligible=eligible)
    s.artifacts["eligible"] = eligible
    return s


def _suite_strong_subregularity() -> SuiteResult:
    s = SuiteResult("C3.3", "norm-squared growth chain forces an isolated solution")
    for fx in CORPUS.values():
        if "c33" not in fx.tags:
            continue
        inst = fx.instance
        loc = reg.check_single_valued_localization(inst)
        alpha = reg.growth_alpha_hat(inst, "norm-squared")
        if not loc.holds_on_grid or alpha <= 0:
            s.skip(fx.name, "chain hypotheses not met on the grid")
            continue
        beta = alpha / 2
        low = reg.check_lower_prox_inequality(inst, beta, "3.10")
        if not low.passed:
            s.skip(fx.name, "reference-side lower estimate fails at beta")
            continue
        box = ConvexPolyhedron.box(inst.xbar, inst.params.eta)
        sl = inverse_image(inst.f, inst.xstar, box)
        pts = reg._slice_points(sl, inst.xbar, inst.params.eta)
        only_ref = all(p == inst.xbar for p in pts)
        s.add(f"{fx.name}: solution set is the reference point alone", only_ref,
              "[DERIVED: oracle=exact inverse slice in the eta-ball]",
              alpha=alpha, beta=beta, points=len(pts))
    return s


def _suite_uniform_growth() -> SuiteResult:
    s = SuiteResult("T3.7", "uniform growth along tilted subgradients")
    i_diag = fixture("quad-diag").instance
    out = reg.check_uniform_growth(i_diag, 1)
    s.add("quad-diag holds at rate 1/2", out.passed,
          "[DERIVED: oracle=exact quadratic expansion]", existence=True,
          checked=out.checked)
    out2 = reg.check_uniform_growth(i_diag, Fraction(2, 5))
    s.add("quad-diag refuted at excessive rate", not out2.passed,
          "[DERIVED: oracle=slow-direction analysis]",
          witnesses=len(out2.violations))
    i1 = fixture("quad-1d").instance
    s.add("quad-1d holds at rate 1/2", reg.check_uniform_growth(i1, 1).passed,
          "[TRIVIAL: exact equality case]", existence=True)
    i414 = fixture("saddle-cone").instance
    for kappa in (Fraction(1, 2), 1, 5):
        outk = reg.check_uniform_growth(i414, kappa)
        s.add(f"saddle-cone refuted at kappa={kappa}", not outk.passed,
              "[DERIVED: oracle=flat rays kill the quadratic term]",
              witnesses=len(outk.violations))
    return s


def _suite_regularity_prox_growth() -> SuiteResult:
    s = SuiteResult("C3.9", "metric regularity with two-sided lower estimate "
                            "implies the subgradient inequality")
    for fx in CORPUS.values():
        if "c39" not in fx.tags:
            continue
        inst = fx.instance
        est = reg.estimate_metric_regularity_modulus(inst)
        if not est.converged or not math.isfinite(est.value) or est.value <= 0:
            s.skip(fx.name, "metric regularity estimate not converged")
            continue
        r_min, _ = reg.minimal_prox_r(inst, mode="3.15")
        if not (r_min < 1.0 / est.value):
            s.skip(fx.name, f"two-sided constant {r_min} not below 1/kappa")
            continue
        out = reg.check_lower_prox_inequality(inst, 0, "3.13")
        s.add(f"{fx.name}: subgradient inequality on the grid", out.passed,
              "[DERIVED: oracle=graph-pair grid evaluation]",
              kappa=est.value, r=r_min, worst=out.worst)
    neg = fixture("neg-quad").instance
    est = reg.estimate_metric_regularity_modulus(neg)
    r_min, _ = reg.minimal_prox_r(neg, mode="3.15")
    s.add("neg-quad stays outside the chain hypotheses",
          r_min * est.value >= 1 - 1e-6,
          "[DERIVED: oracle=equality case of the lower estimate]",
          kappa=est.value, r=r_min)
    return s


def _prox_gate(inst: ProblemInstance) -> bool:
    r_min, _ = reg.minimal_prox_r(inst)
    return math.isfinite(r_min)


def _suite_tilt_definiteness() -> SuiteResult:
    s = SuiteResult("T4.6", "tilt stability iff positive-definiteness "
                            "(prox-regular minimizers)")
    for fx in minimizer_fixtures():
        inst = fx.instance
        if not fx.expect("prox_regular", True):
            s.skip(fx.name, "outside the prox-regular class")
            continue
        tilt = reg.tilt_stability_verdict(inst)
        dv = definiteness(inst.f, inst.xbar, inst.xstar)
        agree = (tilt.verdict == "stable") == (dv.verdict == POSITIVE_DEFINITE)
        s.add(f"{fx.name}: tilt <-> definiteness", agree,
              fx.expected["tilt"].provenance, tilt=tilt.verdict,
              definiteness=dv.verdict)
    return s


def _suite_second_order_equivalence() -> SuiteResult:
    s = SuiteResult("T4.12", "tilt / definiteness / kernel equivalences across "
                             "the prox-regular minimizer corpus")
    counted = 0
    for fx in minimizer_fixtures():
        inst = fx.instance
        if not fx.expect("prox_regular", True):
            s.skip(fx.name, "outside the prox-regular class (gate)")
            continue
        gate = _prox_gate(inst)
        s.add(f"{fx.name}: prox gate agrees with expectation",
              gate == fx.expect("prox_regular", True),
              fx.expected.get("prox_regular").provenance if "prox_regular" in fx.expected else "",
              gate=gate)
        if not gate:
            continue
        counted += 1
        tilt = reg.tilt_stability_verdict(inst)
        dv = definiteness(inst.f, inst.xbar, inst.xstar)
        kr = kernel(inst.f, inst.xbar, inst.xstar)
        a = tilt.verdict == "stable"
        b = dv.verdict == POSITIVE_DEFINITE
        c = kr.trivial and dv.verdict != INDEFINITE
        s.add(f"{fx.name}: three verdicts agree", a == b == c,
              fx.expected["tilt"].provenance,
              tilt=tilt.verdict, definiteness=dv.verdict,
              kernel_trivial=kr.trivial)
        exp_tilt = fx.expect("tilt")
        if exp_tilt is not None:
            s.add(f"{fx.name}: tilt verdict matches the frozen expectation",
                  tilt.verdict == exp_tilt, fx.expected["tilt"].provenance,
                  got=tilt.verdict, expected=exp_tilt)
        exp_def = fx.expect("definiteness")
        if exp_def is not None:
            s.add(f"{fx.name}: definiteness matches the frozen expectation",
                  dv.verdict == exp_def, fx.expected["definiteness"].provenance,
                  got=dv.verdict, expected=exp_def)
    s.add("at least 10 gated minimizer fixtures", counted >= 10, "", counted=counted)
    s.artifacts["counted"] = counted
    return s


def _suite_tilt_modulus_lower() -> SuiteResult:
    s = SuiteResult("C4.10", "tilt modulus lower-bounds the pairing on the "
                             "regular graph normals")
    for name in ("quad-1d", "quad-diag", "quad-rot", "complementarity-1d"):
        fx = fixture(name)
        inst = fx.instance
        tilt = reg.tilt_stability_verdict(inst)
        if tilt.verdict != "stable" or not tilt.modulus:
            s.skip(name, "not tilt-stable with a positive modulus")
            continue
        kappa = Fraction(tilt.modulus).limit_denominator(10_000) * Fraction(21, 20)
        som = second_order_map(inst.f, inst.xbar, inst.xstar)
        form = graph_form(inst.f.dim, 0, -1, -1 / kappa)
        wit = _negative_witness(som.normal_cone.pieces, form)
        s.add(f"{name}: pairing >= |u|^2 / kappa on the graph normals", wit is None,
              "[DERIVED: oracle=cone copositivity at the slack modulus]",
              kappa=float(kappa), witness=_jsonable(wit))
    return s


def _suite_tilt_modulus_bridge() -> SuiteResult:
    s = SuiteResult("C4.11", "tilt modulus times the norm-ratio floor is at "
                             "least one (within 5%)")
    for fx in CORPUS.values():
        if "c411" not in fx.tags:
            continue
        inst = fx.instance
        tilt = reg.tilt_stability_verdict(inst)
        if tilt.verdict != "stable" or not tilt.modulus:
            s.skip(fx.name, "not tilt-stable")
            continue
        t_floor = _norm_ratio_floor(inst)
        s.add(f"{fx.name}: modulus bridge", tilt.modulus * t_floor >= 0.95,
              "[DERIVED: oracle=Dinkelbach on the copositive norm gap]",
              tilt_modulus=tilt.modulus, ratio_floor=t_floor)
    return s


# The floor's precision: an irrational floor is bracketed no wider than this.
FLOOR_WIDTH = Fraction(1, 2 ** 24)


def _negative_witness(pieces: list[PolyCone], form) -> tuple | None:
    """The first piece's point where the form is negative, or None when the
    form is copositive on every piece."""
    return next((w for sign, w in (cone_form_min_sign(p, form) for p in pieces)
                 if sign < 0), None)


def _norm_ratio_floor(inst: ProblemInstance) -> float:
    """Largest t with |w| >= t |z| over every graph normal piece, by
    Dinkelbach's iteration on tau = t^2: from the least |w|^2 / |z|^2 over
    the generators, tau drops to the ratio at a negative witness of
    |w|^2 - tau |z|^2 until that form is copositive on every piece, so tau
    is the floor.  An irrational floor is bracketed: once a step is no
    wider than FLOOR_WIDTH min(tau, 1), the check runs at tau minus that
    width, which bounds t to within FLOOR_WIDTH; that lower end is returned."""
    pieces = second_order_map(inst.f, inst.xbar, inst.xstar).normal_cone.pieces
    n = inst.f.dim

    def ratio(v) -> Fraction:
        return norm_sq(v[:n]) / norm_sq(v[n:])

    ratios = [ratio(g) for p in pieces for g in p.generators() if not is_zero(g[n:])]
    if not ratios:
        return math.inf  # z = 0 on every graph normal
    tau = lo = min(ratios)
    while (w := _negative_witness(pieces, graph_form(n, 1, 0, -lo))) is not None:
        r = ratio(w)
        width = FLOOR_WIDTH * min(r, 1)
        lo = r - width if tau - r <= width else r
        tau = r
    return math.sqrt(lo)


def _suite_smooth_reduction() -> SuiteResult:
    s = SuiteResult("SMOOTH", "smooth reduction to the quadratic part")
    fx = fixture("quad-diag")
    inst = fx.instance
    f = inst.f
    som = second_order_map(f, inst.xbar, inst.xstar)
    dirs = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1), (2, 1), (1, -3),
            (Fraction(1, 2), Fraction(1, 3)), (-2, 5)]
    q = f.smooth.q
    ok = True
    for u in dirs:
        u = vec(u)
        qu = matvec(q, u)
        pieces = som.value(u)
        exact = len(pieces) >= 1 and all(p.contains(qu) for p in pieces) and \
            all(p.poly_dim() == 0 for p in pieces)
        ok = ok and exact and som.contains(u, qu)
    s.add("second-order values are exactly {Qu} on 10 directions", ok,
          "[PAPER: smooth second-order reduction]", directions=len(dirs))
    dv = definiteness(f, inst.xbar, inst.xstar)
    s.add("definiteness positive-definite", dv.verdict == POSITIVE_DEFINITE,
          fx.expected["definiteness"].provenance)
    tilt = reg.tilt_stability_verdict(inst)
    s.add("tilt modulus within 5% of 1", tilt.verdict == "stable" and
          tilt.modulus is not None and abs(tilt.modulus - 1.0) <= 0.05,
          fx.expected["tilt_kappa"].provenance, modulus=tilt.modulus)
    est = reg.estimate_subregularity_modulus(inst)
    s.add("subregularity modulus within 5% of 1",
          est.converged and abs(est.value - 1.0) <= 0.05,
          fx.expected["subreg_kappa"].provenance, value=est.value)
    return s


ORACLE_DOMAIN_FIXTURES = ("cross-quadratic", "saddle-cone", "quadrant")
ORACLE_GRAPH_FIXTURES = ("indicator-halfline", "complementarity-1d")


def _oracle_cases():
    """(check label, union, point, sampler seed, provenance) per ORACLE case."""
    for name in ORACLE_DOMAIN_FIXTURES:
        inst = fixture(name).instance
        yield (f"{name}: domain", inst.f.domain, inst.xbar, 11,
               "[DERIVED: oracle=regular normals at 10^4 sampled points]")
    for name in ORACLE_GRAPH_FIXTURES:
        inst = fixture(name).instance
        model = build_graph_model(inst.f, inst.xbar, inst.xstar)
        yield (f"{name}: graph", model.union, model.basepoint, 13,
               "[DERIVED: oracle=regular normals at 10^4 sampled graph points]")


def _suite_oracle() -> SuiteResult:
    """Each limiting normal cone against the union of regular normal cones
    sampled near its point, compared exactly as sets of polyhedra."""
    s = SuiteResult("ORACLE", "limiting normal cones against sampled regular "
                              "normals")
    for label, union, x, seed, provenance in _oracle_cases():
        sampled = sampled_regular_normals(union, x, 10_000, seed=seed)
        equal = same_union([cone_polyhedron(k) for k in limiting_normal_cone(union, x).pieces],
                           [cone_polyhedron(k) for k in sampled])
        s.add(f"{label} normal cones agree", equal, provenance,
              equal=equal, sampled_cones=len(sampled))
    return s


SUITES = {
    "EX4.14": (_suite_saddle_cone, "saddle-cone-second-order"),
    "R4.8": (_suite_cross_quadratic, "cross-quadratic-split"),
    "EX3.4": (_suite_oscillating, "oscillating-growth"),
    "T3.1": (_suite_subregularity_growth, "subregularity-growth"),
    "C3.3": (_suite_strong_subregularity, "strong-subregularity-growth"),
    "T3.7": (_suite_uniform_growth, "uniform-growth"),
    "C3.9": (_suite_regularity_prox_growth, "regularity-prox-growth"),
    "T4.6": (_suite_tilt_definiteness, "tilt-definiteness"),
    "C4.10": (_suite_tilt_modulus_lower, "tilt-modulus-lower"),
    "C4.11": (_suite_tilt_modulus_bridge, "tilt-modulus-bridge"),
    "T4.12": (_suite_second_order_equivalence, "second-order-equivalence"),
    "SMOOTH": (_suite_smooth_reduction, "smooth-reduction"),
    "ORACLE": (_suite_oracle, "normal-cone-oracle"),
}

ALIASES = {alias: key for key, (_, alias) in SUITES.items()}


def run_suite(suite_id: str) -> SuiteResult:
    key = suite_id if suite_id in SUITES else ALIASES.get(suite_id)
    if key is None:
        raise KeyError(f"unknown suite {suite_id!r}; known: {sorted(SUITES)}")
    fn, _ = SUITES[key]
    t0 = time.perf_counter()
    result = fn()
    result.runtime = time.perf_counter() - t0
    return result


def run_all() -> list[SuiteResult]:
    return [run_suite(k) for k in SUITES]


# -- conjecture probe --------------------------------------------------------------


def _random_instance(rng: random.Random, n: int) -> ProblemInstance | None:
    """A random convex-domain exact instance with the origin on its graph."""
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            q[i][j] = v
            q[j][i] = v
    for i in range(n):
        q[i][i] += Fraction(rng.randint(0, 4))
    rows = []
    for _ in range(rng.randint(1, 3)):
        row = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        if any(row):
            rows.append(row)
    piece = ConvexPolyhedron(tuple(rows), tuple(Fraction(0) for _ in rows), dim=n) \
        if rows else ConvexPolyhedron.full_space(n)
    try:
        f = FunctionSpec(smooth=QuadraticForm.make(q, [0] * n),
                         domain=PolyUnion([piece]))
        inst = ProblemInstance(f, (0,) * n, (0,) * n,
                               Params(grid=5, refine_max=2), name="probe")
        inst.validate()
    except ValidationError:
        return None
    return inst


def conjecture_probe(seed: int, count: int) -> SuiteResult:
    """Random prox-regular minimizers: metric regularity without a
    single-valued inverse localization would be an escalation (reported
    loudly, never as a failure; the question is open)."""
    s = SuiteResult("PROBE", "metric vs strong metric regularity probe")
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    escal = []
    while produced < count and attempts < 40 * count:
        attempts += 1
        inst = _random_instance(rng, rng.choice((1, 2)))
        if inst is None:
            continue
        grow = reg.check_growth(inst, 0.0, "norm-squared", per_axis=5)
        if not grow.passed:
            continue  # regenerated, not counted: not a validated minimizer
        r_min, _ = reg.minimal_prox_r(inst)
        if not math.isfinite(r_min):
            continue  # prox prefilter
        produced += 1
        est = reg.estimate_metric_regularity_modulus(inst)
        if not est.converged or not math.isfinite(est.value):
            s.checks.append(CheckResult(
                f"candidate-{produced}", NO_COUNTEREXAMPLE, "",
                {"metric": "not converged"}))
            continue
        loc = reg.check_single_valued_localization(inst)
        if loc.holds_on_grid:
            s.checks.append(CheckResult(
                f"candidate-{produced}", NO_COUNTEREXAMPLE, "",
                {"kappa": est.value}))
        else:
            finer = reg.check_single_valued_localization(
                ProblemInstance(inst.f, inst.xbar, inst.xstar,
                                inst.params.replace(grid=9), name=inst.name))
            if finer.holds_on_grid:
                s.checks.append(CheckResult(
                    f"candidate-{produced}", NO_COUNTEREXAMPLE, "",
                    {"note": "coarse split vanished under refinement"}))
            else:
                escal.append({"q": _jsonable(inst.f.smooth.q),
                              "rows": _jsonable(inst.f.domain.pieces[0].a),
                              "kappa": est.value,
                              "witness": finer.witness_tilt})
                s.checks.append(CheckResult(
                    f"candidate-{produced}", ESCALATED, "",
                    {"witness": finer.witness_tilt}))
    s.artifacts["produced"] = produced
    s.artifacts["attempts"] = attempts
    s.artifacts["escalations"] = escal
    s.checks.append(CheckResult("escalation count", PASS, "",
                                {"count": len(escal)}))
    return s


# -- reports ------------------------------------------------------------------------


REPORT_SCHEMA = "tiltkit-report/1"


def emit_report(results: list[SuiteResult], fmt: str = "json") -> str:
    """Deterministic serialization; JSON omits wall-clock runtimes so that
    identical invocations are byte-identical."""
    if fmt == "json":
        payload = {
            "schema": REPORT_SCHEMA,
            "results": [
                {
                    "suite": r.suite,
                    "title": r.title,
                    "failed": r.failed,
                    "checks": [
                        {"name": c.name, "status": c.status,
                         "provenance": c.provenance,
                         "details": _jsonable(c.details)}
                        for c in r.checks
                    ],
                    "artifacts": _jsonable(r.artifacts),
                }
                for r in sorted(results, key=lambda r: r.suite)
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    if fmt == "markdown":
        lines = ["# verification report", ""]
        for r in sorted(results, key=lambda r: r.suite):
            lines.append(f"## {r.suite} - {r.title}")
            lines.append("")
            lines.append(f"runtime: {r.runtime:.2f}s")
            lines.append("")
            lines.append("| check | status | provenance |")
            lines.append("|---|---|---|")
            for c in r.checks:
                prov = c.provenance.replace("|", "/")
                lines.append(f"| {c.name} | {c.status} | {prov} |")
            if r.escalations:
                lines.append("")
                lines.append("### ESCALATIONS (research-grade findings)")
                for c in r.escalations:
                    lines.append(f"- {c.name}: {json.dumps(_jsonable(c.details))}")
            if r.artifacts:
                lines.append("")
                lines.append(f"artifacts: `{json.dumps(_jsonable(r.artifacts), sort_keys=True)}`")
            lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
