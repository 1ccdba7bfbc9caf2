import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cells import regular_normal_cone
from test_subdiff import exact_functions, line_2d, over_dens

from tiltkit.copositive import cone_form_min_sign, graph_form
from tiltkit.fixtures import CORPUS, fixture
from tiltkit.hessian import second_order_map
from tiltkit.model import (ANALYTIC_REGISTRY, FunctionSpec, Params, ProblemInstance, QuadraticForm,
                           ValidationError, evaluate_exact, parse_problem)
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
from tiltkit.regularity import (ALPHA_CAP, ALPHA_POINTS, DIST_TOL, EIGEN_TIE_TOL, FEASIBLE_TOL,
                                MINIMIZER_TOL, PROX_GRID, PROX_MODES, R_CAP, SECTION_TOL,
                                SECULAR_BISECTIONS, SECULAR_DOUBLINGS, SECULAR_OFFSET,
                                SOLUTION_TOL, TIE_TOL, ZOOM_SCALES, CheckOutcome, ModulusEstimate,
                                _ball_clip, _coarse, _refine, _refinement_schedule, _sup,
                                _Unbounded, _values,
                                ball_lattice,
                                check_growth,
                                check_lower_prox_inequality,
                                check_single_valued_localization,
                                check_uniform_growth, domain_lattice,
                                estimate_metric_regularity_modulus,
                                estimate_subregularity_modulus, graph_point_samples,
                                growth_alpha_hat, minimal_prox_r, solve_tilts,
                                tilt_stability_verdict)
from tiltkit.rational import (add, combine, dot, frac, mat, matvec, neg, norm_sq, solve_affine,
                              sub, to_float, vec, zeros)
from tiltkit.subdiff import (analytic_inverse_points, distance_to_inverse, inverse_image,
                             subdifferential)
from tiltkit.verifier import _random_instance


def inst(name):
    return fixture(name).instance


def test_ball_lattice_is_rational_and_inside():
    pts = ball_lattice((F(0), F(0)), F(1, 10), 5)
    assert (F(0), F(0)) in pts
    for p in pts:
        assert sum(x * x for x in p) <= F(1, 100)


def fraction_ball_lattice(center, radius, per_axis):
    """Oracle: the box lattice in Fractions, filtered by the exact norm."""
    axes = [[c - radius + F(2 * k, per_axis - 1) * radius for k in range(per_axis)]
            for c in center]
    return [pt for pt in itertools.product(*axes) if norm_sq(sub(pt, center)) <= radius * radius]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=30)


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=3),
       rationals.map(abs).filter(lambda r: r > 0), st.integers(2, 17))
def test_ball_lattice_matches_fraction_oracle(center, radius, per_axis):
    got = ball_lattice(tuple(center), radius, per_axis)
    assert got == fraction_ball_lattice(tuple(center), radius, per_axis)
    assert all(type(x) is F for pt in got for x in pt)


def fraction_in(union, x):
    """Oracle: x in some piece of the union, row by row in Fractions."""
    return any(all(dot(a, x) <= b for a, b in zip(p.a, p.b)) for p in union.pieces)


def fraction_zoomed(f, center, radius, per_axis):
    """Oracle: the zoomed lattice as Fraction points, each shrunk toward the
    center and tested row by row."""
    base = [x for x in ball_lattice(center, radius, per_axis) if fraction_in(f.domain, x)]
    seen, out = set(base), list(base)
    for k in range(1, ZOOM_SCALES + 1):
        for x in base:
            q = tuple(c + (xi - c) * F(1, 2 ** k) for c, xi in zip(center, x))
            if q not in seen and fraction_in(f.domain, q):
                seen.add(q)
                out.append(q)
    return out


@settings(max_examples=30, deadline=None)
@given(exact_functions(), st.data())
def test_int_lattices_and_values_match_fraction_oracles(f, data):
    n = f.dim
    vecs = st.lists(over_dens(1), min_size=n, max_size=n).map(tuple)
    upper = {(i, j): data.draw(over_dens()) for i in range(n) for j in range(i, n)}
    smooth = QuadraticForm.make([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)],
                                data.draw(vecs), data.draw(over_dens()))
    f = FunctionSpec(smooth=smooth, domain=f.domain)
    pts = data.draw(st.lists(vecs, max_size=4))
    assert [f.domain.contains(x) for x in pts] == [fraction_in(f.domain, x) for x in pts]
    center, per_axis = data.draw(vecs), data.draw(st.integers(2, 4))
    radius = data.draw(st.sampled_from([F(1, 3), F(1, 7), F(1), F(3, 64)]))
    grid = domain_lattice(f, center, radius, per_axis)
    assert grid == [x for x in ball_lattice(center, radius, per_axis) if fraction_in(f.domain, x)]
    zoomed = domain_lattice(f, center, radius, per_axis, ZOOM_SCALES)
    assert zoomed == fraction_zoomed(f, center, radius, per_axis)
    # f at points whose denominators reach 64 * 7 * 2^13: most values round
    assert _values(f, zoomed).tolist() == [float(evaluate_exact(f, x)) for x in zoomed]


def test_subregularity_quadratics():
    est = estimate_subregularity_modulus(inst("quad-1d"))
    assert est.converged and abs(est.value - 1.0) < 0.02
    est2 = estimate_subregularity_modulus(inst("quad-diag"))
    assert est2.converged and abs(est2.value - 1.0) < 0.02
    # refinement never decreases the supremum estimate
    assert all(a <= b + 1e-15 for a, b in zip(est2.history, est2.history[1:]))


def test_subregularity_analytic_abs_scales_with_eta():
    est = estimate_subregularity_modulus(inst("abs-1d"))
    # ratio |x| / 1 peaks at the ball edge
    assert abs(est.value - 0.1) < 0.01


def scalar_subregularity_analytic(inst):
    """Oracle: the point-by-point sweep that the array sweep of the
    analytic subregularity estimate replaced."""
    fx = inst.f.fixture
    p = inst.params
    x0, v0 = float(inst.xbar[0]), float(inst.xstar[0])
    pts = analytic_inverse_points(fx, v0, x0, 4 * float(p.eta))
    if not pts:
        return ModulusEstimate(math.inf, False, None, failure="empty solution slice")
    arr = np.array(pts)
    lo, hi = max(x0 - float(p.eta), fx.lo), min(x0 + float(p.eta), fx.hi)

    def ratios(n_pts):
        for x in np.linspace(lo, hi, n_pts):
            num = float(np.min(np.abs(arr - x)))
            if num < SOLUTION_TOL:
                continue
            sd = subdifferential(inst.f, (float(x),))
            den = max(sd.lo - v0, v0 - sd.hi, 0.0)
            if den > DIST_TOL:
                yield num / den, (float(x),)

    return _refine([2001, 4001, 8001][: p.refine_max], lambda n: _sup(ratios(n)))


def outcome(estimate, inst):
    try:
        return estimate(inst)
    except ValidationError as e:
        return str(e)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["sin-inv", "abs", "square"]),
       st.integers(min_value=-500, max_value=500).map(lambda k: k / 1000),
       st.integers(min_value=-1600, max_value=1600).map(lambda k: k / 1000),
       st.integers(min_value=1, max_value=30).map(lambda k: F(k, 100)),
       st.integers(min_value=1, max_value=3))
@example("sin-inv", 0.0, 0.0, F(1, 20), 3)  # problems/oscillating.json
@example("sin-inv", 0.0, 1.505, F(1, 10), 2)  # the witness is sin-inv's exceptional x = 0
@example("abs", 0.0, 0.0, F(1, 10), 3)
@example("square", 0.25, 0.0, F(1, 10), 3)
@example("sin-inv", -0.2, 0.0, F(1, 10), 3)  # the sweep leaves the domain
def test_array_subregularity_sweep_equals_pointwise_sweep(name, x0, v0, eta, levels):
    i = ProblemInstance(FunctionSpec(fixture=ANALYTIC_REGISTRY[name]), (x0,), (v0,),
                        Params(eta=eta, refine_max=levels))
    assert outcome(estimate_subregularity_modulus, i) == \
        outcome(scalar_subregularity_analytic, i)


def pointwise_subregularity(inst):
    """Oracle: the exact path's point-by-point sweep that the whole-grid
    sweep of the subregularity estimate replaced."""
    f, p = inst.f, inst.params
    box = ConvexPolyhedron.box(inst.xbar, p.box_halfwidth)
    slice_ = inverse_image(f, inst.xstar, box)
    if slice_.is_empty():
        return ModulusEstimate(math.inf, False, None, failure="empty solution slice")
    xstar_f = np.array([to_float(inst.xstar)])

    def ratios(per_axis):
        for x in domain_lattice(f, inst.xbar, p.eta, per_axis):
            if slice_.contains(x):
                continue
            sd = subdifferential(f, x)
            if sd.contains(inst.xstar):
                continue
            xf = np.array([to_float(x)])
            num = distance_to_inverse(slice_, xf)[0]
            den = sd.distance(xstar_f)[0]
            if den > DIST_TOL:
                yield num / den, to_float(x)

    return _refine(_refinement_schedule(p.grid, p.refine_max), lambda n: _sup(ratios(n)))


def pointwise_metric_regularity(inst):
    """Oracle: the pair-by-pair sweep that the whole-grid sweep of the
    metric regularity estimate replaced."""
    f, p = inst.f, inst.params
    box = ConvexPolyhedron.box(inst.xbar, p.box_halfwidth)

    def ratios(nx, ny):
        xs = domain_lattice(f, inst.xbar, p.eta, nx)
        ys = ball_lattice(inst.xstar, p.delta, ny)
        slices = []
        for y in ys:
            slices.append(inverse_image(f, y, box))
            if slices[-1].is_empty():
                raise _Unbounded(to_float(y), f"empty preimage at y={to_float(y)}")
        for x in xs:
            xf = np.array([to_float(x)])
            sd = subdifferential(f, x)
            for y, slice_ in zip(ys, slices):
                if sd.contains(y):
                    continue
                den = sd.distance(np.array([to_float(y)]))[0]
                if den > DIST_TOL:
                    yield distance_to_inverse(slice_, xf)[0] / den, (to_float(x), to_float(y))

    levels = zip(_refinement_schedule(p.grid, p.refine_max),
                 _refinement_schedule(_coarse(p), p.refine_max))
    return _refine(levels, lambda level: _sup(ratios(*level)))


def exact_problem_files():
    root = Path(__file__).resolve().parent.parent / "problems"
    insts = [parse_problem(path.read_text()) for path in sorted(root.glob("*.json"))]
    return [i for i in insts if i.f.is_exact]


C39_INSTANCES = [fx.instance for fx in CORPUS.values() if "c39" in fx.tags] + \
    [fixture("neg-quad").instance]


def non_dyadic(name, xbar, xstar):
    """A fixture's function at a reference pair (xbar, xstar in sd(xbar)) with
    denominators 3 and 7, at eta 1/3 and delta 1/7: float(xstar) is not xstar,
    so only an exact test finds xstar in a subdifferential."""
    i = inst(name)
    return ProblemInstance(i.f, xbar, xstar, i.params.replace(eta=F(1, 3), delta=F(1, 7)),
                           name=f"{name}-non-dyadic")


NON_DYADIC_INSTANCES = [
    non_dyadic("quad-diag", (F(1, 3), F(-1, 7)), (F(1, 3), F(-2, 7))),  # the gradient
    non_dyadic("cross-quadratic", (F(1, 3), F(0)), (F(2, 3), F(1, 7))),  # gradient + (0, 1/7)
    non_dyadic("wedge-psd", (F(1, 3), F(1, 3)), (F(4, 21), F(10, 21))),  # + row (-1, 1) / 7
    non_dyadic("complementarity-1d", (F(0),), (F(-1, 3),)),  # 1/3 of the row (-1)
    non_dyadic("quadrant", (F(1, 3), F(0)), (F(1, 3), F(-1, 7))),  # + row (0, -1) / 7
]


@pytest.mark.parametrize("i", exact_problem_files() + C39_INSTANCES + NON_DYADIC_INSTANCES,
                         ids=lambda i: i.name)
def test_grid_sweeps_equal_pointwise_sweeps(i):
    assert estimate_metric_regularity_modulus(i) == pointwise_metric_regularity(i)
    assert estimate_subregularity_modulus(i) == pointwise_subregularity(i)


def test_metric_regularity_quadratic_and_halfline():
    est = estimate_metric_regularity_modulus(inst("quad-diag"))
    assert est.converged and abs(est.value - 1.0) < 0.02
    est2 = estimate_metric_regularity_modulus(inst("halfline-tilted"))
    assert math.isfinite(est2.value)


def test_refine_drives_scripted_sweeps():
    from tiltkit.regularity import REFINE_TOL, _refine, _Unbounded

    def scripted(levels):
        script = dict(levels)

        def sweep(level):
            if isinstance(script[level], Exception):
                raise script[level]
            return script[level]
        return sweep

    # converges at the first pair of levels within 2%, never sweeping level 3
    est = _refine([0, 1, 2, 3], scripted([(0, (1.0, "a")), (1, (2.0, "b")),
                                          (2, (2.0 * (1 + REFINE_TOL / 2), "c"))]))
    assert est.converged and est.value == est.history[-1] and len(est.history) == 3
    assert est.witness == "c" and not est.failed
    # a level without a positive ratio keeps the previous witness
    est = _refine([0, 1], scripted([(0, (1.0, "a")), (1, (0.0, None))]))
    assert not est.converged and est.value == 0.0 and est.witness == "a"
    assert est.history == [1.0, 0.0]
    # an unbounded ratio ends the run: inf, not converged, the history so far
    est = _refine([0, 1, 2], scripted([(0, (1.0, "a")),
                                       (1, _Unbounded((0.5,), "empty preimage at y=(0.5,)"))]))
    assert est.value == math.inf and not est.converged
    assert est.witness == (0.5,) and est.history == [1.0]
    assert est.failure == "empty preimage at y=(0.5,)"


def test_metric_regularity_failure_is_reported():
    est = estimate_metric_regularity_modulus(inst("saddle-cone"))
    assert est.failed and est.value == math.inf
    assert "empty preimage" in est.failure


def test_a_box_missing_the_domain_is_an_empty_preimage_not_a_traceback():
    # the unit box about (5, -5) misses the line x1 = x2: every shadow lies
    # in t = 0, so the first y of the sweep already has an empty preimage
    est = estimate_metric_regularity_modulus(ProblemInstance(line_2d(), (5, -5), (0, 0)))
    assert est.failed and est.value == math.inf and not est.converged
    assert est.failure == f"empty preimage at y={est.witness}"


def test_growth_checks():
    rep = check_growth(inst("quad-diag"), 1.0, "norm-squared")
    assert rep.passed
    rep2 = check_growth(inst("quad-diag"), 2.5, "norm-squared")
    assert not rep2.passed
    ah = growth_alpha_hat(inst("quad-diag"), "norm-squared")
    assert abs(ah - 1.0) < 5e-3
    # concave: no positive growth rate survives
    rep3 = check_growth(inst("neg-quad"), 0.5, "norm-squared")
    assert not rep3.passed


def test_growth_analytic_oscillating():
    rep = check_growth(inst("oscillating-1d"), 1.0, "norm-squared", eta=0.05,
                       n_points=100_001)
    assert rep.passed and rep.checked == 100_001


def pointwise_uniform_growth(i, kappa):
    """Oracle: the refuted subgradients, each candidate tested point by
    point against the x-grid."""
    from tiltkit.model import evaluate_exact
    from tiltkit.rational import to_float
    from tiltkit.regularity import TIE_TOL, _ball_points, _coarse, domain_lattice
    from tiltkit.subdiff import inverse_image

    f, p = i.f, i.params
    box = ConvexPolyhedron.box(i.xbar, p.box_halfwidth)
    xs = [(np.array(to_float(x)), float(evaluate_exact(f, x)))
          for x in domain_lattice(f, i.xbar, p.eta, p.grid)]

    def dominates(u, usf):
        uf, fu = np.array(to_float(u)), float(evaluate_exact(f, u))
        return all(fx >= fu + float(usf @ (xf - uf)) +
                   float(np.sum((xf - uf) ** 2)) / (2 * float(kappa)) - TIE_TOL
                   for xf, fx in xs)

    refuted = []
    for ustar in ball_lattice(i.xstar, p.delta, _coarse(p)):
        usf = np.array(to_float(ustar))
        cands = _ball_points(inverse_image(f, ustar, box).pieces, i.xbar, p.eta)
        if not any(dominates(u, usf) for u in cands):
            refuted.append(tuple(map(float, usf)))
    return refuted


@pytest.mark.parametrize("name, kappa", [("quad-1d", 1), ("quad-diag", 1),
                                         ("quad-diag", F(2, 5)), ("saddle-cone", F(1, 2)),
                                         ("cross-quadratic", 1)])
def test_uniform_growth_matches_pointwise_oracle(name, kappa):
    assert check_uniform_growth(inst(name), kappa).violations == \
        pointwise_uniform_growth(inst(name), kappa)


def test_lower_prox_modes():
    convex = inst("quad-diag")
    assert check_lower_prox_inequality(convex, 0, "3.3").passed
    assert check_lower_prox_inequality(convex, 0, "3.10").passed
    assert check_lower_prox_inequality(convex, 0, "3.13").passed
    r, _ = minimal_prox_r(inst("neg-quad"))
    assert abs(r - 1.0) < 5e-3
    r2, _ = minimal_prox_r(inst("saddle-cone"))
    assert abs(r2 - 2.0) < 5e-3
    r3, _ = minimal_prox_r(inst("cross-quadratic"))
    assert r3 == math.inf
    with pytest.raises(ValidationError):
        check_lower_prox_inequality(convex, 0, "bogus")


def test_uniform_growth():
    assert check_uniform_growth(inst("quad-1d"), 1).passed
    assert check_uniform_growth(inst("quad-diag"), 1).passed
    assert not check_uniform_growth(inst("quad-diag"), F(2, 5)).passed
    assert not check_uniform_growth(inst("saddle-cone"), 1).passed


def test_localization():
    loc = check_single_valued_localization(inst("quad-1d"))
    assert loc.holds_on_grid and abs(loc.lipschitz - 1.0) < 1e-9
    loc2 = check_single_valued_localization(inst("cross-quadratic"))
    assert not loc2.holds_on_grid
    a, b = loc2.witness_tilt
    assert abs(abs(a) - abs(b)) <= 1e-9
    loc3 = check_single_valued_localization(inst("saddle-cone"))
    assert not loc3.holds_on_grid


def test_solve_tilt_unique_quadratic():
    [mins] = solve_tilts(inst("quad-diag"), [(F(1, 10), F(1, 10))])
    assert len(mins) == 1
    assert np.allclose(mins[0], (0.1, 0.05))


def test_solve_tilt_cross_symmetric_split():
    [mins] = solve_tilts(inst("cross-quadratic"), [(F(1, 10), F(1, 10))])
    assert sorted(mins) == [(0.0, 0.05), (0.05, 0.0)]


def test_solve_tilt_saddle_flat_rays():
    [mins] = solve_tilts(inst("saddle-cone"), [(0, 0)])
    pts = np.array(mins)
    dia = max(np.linalg.norm(p - q) for p in pts for q in pts)
    assert dia >= 0.4


def test_solve_tilt_dimension_guard():
    import tiltkit.model as model
    from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
    q = [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]
    f = model.FunctionSpec(smooth=model.QuadraticForm.make(q, [0] * 4),
                           domain=PolyUnion([ConvexPolyhedron.full_space(4)]))
    bad = model.ProblemInstance(f, (0,) * 4, (0,) * 4, model.Params())
    with pytest.raises(ValidationError):
        next(solve_tilts(bad, [(0,) * 4]))


# The per-tilt solver that solve_tilts replaced, kept as its oracle: it
# rebuilds every face's hull, reduced Hessians and eigenpairs for each tilt.

def solve_tilt(inst: ProblemInstance, tilt) -> list[tuple[float, ...]]:
    """Exact-candidate global solve of min f(x) - <tilt, x> over the
    gamma-ball: per domain cell face, interior critical points are exact
    rational solves; ball-boundary candidates come from a secular-equation
    solve on the face's affine hull.  All minimizers within TIE_TOL of the
    best value are returned (ties are a verdict, not an error)."""
    if not inst.f.is_exact:
        raise ValidationError("exact variant only")
    f = inst.f
    n = f.dim
    if n > 3:
        raise ValidationError("tilt solves are limited to ambient dimension <= 3")
    p = inst.params
    tilt = vec(tilt)
    gamma = p.gamma
    q, lin = f.smooth.q, sub(f.smooth.c, tilt)
    d0 = f.smooth.d
    xbar = inst.xbar
    gamma_f = float(gamma)
    xbar_f = np.array(to_float(xbar))
    qf = np.array([[float(v) for v in row] for row in q])
    lin_f = np.array(to_float(lin))

    def obj_f(x: np.ndarray) -> float:
        return 0.5 * float(x @ qf @ x) + float(lin_f @ x) + float(d0)

    cand: list[tuple[np.ndarray, float]] = []  # (point, value)

    for piece in f.domain.pieces:
        for _, face in piece.faces():
            p0, dirs = face.affine_hull()
            cand.extend(_face_candidates(p0, dirs, q, lin, piece, xbar, gamma, obj_f))
            cand.extend(_ball_boundary_candidates(p0, dirs, qf, lin_f, piece, xbar_f,
                                                  gamma_f, obj_f))
    if not cand:
        raise ValidationError("empty feasible region for the tilt problem")
    best = min(v for _, v in cand)
    mins: list[np.ndarray] = []
    for x, v in cand:
        if v <= best + TIE_TOL and not any(np.linalg.norm(x - m) <= MINIMIZER_TOL for m in mins):
            mins.append(x)
    return [tuple(map(float, m)) for m in mins]


def _face_candidates(p0, dirs, q, lin, piece, xbar, gamma, obj_f):
    gamma2 = gamma * gamma

    def isolated(pt):  # the one critical point, when it is feasible
        if not (piece.contains(pt) and norm_sq(sub(pt, xbar)) <= gamma2):
            return []
        xf = np.array(to_float(pt))
        return [(xf, obj_f(xf))]

    if not dirs:
        return isolated(p0)
    h = mat([[dot(bi, matvec(q, bj)) for bj in dirs] for bi in dirs])
    g = vec([dot(bi, add(matvec(q, p0), lin)) for bi in dirs])
    sol = solve_affine(h, neg(g), len(dirs))
    if sol is None:
        return []
    s0, null = sol
    x0 = add(p0, combine(dirs, s0))
    if not null:
        return isolated(x0)
    # flat critical set: an affine subset with constant objective
    sol_dirs = [combine(dirs, t) for t in null]
    crit = _affine_in_polyhedron(x0, sol_dirs, piece, xbar, gamma)
    pts_in = [np.array(to_float(pt)) for pt in crit if norm_sq(sub(pt, xbar)) <= gamma2]
    pts_out = [np.array(to_float(pt)) for pt in crit if norm_sq(sub(pt, xbar)) > gamma2]
    out = [(xf, obj_f(xf)) for xf in pts_in]
    # ball clips along the flat set keep witnesses inside the ball
    xbar_f = np.array(to_float(xbar))
    clips = (_ball_clip(a, b, xbar_f, float(gamma)) for a in pts_in for b in pts_out)
    out.extend((t, obj_f(t)) for t in clips if t is not None)
    return out


def _affine_in_polyhedron(x0, sol_dirs, piece, xbar, gamma):
    """Vertex-style representatives of (x0 + span sol_dirs) inside the piece
    and the gamma box."""
    polyt = piece.intersect(ConvexPolyhedron.box(xbar, gamma)).preimage(sol_dirs, x0)
    vs, _, _ = polyt.vrep()
    if not vs:
        return []
    return [add(x0, combine(sol_dirs, t)) for t in vs + [polyt.relint_point()]]


def _ball_boundary_candidates(p0, dirs, qf, lin_f, piece, xbar_f, gamma_f, obj_f):
    """Minimize the quadratic on (affine hull of face) x (gamma-sphere)
    through the secular equation in an orthonormal basis of the hull."""
    out = []
    if not dirs:
        return out
    b = np.array([to_float(d) for d in dirs], dtype=float).T  # n x k
    bq, _ = np.linalg.qr(b)
    p0f = np.array(to_float(p0))
    # x = p0 + bq y ; sphere: |x - xbar| = gamma
    v = p0f - xbar_f
    v_par = bq.T @ v
    v_perp2 = float(v @ v) - float(v_par @ v_par)
    rad2 = gamma_f * gamma_f - v_perp2
    if rad2 <= SECTION_TOL:
        return out
    # objective in y: 1/2 y'Hy + g'y + const, centered so sphere is |y + v_par|^2 = rad2
    h = bq.T @ qf @ bq
    g = bq.T @ (qf @ p0f + lin_f)
    # shift z = y + v_par: minimize 1/2 z'Hz + (g - H v_par)'z over |z|^2 = rad2
    gg = g - h @ v_par
    w, u = np.linalg.eigh(h)
    beta = u.T @ gg
    lo = -float(w[0])

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
        z = -(u @ (beta / (w + mu)))
        roots.append(z)
    else:
        # hard case: minimum eigenspace component free
        tie = np.abs(w - w[0]) < EIGEN_TIE_TOL
        z0 = -(u @ np.where(tie, 0.0, beta / np.where(tie, 1.0, w + lo)))
        tail = rad2 - float(z0 @ z0)
        if tail > 0:
            emin = u[:, 0]
            for sgn in (+1.0, -1.0):
                roots.append(z0 + sgn * math.sqrt(tail) * emin)
    for z in roots:
        y = z - v_par
        x = p0f + bq @ y
        if _feasible_float(piece, x) and abs(
                float(np.linalg.norm(x - xbar_f)) - gamma_f) < MINIMIZER_TOL:
            out.append((x, obj_f(x)))
    return out


def _feasible_float(piece, x: np.ndarray) -> bool:
    if piece.m == 0:
        return True
    a, b = piece.to_float_rows()
    return bool(np.max(np.array(a) @ x - np.array(b)) <= FEASIBLE_TOL)


def tie_instance():
    """-(x1^2 + x2^2)/2 + x3^2 on R^3: the least eigenvalue, -1, is double, so
    a tilt along x3 leaves the sphere solve in the hard case with a tie."""
    q = [[-1, 0, 0], [0, -1, 0], [0, 0, 2]]
    f = FunctionSpec(smooth=QuadraticForm.make(q, [0] * 3),
                     domain=PolyUnion([ConvexPolyhedron.full_space(3)]))
    return ProblemInstance(f, (0,) * 3, (0,) * 3, Params())


def tilt_cases():
    """(instance, tilts): each exact corpus fixture at its verdict's lattice,
    the hard case with an eigenvalue tie, and seeded random 1-D and 2-D
    instances at random rational tilts."""
    for fx in CORPUS.values():
        if fx.instance.f.is_exact:
            p = fx.instance.params
            yield fx.instance, ball_lattice(zeros(fx.instance.f.dim), p.rho, _coarse(p))
    yield tie_instance(), [(0, 0, 0), (0, 0, F(1, 10)), (F(1, 10), 0, 0), (F(1, 30), F(-1, 7), 1)]
    rng = random.Random(5)
    for _ in range(30):
        case = _random_instance(rng, rng.choice((1, 2)))
        if case is not None:
            yield case, [tuple(F(rng.randint(-12, 12), rng.randint(1, 24))
                               for _ in range(case.f.dim)) for _ in range(3)]


def test_solve_tilts_matches_per_tilt_oracle():
    for case, tilts in tilt_cases():
        together = list(solve_tilts(case, tilts))
        assert together == [solve_tilt(case, t) for t in tilts]
        # no state carries from one tilt to the next
        assert together == [next(solve_tilts(case, [t])) for t in tilts]


def test_solve_tilts_hard_case_tie_has_two_sphere_minimizers():
    # the multiplier is the least pole, 1, so x3 = (1/10) / (2 + 1) and the rest
    # of the gamma-sphere's radius goes along the tied (x1, x2) plane, either way
    [mins] = solve_tilts(tie_instance(), [(0, 0, F(1, 10))])
    assert len(mins) == 2
    for m in mins:
        assert abs(np.linalg.norm(m) - 0.5) < 1e-12 and abs(m[2] - 1 / 30) < 1e-12
    assert np.allclose(mins[0], -np.array(mins[1]) * (1, 1, -1))


def test_tilt_verdicts():
    tr = tilt_stability_verdict(inst("quad-diag"))
    assert tr.verdict == "stable" and abs(tr.modulus - 1.0) < 0.05
    tr2 = tilt_stability_verdict(inst("saddle-cone"))
    assert tr2.verdict == "unstable" and tr2.witness_tilt == (0.0, 0.0)
    tr3 = tilt_stability_verdict(inst("cross-quadratic"))
    assert tr3.verdict == "unstable"
    tr4 = tilt_stability_verdict(inst("degenerate-psd"))
    assert tr4.verdict == "unstable"


def check_condition_4_1(inst: ProblemInstance, kappa, r) -> CheckOutcome:
    """At sampled graph points near the reference pair, checks exactly that
    every regular graph normal (w, z) satisfies kappa^2|w|^2 >= |z|^2 and
    <w, -z> >= -r |z|^2 (the coderivative norm bound and lower pairing
    bound), via cone copositivity."""
    f = inst.f
    n = f.dim
    kappa, r = frac(kappa), frac(r)
    union = second_order_map(f, inst.xbar, inst.xstar).model.union
    forms = (("norm", graph_form(n, kappa * kappa, 0, -1)),
             ("pairing", graph_form(n, 0, -1, r)))
    violations = []
    checked = 0
    for (x, xs) in graph_point_samples(f, inst.xbar, inst.xstar, inst.params.eta):
        cone = regular_normal_cone(union, tuple(x) + tuple(xs))
        for name, form in forms:
            sign, wit = cone_form_min_sign(cone, form)
            checked += 1
            if sign < 0:
                violations.append((name, to_float(x), to_float(wit) if wit else None))
    return CheckOutcome(not violations, violations, float(len(violations)), checked)


def test_condition_pair_bounds():
    assert check_condition_4_1(inst("quad-1d"), 1, F(1, 2)).passed
    out = check_condition_4_1(inst("neg-quad"), 1, F(1, 2))
    assert not out.passed
    assert check_condition_4_1(inst("neg-quad"), 1, 1).passed
    assert check_condition_4_1(inst("quad-diag"), 1, 0).passed


def test_first_order_paths_run_no_local_cell_search(monkeypatch):
    import tiltkit.cells
    import tiltkit.hessian
    from tiltkit.verifier import conjecture_probe

    def no_search(union, x):
        raise AssertionError("local-cell search on a first-order path")

    monkeypatch.setattr(tiltkit.cells, "local_cells", no_search)
    conjecture_probe(1, 3)
    path = Path(__file__).resolve().parent.parent / "problems" / "cross-quadratic.json"
    cross = parse_problem(path.read_text())  # a fresh function: no memo from other tests
    minimal_prox_r(cross)
    estimate_metric_regularity_modulus(cross)
    check_condition_4_1(cross, 1, 1)

    # the graph's normal cone is built on its first read, once
    builds = []
    monkeypatch.setattr(tiltkit.hessian, "limiting_normal_cone",
                        lambda union, x: builds.append(x) or object())
    som = tiltkit.hessian.second_order_map(cross.f, cross.xbar, cross.xstar)
    assert som.normal_cone is som.normal_cone and len(builds) == 1


def test_graph_samples_lie_on_graph():
    from tiltkit.subdiff import subdifferential
    i = inst("complementarity-1d")
    pairs = graph_point_samples(i.f, i.xbar, i.xstar, i.params.eta)
    assert len(pairs) >= 3
    assert pairs[0] == (tuple(i.xbar), tuple(i.xstar))
    assert len(set(pairs)) == len(pairs)
    for u, us in pairs:
        assert subdifferential(i.f, u).contains(us)


def test_slice_points_cache_keys_on_content():
    from tiltkit.regularity import _ball_points

    center, radius = (F(0),), F(1, 10)
    # each piece is dropped before the next, different one is built, so
    # CPython tends to hand the next piece the previous one's id
    for k in range(20):
        t = F(k, 200)
        piece = ConvexPolyhedron([(1,), (-1,)], (t, -t))
        assert _ball_points((piece,), center, radius) == ((t,),)


@pytest.mark.parametrize("name", ["quad-diag", "oscillating-1d"])
def test_unknown_growth_mode_is_rejected(name):
    with pytest.raises(ValidationError):
        check_growth(inst(name), 0.5, "bogus")
    with pytest.raises(ValidationError):
        growth_alpha_hat(inst(name), "typo")


def test_growth_alpha_hat_analytic_is_the_largest_passing_alpha():
    osc = inst("oscillating-1d")
    a = growth_alpha_hat(osc, "norm-squared")
    assert 0 < a < ALPHA_CAP
    assert check_growth(osc, a, "norm-squared", n_points=ALPHA_POINTS).passed
    assert not check_growth(osc, a * (1 + 1e-3) + 1e-9, "norm-squared",
                            n_points=ALPHA_POINTS).passed


def test_exact_check_growth_rejects_float_eta():
    inst = fixture("quad-1d").instance
    with pytest.raises(ValidationError, match="int, a Fraction or a 'p/q' string"):
        check_growth(inst, 1.0, "norm-squared", eta=0.05)
    assert check_growth(inst, 1.0, "norm-squared", eta="1/20").passed


@st.composite
def probe_instances(draw):
    """Random instances shaped like the conjecture probe's: a quadratic
    with a nonnegative diagonal shift on a homogeneous polyhedral cone,
    reference pair at the origin."""
    n = draw(st.sampled_from((1, 2)))
    q = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    for i in range(n):
        q[i][i] += draw(st.integers(0, 4))
    rows = [r for r in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                                     min_size=1, max_size=3)) if any(r)]
    piece = ConvexPolyhedron(rows, [0] * len(rows), dim=n)
    f = FunctionSpec(smooth=QuadraticForm.make(q, [0] * n), domain=PolyUnion([piece]))
    return ProblemInstance(f, (0,) * n, (0,) * n, Params(grid=5, refine_max=2))


@pytest.mark.parametrize("mode", PROX_MODES)
@settings(max_examples=6)
@given(probe_instances())
def test_minimal_prox_r_is_the_least_passing_r(mode, instance):
    r, out = minimal_prox_r(instance, mode)

    def check(rr):
        return check_lower_prox_inequality(instance, rr, mode, per_axis=PROX_GRID)

    at_r = check(min(r, R_CAP))
    assert at_r == out and at_r.passed == math.isfinite(r)
    if 0 < r < math.inf:
        assert not check(r * (1 - 1e-3)).passed


@pytest.mark.parametrize("mode", ("norm-squared", "distance-squared"))
@settings(max_examples=6)
@given(probe_instances())
def test_growth_alpha_hat_is_the_largest_passing_alpha(mode, instance):
    a = growth_alpha_hat(instance, mode)
    if a == -math.inf:
        assert not check_growth(instance, 0.0, mode).passed
        return
    assert check_growth(instance, a, mode).passed
    if 0 < a < ALPHA_CAP:
        assert not check_growth(instance, a * (1 + 1e-3) + 1e-9, mode).passed
