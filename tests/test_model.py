import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltkit.model import (ANALYTIC_REGISTRY, FunctionSpec, Params, ParseError,
                           ProblemInstance, QuadraticForm, ValidationError,
                           evaluate_exact, parse_problem, regularize)
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
from tiltkit.subdiff import subdifferential

SADDLE = {
    "variant": "exact",
    "smooth": {"Q": [[2, 0], [0, -2]], "c": [0, 0], "d": 0},
    "pieces": [{"A": [[-1, 1], [-1, -1]], "b": [0, 0]}],
    "xbar": [0, 0],
    "xstar": [0, 0],
}


def saddle_spec() -> FunctionSpec:
    return FunctionSpec(
        smooth=QuadraticForm.make([[2, 0], [0, -2]], [0, 0]),
        domain=PolyUnion([ConvexPolyhedron([(-1, 1), (-1, -1)], (0, 0))]))


def test_parse_valid_problem():
    inst = parse_problem(json.dumps(SADDLE))
    assert inst.f.is_exact and inst.xbar == (0, 0)


def test_parse_rejects_bad_reference_subgradient():
    bad = dict(SADDLE, xstar=[0, 5])
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(bad))


def test_parse_trivial_smooth_problem():
    obj = {"variant": "exact", "smooth": {"Q": [[1]], "c": [0], "d": 0},
           "pieces": [{"A": [], "b": []}], "xbar": [0], "xstar": [0]}
    inst = parse_problem(json.dumps(obj))
    assert inst.f.dim == 1


def test_parse_rejects_floats_in_exact_files():
    bad = dict(SADDLE, xbar=[0.0, 0])
    with pytest.raises(ParseError):
        parse_problem(json.dumps(bad))


def test_parse_rational_strings():
    obj = dict(SADDLE)
    obj["params"] = {"eta": "1/20"}
    inst = parse_problem(json.dumps(obj))
    assert inst.params.eta == F(1, 20)


def test_parse_malformed():
    with pytest.raises(ParseError):
        parse_problem("{not json")
    with pytest.raises(ParseError):
        parse_problem(json.dumps({"variant": "mystery"}))
    with pytest.raises(ParseError):
        parse_problem(json.dumps(dict(SADDLE, xbar=[0])))


def test_parse_analytic():
    obj = {"variant": "analytic", "fixture": "sin-inv", "xbar": [0], "xstar": [0]}
    inst = parse_problem(json.dumps(obj))
    assert inst.f.variant == "analytic"
    with pytest.raises(ParseError):
        parse_problem(json.dumps(dict(obj, fixture="nope")))


def test_evaluate_saddle():
    f = saddle_spec()
    assert evaluate_exact(f, (1, 0)) == 1
    assert evaluate_exact(f, (0, 1)) is None
    # grid floats are dyadic, so each is an exact rational
    assert float(evaluate_exact(f, (F(1.0), F(0.0)))) == 1.0
    assert evaluate_exact(f, (F(0.0), F(1.0))) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_oscillating_at_zero():
    fx = ANALYTIC_REGISTRY["sin-inv"]
    assert fx.in_domain(0.0) and float(fx.value(0.0)) == 0.0
    assert not fx.in_domain(-0.5)
    assert abs(float(fx.value(0.1)) - (0.05 - 0.01 * math.sin(10.0))) < 1e-15
    # at subnormal x, 1/x overflows to inf, and sin(inf) is NaN
    xs = np.array([5e-324, 1e-308])
    assert np.isfinite(fx.value(xs)).all() and np.isfinite(fx.derivative(xs)).all()


def test_regularize_algebra():
    full1 = PolyUnion([ConvexPolyhedron.full_space(1)])
    f = FunctionSpec(smooth=QuadraticForm.make([[1]], [0]), domain=full1)
    g = regularize(f, 1, (0,))
    assert g.smooth.q[0][0] == 2
    f414 = saddle_spec()
    g2 = regularize(f414, 2, (0, 0))
    assert g2.smooth.q == ((4, 0), (0, 0))
    assert evaluate_exact(g2, (1, 1)) == 2  # 2 x1^2 on the wedge


def test_regularize_roundtrip_exact():
    f = saddle_spec()
    g = regularize(regularize(f, F(3, 7), (1, 2)), -F(3, 7), (1, 2))
    assert g.smooth.q == f.smooth.q
    assert g.smooth.c == f.smooth.c
    assert g.smooth.d == f.smooth.d


def test_regularize_shifts_subdifferential_pointwise():
    f = saddle_spec()
    theta, center = F(2), (F(0), F(0))
    g = regularize(f, theta, center)
    pts = [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(2), F(-2)), (F(3), F(1)),
           (F(1), F(-1)), (F(5), F(2)), (F(4), F(4)), (F(2), F(1)), (F(1, 2), F(0))]
    for x in pts:
        sd_f = subdifferential(f, x)
        sd_g = subdifferential(g, x)
        shift = tuple(theta * (xi - ci) for xi, ci in zip(x, center))
        for probe in [(F(0), F(0)), (F(-1), F(1)), (F(-2), F(-2)), (F(1), F(1))]:
            v = tuple(p + b for p, b in zip(probe, sd_f.base))
            assert sd_f.contains(v) == sd_g.contains(tuple(a + s for a, s in zip(v, shift)))


def test_regularize_rejects_analytic():
    f = FunctionSpec(fixture=ANALYTIC_REGISTRY["square"])
    with pytest.raises(ValidationError):
        regularize(f, 1, (0,))


def test_analytic_derivative_consistency():
    for name, fx in ANALYTIC_REGISTRY.items():
        assert fx.check_derivative() <= 1e-6, name


def test_params_validation():
    with pytest.raises(ValidationError):
        Params(eta=F(0))
    p = Params()
    assert p.eta == F(1, 10) and p.gamma == F(1, 2) and p.rho == F(1, 20)


def test_evaluate_finite_iff_member():
    f = saddle_spec()
    inside = [(F(1), F(0)), (F(2), F(1)), (F(3), F(-3))]
    outside = [(F(-1), F(0)), (F(0), F(2)), (F(1), F(-2))]
    for x in inside:
        assert evaluate_exact(f, x) is not None
    for x in outside:
        assert evaluate_exact(f, x) is None


@pytest.mark.parametrize("xbar, xstar", [((0, 0), (0, 0, 99)), ((0, 0, 0), (0, 0))])
def test_validate_rejects_a_reference_pair_of_the_wrong_length(xbar, xstar):
    with pytest.raises(ValidationError, match="dimension mismatch"):
        ProblemInstance(saddle_spec(), xbar, xstar).validate()
