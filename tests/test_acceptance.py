"""Acceptance gate: one test per contracted criterion, each printing a
PASS/FAIL line with its runtime and pinned tolerance."""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from tiltkit.fixtures import fixture
from tiltkit.hessian import INDEFINITE, POSITIVE_DEFINITE, definiteness, kernel, \
    second_order_map
from tiltkit.rational import dot, vec
from tiltkit.regularity import (check_growth, check_single_valued_localization,
                                estimate_metric_regularity_modulus,
                                estimate_subregularity_modulus,
                                tilt_stability_verdict)
from tiltkit.subdiff import stationary_points_1d
from tiltkit.model import ANALYTIC_REGISTRY
from tiltkit.verifier import conjecture_probe, run_suite


def _report(n: int, label: str, ok: bool, runtime: float, cap: float | None):
    status = "PASS" if ok else "FAIL"
    bound = f" (<{cap}s)" if cap else ""
    print(f"ACCEPTANCE {n}: {status} - {label} [{runtime:.2f}s{bound}]")
    assert ok, label


def test_criterion_1_saddle_cone_exact_reproduction():
    inst = fixture("saddle-cone").instance
    t0 = time.perf_counter()
    som = second_order_map(inst.f, inst.xbar, inst.xstar)
    member = som.contains((0, 1), (0, -2))
    dv = definiteness(inst.f, inst.xbar, inst.xstar)
    pairing = dot(vec((0, -2)), vec((0, 1)))
    rt = time.perf_counter() - t0
    ok = (member and dv.verdict == INDEFINITE and pairing == -2
          and dv.witness is not None and dv.witness[2] < 0 and rt < 5.0)
    _report(1, "saddle-cone witness membership, exact pairing -2, indefinite",
            ok, rt, 5.0)


def test_criterion_2_saddle_cone_tilt_failure():
    inst = fixture("saddle-cone").instance
    t0 = time.perf_counter()
    tilt = tilt_stability_verdict(inst)
    rt = time.perf_counter() - t0
    pts = np.array(tilt.witness_minimizers) if tilt.witness_minimizers else np.zeros((1, 2))
    dia = max((float(np.linalg.norm(a - b)) for a in pts for b in pts), default=0.0)
    ok = (tilt.verdict == "unstable" and tilt.witness_tilt == (0.0, 0.0)
          and len(tilt.witness_minimizers) >= 2 and dia >= 0.4 and rt < 10.0)
    _report(2, f"zero-tilt argmin splits with diameter {dia:.3f} >= 0.4", ok, rt, 10.0)


def test_criterion_3_cross_quadratic_split():
    inst = fixture("cross-quadratic").instance
    t0 = time.perf_counter()
    est = estimate_metric_regularity_modulus(inst)
    loc = check_single_valued_localization(inst)
    rt = time.perf_counter() - t0
    sym = None
    if loc.witness_tilt is not None:
        mags = sorted(abs(t) for t in loc.witness_tilt)
        sym = mags[-1] - mags[0]
    ok = (est.converged and math.isfinite(est.value)
          and not loc.holds_on_grid and sym is not None and sym <= 1e-9
          and rt < 30.0)
    _report(3, f"metric modulus {est.value:.3f} converged; localization fails "
               f"at a symmetric tilt", ok, rt, 30.0)


def test_criterion_4_oscillating_growth_and_accumulation():
    inst = fixture("oscillating-1d").instance
    t0 = time.perf_counter()
    rep = check_growth(inst, 1.0, "norm-squared", eta=0.05, n_points=100_001)
    roots = stationary_points_1d(ANALYTIC_REGISTRY["sin-inv"], (0.001, 0.1), 100_000)
    rt = time.perf_counter() - t0
    ok = rep.passed and rep.checked == 100_001 and len(roots) >= 3 and rt < 10.0
    _report(4, f"rate-1 growth on 1e5 grid (tol 1e-9), {len(roots)} stationary "
               "points", ok, rt, 10.0)


def test_criterion_5_smooth_reduction():
    t0 = time.perf_counter()
    r = run_suite("SMOOTH")
    rt = time.perf_counter() - t0
    ok = not r.failed and rt < 10.0
    _report(5, "second-order values {Qu}, PD verdict, both moduli within 5% of 1",
            ok, rt, 10.0)


def test_criterion_6_subregularity_growth_chain():
    t0 = time.perf_counter()
    r = run_suite("T3.1")
    rt = time.perf_counter() - t0
    ok = not r.failed and r.artifacts["eligible"] >= 5
    _report(6, f"{r.artifacts['eligible']} fixtures pass growth at alpha=0.9/kappa "
               "(tol 1e-9)", ok, rt, None)


def test_criterion_7_second_order_equivalences():
    t0 = time.perf_counter()
    r = run_suite("T4.12")
    rt = time.perf_counter() - t0
    ok = not r.failed and r.artifacts["counted"] >= 10 and rt < 120.0
    _report(7, f"three verdicts pairwise identical on {r.artifacts['counted']} "
               "gated minimizer fixtures", ok, rt, 120.0)


def test_criterion_8_normal_cone_oracle():
    t0 = time.perf_counter()
    r = run_suite("ORACLE")
    rt = time.perf_counter() - t0
    ok = not r.failed and len(r.checks) == 5 and all(c.details["equal"] is True for c in r.checks)
    _report(8, "5 fixtures, limiting normal cones equal the sampled unions", ok, rt, None)


def test_criterion_9_conjecture_probe():
    t0 = time.perf_counter()
    r = conjecture_probe(1, 50)
    rt = time.perf_counter() - t0
    escal = r.artifacts["escalations"]
    if escal:
        print("=" * 72)
        print("DISTINGUISHED REPORT SECTION: probe escalations (research-grade "
              "findings, not failures):")
        for e in escal:
            print("  ", e)
        print("=" * 72)
    ok = r.artifacts["produced"] == 50 and rt < 300.0 and not r.failed
    _report(9, f"probe seed=1 count=50 completed, {len(escal)} escalation(s)",
            ok, rt, 300.0)
