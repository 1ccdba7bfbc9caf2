"""Command-line interface.

  analyze <problem-file> [--eta R] [--delta R] [--gamma R] [--grid N]
                         [--format json|markdown]
  verify <suite-id|all> [--format json|markdown]
  probe --seed S --count K [--format json|markdown]
  fixtures list

Exit codes: 0 all pass / no counterexample, 1 failures, 2 usage or parse
errors.  Probe escalations are surfaced loudly but are findings, not
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from . import regularity as reg
from .fixtures import CORPUS
from .hessian import definiteness, kernel
from .model import ParseError, ProblemInstance, ValidationError, parse_problem
from .subdiff import EmptySliceError
from .verifier import (SuiteResult, CheckResult, PASS, FAIL,
                       conjecture_probe, emit_report, run_all, run_suite)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tiltkit")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a problem file")
    pa.add_argument("problem_file")
    pa.add_argument("--eta", type=str, default=None)
    pa.add_argument("--delta", type=str, default=None)
    pa.add_argument("--gamma", type=str, default=None)
    pa.add_argument("--grid", type=int, default=None)
    pa.add_argument("--format", choices=("json", "markdown"), default="json")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help="suite id or 'all'")
    pv.add_argument("--format", choices=("json", "markdown"), default="json")

    pp = sub.add_parser("probe", help="randomized regularity probe")
    pp.add_argument("--seed", type=int, required=True)
    pp.add_argument("--count", type=int, required=True)
    pp.add_argument("--format", choices=("json", "markdown"), default="json")

    pf = sub.add_parser("fixtures", help="fixture corpus operations")
    pf.add_argument("action", choices=("list",))
    return ap


def _analyze(inst: ProblemInstance) -> SuiteResult:
    s = SuiteResult("ANALYZE", f"analysis of {inst.name or 'problem'}")
    est = reg.estimate_subregularity_modulus(inst)
    s.artifacts["subregularity_kappa"] = est.value if math.isfinite(est.value) else "inf"
    s.artifacts["subregularity_converged"] = est.converged
    s.checks.append(CheckResult("subregularity modulus estimated",
                                PASS if not est.failed else FAIL,
                                "", {"value": est.value, "history": est.history}))
    for mode in reg.GROWTH_MODES:
        try:
            ah = reg.growth_alpha_hat(inst, mode)
            s.artifacts[f"alpha_hat_{mode}"] = ah
        except (ValidationError, EmptySliceError) as e:  # reported, not fatal: slices can be empty
            s.artifacts[f"alpha_hat_{mode}"] = f"unavailable: {e}"
    if inst.f.is_exact:
        r_min, _ = reg.minimal_prox_r(inst)
        s.artifacts["minimal_prox_r"] = r_min if math.isfinite(r_min) else "inf"
        est2 = reg.estimate_metric_regularity_modulus(inst)
        s.artifacts["metric_regularity_kappa"] = est2.value if math.isfinite(est2.value) else "inf"
        s.artifacts["metric_regularity_converged"] = est2.converged
        if est2.failure:
            s.artifacts["metric_regularity_failure"] = est2.failure
        loc = reg.check_single_valued_localization(inst)
        s.artifacts["localization"] = "holds-on-grid" if loc.holds_on_grid else "fails"
        if loc.witness_tilt is not None:
            s.artifacts["localization_witness"] = loc.witness_tilt
        dv = definiteness(inst.f, inst.xbar, inst.xstar)
        kr = kernel(inst.f, inst.xbar, inst.xstar)
        s.artifacts["definiteness"] = dv.verdict
        if dv.witness is not None:
            u, us, val = dv.witness
            s.artifacts["definiteness_witness"] = {
                "u": [str(t) for t in u], "ustar": [str(t) for t in us],
                "pairing": str(val)}
        s.artifacts["kernel_trivial"] = kr.trivial
        tilt = reg.tilt_stability_verdict(inst)
        s.artifacts["tilt_verdict"] = tilt.verdict
        if tilt.modulus is not None:
            s.artifacts["tilt_modulus"] = tilt.modulus
        if tilt.witness_tilt is not None:
            s.artifacts["tilt_witness"] = tilt.witness_tilt
    s.checks.append(CheckResult("analysis complete", PASS, "", {}))
    return s


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)

    if args.command == "fixtures":
        for name in sorted(CORPUS):
            fx = CORPUS[name]
            kind = fx.instance.f.variant
            print(f"{name:22s} {kind:9s} tags={','.join(sorted(fx.tags)) or '-'}")
        return 0

    if args.command == "verify":
        try:
            results = run_all() if args.suite == "all" else [run_suite(args.suite)]
        except KeyError as e:
            print(f"error: {e.args[0]}", file=sys.stderr)
            return 2
        print(emit_report(results, args.format), end="")
        return 1 if any(r.failed for r in results) else 0

    if args.command == "probe":
        if args.count < 1:
            print("error: --count must be at least 1", file=sys.stderr)
            return 2
        result = conjecture_probe(args.seed, args.count)
        print(emit_report([result], args.format), end="")
        if result.escalations:
            print(f"\nESCALATIONS: {len(result.escalations)} candidate "
                  "counterexample(s); see the escalations artifact.",
                  file=sys.stderr)
        return 1 if result.failed else 0

    # analyze
    try:
        with open(args.problem_file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        inst = parse_problem(text)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    overrides = {}
    try:
        for key in ("eta", "delta", "gamma"):
            v = getattr(args, key)
            if v is not None:
                overrides[key] = Fraction(v)
        if args.grid is not None:
            overrides["grid"] = args.grid
        if overrides:
            inst = ProblemInstance(inst.f, inst.xbar, inst.xstar,
                                   inst.params.replace(**overrides), name=inst.name)
    except (ValueError, ZeroDivisionError) as e:  # ValidationError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    result = _analyze(inst)
    result.runtime = time.perf_counter() - t0
    print(emit_report([result], args.format), end="")
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
