"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 perfbench/selftest.py

1. Signed permutations keep verdicts: for every fixture and every exact
   problem file, the identity and a non-trivial signed permutation give
   the same verdicts, equal to ``reference.json``.
2. The tracer's wrappers see calls made through ``from .x import y``
   bindings: each layer has calls on the workload meant to exercise it,
   and the second-order workload makes no float projections.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import workloads
from tracer import Tracer

OUT = workloads.ROOT / "perfbench" / "out" / "selftest"


def _num(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def permuted_problem(raw: dict, sp) -> dict:
    """An exact problem file's data composed with a signed permutation."""
    sm = raw["smooth"]
    flat = [r for p in raw["pieces"] for r in p["A"]]
    q, c, rows, ybar, ystar = workloads.transform(sp, sm["Q"], sm["c"], flat,
                                                  raw["xbar"], raw["xstar"])
    out = dict(raw)
    out["smooth"] = dict(sm, Q=[[_num(v) for v in r] for r in q], c=[_num(v) for v in c])
    pieces, k = [], 0
    for p in raw["pieces"]:
        m = len(p["A"])
        pieces.append(dict(p, A=[[_num(v) for v in r] for r in rows[k:k + m]]))
        k += m
    out["pieces"] = pieces
    out["xbar"] = [_num(v) for v in ybar]
    out["xstar"] = [_num(v) for v in ystar]
    return out


def nontrivial(n: int):
    """Reverses the coordinates and flips the first one's sign."""
    return list(range(n))[::-1], [-1] + [1] * (n - 1)


def identity(n: int):
    return list(range(n)), [1] * n


def check_permutations(ref: dict) -> list[str]:
    from tiltkit import fixtures
    errors = []
    for name, want in ref["second-order"].items():
        inst = fixtures.CORPUS[name].instance
        for sp in (identity(inst.f.dim), nontrivial(inst.f.dim)):
            got = workloads.verdict("second-order", workloads.second_order(
                workloads.permuted_instance(inst, sp)))
            if got != want:
                errors.append(f"second-order {name} under {sp}: {got} != {want}")
    OUT.mkdir(parents=True, exist_ok=True)
    for name, want in ref["analyze"].items():
        raw = json.loads((workloads.PROBLEMS / name).read_text())
        if raw.get("variant") != "exact":
            continue
        n = len(raw["xbar"])
        for sp in (identity(n), nontrivial(n)):
            path = OUT / name
            path.write_text(json.dumps(permuted_problem(raw, sp)))
            got = workloads.verdict("analyze", workloads.analyze(path))
            if got != want:
                errors.append(f"analyze {name} under {sp}: {got} != {want}")
    return errors


def check_wrappers(ref: dict) -> list[str]:
    import tiltkit.cones
    import tiltkit.polyhedra
    tracer = Tracer()
    tracer.install()
    errors = []
    if not (tiltkit.polyhedra.hrep_to_vrep is tiltkit.cones.hrep_to_vrep
            and hasattr(tiltkit.polyhedra.hrep_to_vrep, "__wrapped__")):
        errors.append("polyhedra's from-import binding of hrep_to_vrep is not wrapped")
    from tiltkit import fixtures
    path = workloads.PROBLEMS / "saddle-cone.json"
    runs = {
        "probe": lambda: workloads.probe(int(next(iter(ref["probe"])))),
        "second-order": lambda: workloads.second_order(
            fixtures.CORPUS["saddle-cone"].instance),
        "analyze": lambda: workloads.analyze(path),
    }
    expect = {"probe": [("lp.solve_standard.calls", ">0")],
              "second-order": [("cones.hrep_to_vrep.calls", ">0"),
                               ("project.project_polyhedron.calls", "==0")],
              "analyze": [("project.project_polyhedron.calls", ">0")]}
    for workload, run in runs.items():
        tracer.spans.clear()
        run()
        got = tracer.metrics()
        for metric, rule in expect[workload]:
            ok = got[metric] > 0 if rule == ">0" else got[metric] == 0
            if not ok:
                errors.append(f"{workload}: {metric} is {got[metric]}, expected {rule}")
    return errors


def main() -> int:
    ref = workloads.load_reference()
    try:
        errors = check_permutations(ref) + check_wrappers(ref)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("failed" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
