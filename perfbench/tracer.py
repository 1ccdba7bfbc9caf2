"""Span tracing of tiltkit's layers, installed from outside the program.

Each traced function is replaced by a wrapper in every ``tiltkit`` module
that binds it.  Most modules import with ``from .x import y``, so patching
only the defining module would miss their calls.  A wrapper records one
span (name, start, end, parent) per call plus a few counts taken from the
call's arguments or result.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every traced entry point.  The per-layer
# metrics are ``<name>.calls``, ``<name>.self_s`` and ``<name>.total_s``.
LAYERS = (
    ("lp", "solve_standard"),
    ("lp", "strict_homogeneous_feasible"),
    ("polyhedra", "ConvexPolyhedron.implied_equalities"),
    ("cones", "hrep_to_vrep"),
    ("cells", "local_cells"),
    ("cells", "cell_complex"),
    ("copositive", "simplex_min"),
    ("project", "project_polyhedron"),
    ("subdiff", "inverse_image"),
    ("subdiff", "distance_to_inverse"),
    ("subdiff", "subdifferential_distance"),
    ("hessian", "build_graph_model"),
    ("hessian", "definiteness"),
    ("hessian", "kernel"),
    ("regularity", "check_growth"),
    ("regularity", "minimal_prox_r"),
    ("regularity", "growth_alpha_hat"),
    ("regularity", "estimate_subregularity_modulus"),
    ("regularity", "estimate_metric_regularity_modulus"),
    ("regularity", "check_single_valued_localization"),
    ("regularity", "tilt_stability_verdict"),
)
# Traced only for the counts derived from it.
EXTRA = (("verifier", "conjecture_probe"),)

LP = "lp.solve_standard"
IMPLIED = "polyhedra.ConvexPolyhedron.implied_equalities"
VREP = "cones.hrep_to_vrep"
STRICT = "lp.strict_homogeneous_feasible"
SIMPLEX = "copositive.simplex_min"
PROBE = "verifier.conjecture_probe"

# Counts derived from arguments, results and span nesting: name -> unit.
COUNTS = {
    "polyhedra.implied_equalities.lp_per_row": "LP/row",
    "cones.hrep_to_vrep.rays_out": "count",
    "cones.hrep_to_vrep.repeat_share": "ratio",
    "lp.strict_homogeneous_feasible.repeat_share": "ratio",
    "copositive.simplex_min.order_sum": "count",
    "verifier.conjecture_probe.produced_per_attempt": "ratio",
}
OVERHEAD = "trace.overhead"


def _rows(m) -> tuple:
    return tuple(tuple(r) for r in m)


def _attrs(name: str, args, result) -> dict | None:
    """Counts kept on a span; content keys feed the repeat shares."""
    if name == IMPLIED:
        return {"rows": args[0].m}
    if name == VREP:
        lin, rays = result
        return {"rays_out": len(lin) + len(rays), "key": (_rows(args[0]), args[1])}
    if name == STRICT:
        return {"key": (_rows(args[0]), _rows(args[1]), args[2])}
    if name == SIMPLEX:
        return {"order": len(args[0])}
    if name == PROBE:
        return {"produced": result.artifacts["produced"],
                "attempts": result.artifacts["attempts"]}
    return None


class Tracer:
    """Collects spans in memory; ``span`` also serves callers outside the
    program, such as the benchmark's per-operation root spans."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[4] = _attrs(name, args, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded
        tiltkit modules."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "tiltkit" or n.startswith("tiltkit.")}
        for modname, path in LAYERS + EXTRA:
            owner = mods["tiltkit." + modname]
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            orig = owner.__dict__[attr]
            wrapper = self.wrap(f"{modname}.{path}", orig)
            if cls:  # a method: the class object is shared by every importer
                setattr(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1, "parent": parent}
                if attrs:
                    rec.update({k: v for k, v in attrs.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self and total time, and the derived counts."""
        spans = self.spans
        names = [s[0] for s in spans]
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0

        def has_ancestor(i: int, name: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if names[p] == name:
                    return True
                p = spans[p][3]
            return False

        out: dict[str, float] = {}
        for modname, path in LAYERS:
            name = f"{modname}.{path}"
            idx = [i for i, n in enumerate(names) if n == name]
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.self_s"] = sum(spans[i][2] - spans[i][1] - child[i] for i in idx)
            # recursive calls are already inside their outermost span
            out[f"{name}.total_s"] = sum(spans[i][2] - spans[i][1] for i in idx
                                         if not has_ancestor(i, name))

        def attr_sum(name: str, key: str) -> int:
            return sum(s[4][key] for s in spans if s[0] == name and s[4])

        def repeat_share(name: str) -> float:
            seen, repeats, calls = set(), 0, 0
            for s in spans:
                if s[0] == name and s[4]:
                    calls += 1
                    repeats += s[4]["key"] in seen
                    seen.add(s[4]["key"])
            return repeats / calls if calls else 0.0

        rows = attr_sum(IMPLIED, "rows")
        lps = sum(1 for i, n in enumerate(names) if n == LP and has_ancestor(i, IMPLIED))
        attempts = attr_sum(PROBE, "attempts")
        out["polyhedra.implied_equalities.lp_per_row"] = lps / rows if rows else 0.0
        out["cones.hrep_to_vrep.rays_out"] = attr_sum(VREP, "rays_out")
        out["cones.hrep_to_vrep.repeat_share"] = repeat_share(VREP)
        out["lp.strict_homogeneous_feasible.repeat_share"] = repeat_share(STRICT)
        out["copositive.simplex_min.order_sum"] = attr_sum(SIMPLEX, "order")
        out["verifier.conjecture_probe.produced_per_attempt"] = (
            attr_sum(PROBE, "produced") / attempts if attempts else 0.0)
        return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for modname, path in LAYERS:
        name = f"{modname}.{path}"
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.total_s": "s"})
    units.update(COUNTS)
    units[OVERHEAD] = "ratio"
    return units
