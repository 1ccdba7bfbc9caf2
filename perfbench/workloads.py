"""Inputs, operations and verdicts of the three benchmark workloads.

Every workload runs a fixed set of operations per pass, so the amount of
work does not depend on the workload seed.  The seed draws a signed
permutation of the fixtures' coordinates and the order of the probe pool;
the analyze workload's inputs do not depend on it.  Verdicts do not change under a signed
permutation, so one frozen reference (``reference.json``) covers every
seed; ``selftest.py`` checks that on every fixture and exact problem file.

* ``probe``: one ``verifier.conjecture_probe(seed_i, 1)`` per operation,
  over a frozen pool of probe seeds.  LP-bound; memos rarely hit.
* ``second-order``: ``hessian.definiteness`` and ``hessian.kernel`` on one
  exact fixture of ``fixtures.CORPUS`` per operation.  Bound by cells and
  double description; makes no float-grid calls.
* ``analyze``: ``cli.main(["analyze", file])`` on one ``problems/`` file
  per operation, stdout captured.  About eight estimators revisit one
  instance, so memos hit; bound by LP and the float grid.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
PROBLEMS = ROOT / "problems"
WORKLOADS = ("probe", "second-order", "analyze")
PROBE_COUNT = 1
ANALYZE_FIELDS = ("definiteness", "kernel_trivial", "localization", "tilt_verdict",
                  "subregularity_converged", "metric_regularity_converged")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def signed_permutation(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def transform(sp, q, c, rows, xbar, xstar):
    """Exact data of g(y) = f(P y) for the signed permutation matrix P with
    x_i = sign_i * y_perm(i).  Returns (Q', c', A', ybar, ystar); the rows'
    right-hand sides are unchanged."""
    perm, sign = sp
    n = len(perm)

    def pt(v):  # P^T v
        out = [Fraction(0)] * n
        for i in range(n):
            out[perm[i]] = sign[i] * Fraction(v[i])
        return out

    q2 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            q2[perm[i]][perm[k]] = sign[i] * sign[k] * Fraction(q[i][k])
    return q2, pt(c), [pt(r) for r in rows], pt(xbar), pt(xstar)


def permuted_instance(inst, sp):
    """The fixture instance composed with a signed permutation."""
    from tiltkit.model import FunctionSpec, ProblemInstance, QuadraticForm
    from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
    f = inst.f
    n = f.dim
    pieces = f.domain.pieces
    flat = [r for p in pieces for r in p.a]
    q, c, rows, ybar, ystar = transform(sp, f.smooth.q, f.smooth.c, flat,
                                        inst.xbar, inst.xstar)
    new_pieces, k = [], 0
    for p in pieces:
        new_pieces.append(ConvexPolyhedron(rows[k:k + p.m], p.b, dim=n))
        k += p.m
    g = FunctionSpec(smooth=QuadraticForm.make(q, c, f.smooth.d),
                     domain=PolyUnion(new_pieces))
    return ProblemInstance(g, ybar, ystar, inst.params, name=inst.name)


# -- operations -------------------------------------------------------------------
#
# An operation is (label, fn, args); ``verdict`` turns fn's result into the
# fields that the reference freezes.  Each fn looks tiltkit's entry points
# up at call time, so traced runs see the tracer's wrappers.


def probe(seed: int):
    from tiltkit import verifier
    return verifier.conjecture_probe(seed, PROBE_COUNT)


def second_order(inst):
    from tiltkit import hessian
    return (hessian.definiteness(inst.f, inst.xbar, inst.xstar),
            hessian.kernel(inst.f, inst.xbar, inst.xstar))


def analyze(path: Path):
    from tiltkit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["analyze", str(path)])
    return rc, buf.getvalue()


def build(workload: str, ref: dict, rng: random.Random) -> list[tuple]:
    """The pass's operations with their inputs made.

    The probe pool runs in a seeded order.  The fixtures run in reference
    order, and all fixtures of one dimension get the same seeded signed
    permutation, so content that two fixtures share stays shared and memo
    hits do not depend on the seed.  The problem files run as they are, in
    reference order, whatever the seed: the cost of analyzing
    saddle-cone.json varies by 1.5x across its eight signed permutations,
    and the order of the files moves peak RSS between 51 and 56 MB.
    """
    from tiltkit import fixtures
    ops = []
    if workload == "probe":
        ops = [(s, probe, (int(s),)) for s in ref]
        rng.shuffle(ops)
    elif workload == "second-order":
        perms: dict[int, tuple] = {}
        for name in ref:
            inst = fixtures.CORPUS[name].instance
            n = inst.f.dim
            if n not in perms:
                perms[n] = signed_permutation(rng, n)
            ops.append((name, second_order, (permuted_instance(inst, perms[n]),)))
    elif workload == "analyze":
        ops = [(name, analyze, (PROBLEMS / name,)) for name in ref]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def verdict(workload: str, result) -> dict:
    if workload == "probe":
        return {"produced": result.artifacts["produced"],
                "statuses": [c.status for c in result.checks],
                "escalations": len(result.artifacts["escalations"])}
    if workload == "second-order":
        dv, kr = result
        return {"definiteness": dv.verdict, "kernel_trivial": kr.trivial}
    rc, out = result
    art = json.loads(out)["results"][0]["artifacts"]
    return dict({k: art.get(k) for k in ANALYZE_FIELDS}, exit=rc)
