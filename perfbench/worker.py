"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --pass K --trace 0|1
                                [--setup-only]

Run with ``src`` on PYTHONPATH.  Prints ``ready`` once tiltkit is imported
and the inputs are made, then runs every operation once and prints one
JSON line: each operation's start and end, the host-speed samples of
``hostspeed.Sampler``, the peak RSS, attempted and failed counts and,
when traced, the per-layer metrics.  A fresh interpreter per pass keeps
tiltkit's process-level memos cold, as they are for every CLI call.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from hostspeed import Sampler


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sampler = Sampler()
    sampler.start()

    import tiltkit
    src = workloads.ROOT / "src"
    if src not in Path(tiltkit.__file__).resolve().parents:
        print(f"error: tiltkit imported from {tiltkit.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ref = workloads.load_reference()[args.workload]
    # every pass of a run gets the same inputs in the same order
    ops = workloads.build(args.workload, ref, random.Random(f"{args.workload}:{args.seed}"))
    print("ready", flush=True)
    report = {"ready_t": time.perf_counter()}
    if not args.setup_only:
        report.update(run_pass(args.workload, ref, ops, tracer))
    sampler.stop()
    report["samples"] = sampler.samples
    if tracer:
        out_dir = workloads.ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-p{args.pass_index}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


def run_pass(workload: str, ref: dict, ops: list, tracer) -> dict:
    """Times every operation, then checks its verdict against the reference."""
    times, results = {}, []
    for label, fn, fargs in ops:
        t0 = time.perf_counter()
        try:
            res = tracer.span("op", fn, *fargs) if tracer else fn(*fargs)
        except Exception:  # counted as a failed operation; the pass goes on
            traceback.print_exc()
            res = None
        times[label] = (t0, time.perf_counter())
        results.append((label, res))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    for label, res in results:
        if res is None:
            failed += 1
            continue
        try:
            got = workloads.verdict(workload, res)
        except (KeyError, IndexError, ValueError) as e:  # malformed report
            got = f"unreadable result: {e!r}"
        if got != ref[label]:
            failed += 1
            print(f"mismatch on {workload} {label}: got {got}, "
                  f"reference {ref[label]}", file=sys.stderr)
    report = {"ops": times, "rss_mb": rss_mb,
              "attempted": len(ops), "failed": failed}
    if tracer:
        report["layers"] = tracer.metrics()
    return report


if __name__ == "__main__":
    sys.exit(main())
