"""tiltkit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload probe|second-order|analyze \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Operations run one after another, with no extra threads.  Each pass runs
the workload's fixed set of operations once in a fresh interpreter
(``worker.py``), so no memo carries from one pass into the next, as for a
CLI user.  Every pass of a run gets the same inputs; passes repeat while
another one fits in ``--seconds``, and every pass's verdicts are checked
against ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  On a shared 2-vCPU VM other
load slowed a worker by up to 2x, so measured times are rescaled to the
host's uncontended speed by ``hostspeed.py``; the table prints the raw
times beside them.  Each
operation's latency is its median over the run's passes.  ``wall_s`` is
the sum of those latencies, the time to finish the fixed set;
``op_p50_s`` is their median; ``setup_s`` is interpreter start,
``import tiltkit`` and input generation, median over at least five
set-ups; ``peak_rss_mb`` is a worker's peak resident memory, median over
passes.  ``--trace 1`` alternates untraced and traced passes on the same
inputs and reports the per-layer metrics of ``tracer.py`` (raw times,
averaged per traced pass; spans also hold the host-speed kernel's 2-4%),
plus ``trace.overhead``, traced over untraced adjusted pass time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import OVERHEAD, metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
P90_TAIL = 10  # a p90 is reported only with this many samples beyond it

UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Runs one worker; returns its set-up time, measured from here until it
    reports ready, and its JSON report."""
    t0 = time.perf_counter()
    # unbuffered, so that readline takes no more than the ready line and
    # communicate sees everything after it
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline().decode()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} ran past the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    def worker(pass_index: int, traced: bool, setup_only: bool = False):
        args = ["--workload", workload, "--seed", str(seed), "--pass", str(pass_index),
                "--trace", str(int(traced))]
        return spawn(args + ["--setup-only"] * setup_only, env, deadline)

    setups, plain, traced = [], [], []
    k = 0
    while True:
        setup, rep = worker(k, False)
        setups.append((setup, rep))
        plain.append(rep)
        if trace:
            traced.append(worker(k, True)[1])
        k += 1
        projected = (time.perf_counter() - start) * (k + 1) / k
        if projected > min(seconds, RUN_LIMIT_S * 0.8):
            break
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(worker(len(setups), False, setup_only=True))
    return {"setups": setups, "plain": plain, "traced": traced}


def p90(samples: list[float]) -> float | None:
    if len(samples) < 10 * P90_TAIL:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def op_latencies(reps: list[dict], adjusted: bool = True) -> list[float]:
    """Each operation's median latency over the given passes, adjusted for
    host speed or raw."""
    def latency(rep: dict, op: str) -> float:
        t0, t1 = rep["ops"][op]
        return hostspeed.adjust(t0, t1, rep["samples"]) if adjusted else t1 - t0
    return [statistics.median(latency(r, op) for r in reps) for op in reps[0]["ops"]]


def setup_time(measured: float, rep: dict) -> float:
    """A set-up time adjusted by the kernel samples the worker took before
    it reported ready."""
    before = [d for t, d in rep["samples"] if t < rep["ready_t"]]
    before = before or [d for _, d in rep["samples"]]
    return measured * hostspeed.KERNEL_REF_S / statistics.fmean(before)


def summarize(workload: str, seed: int, res: dict, trace: bool) -> dict:
    plain, traced = res["plain"], res["traced"]
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    lat = op_latencies(plain)
    print(f"tiltkit benchmark: workload {workload}, seed {seed}, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    if trace:
        units = metric_units()
        values = {m: statistics.fmean(r["layers"][m] for r in traced)
                  for m in units if m != OVERHEAD}
        values[OVERHEAD] = sum(op_latencies(traced)) / sum(lat)
        for m, v in values.items():
            print(f"  {m:58s} {v:14.6g} {units[m]}")
    else:
        units = UNITS
        raw = op_latencies(plain, adjusted=False)
        setups = [setup_time(m, r) for m, r in res["setups"]]
        values = {"wall_s": sum(lat),
                  "op_p50_s": statistics.median(lat),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain)}
        per_op = f"each the median of {len(plain)} passes"
        notes = {"wall_s": f"sum of {len(lat)} operations, {per_op}; raw {sum(raw):.6g} s",
                 "op_p50_s": f"median of {len(lat)} operations, {per_op}; "
                             f"raw {statistics.median(raw):.6g} s",
                 "setup_s": f"median of {len(setups)} set-ups; "
                            f"raw {statistics.median(m for m, _ in res['setups']):.6g} s",
                 "peak_rss_mb": f"median of {len(plain)} workers"}
        for m, v in values.items():
            print(f"  {m:12s} {v:12.6g} {units[m]:3s} ({notes[m]})")
        tail = p90(lat)
        print(f"  {'op_p90_s':12s} " + (f"{tail:12.6g} s   (n={len(lat)})" if tail is not None
              else f"{'n/a':>12s}     (n={len(lat)}; needs {10 * P90_TAIL} samples)"))
        kernel = statistics.median(d for r in plain for _, d in r["samples"])
        print(f"  host speed: kernel median {kernel * 1e3:.4g} ms; times above are rescaled "
              f"to {hostspeed.KERNEL_REF_S * 1e3:g} ms, raw times are as measured")
    print(f"  {'fail_ratio':12s} {failed / attempted:12.6g}     ({failed} of {attempted} "
          "operations raised or disagreed with the reference)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "tiltkit" / "__init__.py").is_file():
        print(f"error: no tiltkit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args.workload, args.seed, res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
