"""Host-contention adjustment of measured times.

Other load on a shared host slows this process without descheduling it, so
CPU time does not filter it out.  While a worker runs, a 50 ms interval
timer runs a fixed pure-Python kernel (exact ``Fraction`` sums, the same
kind of work as tiltkit's exact layers) between bytecodes and records how
long it took.  A time measured over some interval is then rescaled by
``KERNEL_REF_S / mean``, where ``mean`` is the kernel's mean duration
around that interval: adjusted seconds are seconds on a host that runs
the kernel in exactly 1 ms.  The kernel's own time is subtracted first.

On a shared 2-vCPU Xeon VM (Python 3.11), where the kernel's median
duration moved between 1 and 2.2 ms over an hour, raw wall_s of the
second-order workload spread 0.36 (quartile distance over median) across
ten seeds, and adjusted wall_s 0.018.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
KERNEL_TERMS = 400  # 1-2 ms per sample, 2-4% of the interval
WINDOW_S = 0.25  # samples this close to an interval count for it
KERNEL_REF_S = 0.001


def _kernel() -> None:
    s = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        s += Fraction(i % 97, i % 89 + 1)


class Sampler:
    """Collects (start, duration) samples of the kernel on a timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def adjust(t0: float, t1: float, samples: list) -> float:
    """The interval's length without the kernel's own time, rescaled to the
    reference speed by the samples near it."""
    inside = sum(d for t, d in samples if t0 <= t < t1)
    near = [d for t, d in samples if t0 - WINDOW_S <= t < t1 + WINDOW_S]
    near = near or [d for _, d in samples]
    return (t1 - t0 - inside) * KERNEL_REF_S / statistics.fmean(near)
