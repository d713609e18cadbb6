"""Scaling measured times to a reference machine speed.

On a shared 2-vCPU x86-64 virtual machine (2.0 GHz, 105 MB L3) the speed
of one vCPU changes by up to 2.5x from one second to the next: a fixed
pure-Python loop takes 23 ms or 56 ms in alternating phases while nothing
else runs in the guest.  A raw median over a 30-second run then moves by
20-30% from run to run.

So a short reference kernel runs between operations, and every latency
is also reported scaled by ``reference / kernel time``, the kernel time
being the mean of the readings before and after it.  The kernels do not
call ``mcft``: a change to the program moves scaled times exactly as it
moves raw ones.  The Python kernel (rational arithmetic, tuple keys, dict
and sort churn) tracks the symbolic workloads; the numpy kernel (a
stencil over 4 MB arrays) tracks the numeric one.  The reference
values are near the kernels' times on that machine when run alone, so
scaled times read roughly as times there in a typical phase.
"""
from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

READS = 3  # kernel runs per reading; the fastest counts


def python_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        table[(i, "k", i % 7)] = acc
        sorted(table)[:3]
    return acc


def numpy_kernel():
    """A three-point stencil over 4 MB arrays allocated once, so that its
    time does not depend on the allocator state the program leaves."""
    import numpy as np  # here, so that timing an import of mcft can use the Python kernel first

    a = np.linspace(0.0, 1.0, 1 << 19)
    b = np.empty_like(a)

    def run():
        inner = b[1:-1]
        np.subtract(a[2:], a[1:-1], out=inner)
        np.subtract(inner, a[1:-1], out=inner)
        np.add(inner, a[:-2], out=inner)
        return float(inner.sum())

    return run


# kernel -> (factory of the kernel function, reference seconds)
KERNELS = {"python": (lambda: python_kernel, 0.6e-3), "numpy": (numpy_kernel, 1.6e-3)}


class Speedometer:
    def __init__(self, kind: str):
        factory, self.reference = KERNELS[kind]
        self.kernel = factory()

    def read(self) -> float:
        """Seconds of one kernel run now: the fastest of ``READS``, so a
        single interruption does not pass for a slow phase.  The garbage
        collector is held off, so that the program's heap does not count."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(READS):
                t0 = time.perf_counter()
                self.kernel()
                best = min(best, time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return best

    def scale(self, before: float) -> tuple:
        """(reading now, scale factor for the interval since ``before``)."""
        now = self.read()
        return now, self.reference / ((before + now) / 2)
