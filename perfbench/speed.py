"""Core-speed probe: rescales end-to-end timings to a reference core speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over tens of seconds as other tenants load it; a single-threaded
pass and a fixed DGEMM slow down together.  A median over one run cannot
average that out, so runs made minutes apart disagree by more than the
benchmark's bounds.  The probe times a fixed calibration kernel, which
uses nothing of blockexpm, every ``INTERVAL_S`` seconds from a SIGALRM
handler while the passes run, so its samples cover the same moments the
passes do.  ``speed()`` is the reference kernel time over the measured
one, from the samples taken during a given pass; a timing multiplied by
it reads as seconds at the reference speed.

The kernel has a BLAS part (small DGEMMs) and an interpreter part (a
Python loop) because the engine workloads are GEMM-bound on wide blocks
and bound by per-call Python costs on thin ones; ``speed()`` is the
geometric mean of the two ratios.  One sample costs about 2.5 ms, so the
probe adds about 1% to every timing it is running for, alike in every run.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
MIN_SAMPLES = 5  # a pass shorter than this many intervals borrows its neighbours'
GEMM_N = 160
GEMM_REPS = 4
LOOP_N = 20_000
# Kernel seconds at the reference speed: medians of 15 runs on a 2-vCPU
# "Intel(R) Xeon(R) Processor" VM, Python 3.11.7, numpy 2.4.6 with its
# OpenBLAS on one thread.
REF_GEMM_S = 0.95e-3
REF_LOOP_S = 1.6e-3


class SpeedProbe:
    """Samples of the calibration kernel's two parts, in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((GEMM_N, GEMM_N))
        self._b = rng.standard_normal((GEMM_N, GEMM_N))
        self.gemm: list[float] = []
        self.loop: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        for _ in range(GEMM_REPS):
            self._a @ self._b
        t1 = perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i
        t2 = perf_counter()
        self.gemm.append(t1 - t0)
        self.loop.append(t2 - t1)

    @contextmanager
    def running(self):
        """Sample on entry, every ``INTERVAL_S`` seconds inside, and on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def speed(self, first: int = 0, stop: int | None = None) -> float:
        """Reference over measured kernel seconds, from the samples
        ``first:stop``, widened about their middle to ``MIN_SAMPLES``."""
        stop = len(self.gemm) if stop is None else stop
        if stop - first < MIN_SAMPLES:
            middle = (first + stop) // 2
            first = max(0, min(middle - MIN_SAMPLES // 2, len(self.gemm) - MIN_SAMPLES))
            stop = first + MIN_SAMPLES
        gemm = median(self.gemm[first:stop])
        loop = median(self.loop[first:stop])
        return math.sqrt(REF_GEMM_S / gemm * REF_LOOP_S / loop)
