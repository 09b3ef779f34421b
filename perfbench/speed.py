"""Host-speed reference for the end-to-end timings.

On a shared host the speed of one process drifts by tens of percent, both
from second to second and over minutes (other tenants, clock frequency);
on the reference host (2 vCPUs, Intel Xeon) the request rate of one
workload moved by 1.5x within half an hour, and forty back-to-back
five-bar simulations of one input had a quartile spread of 14%.  The drift
slows a fixed CPU-bound kernel nearly as much as it slows hybridsens.

So the benchmark samples the host speed while it times: ``Clock`` runs a
short slice of the kernel from a timer signal every ``SAMPLE_EVERY``
seconds inside each timed pass, and once before and after it, and scales
the pass (sampling time excluded) by the reference kernel time over the
mean sampled one: seconds as they would read at the reference host speed.
On those forty simulations that cut the spread from 14% to 4%; a kernel
timed only before and after each pass did not lower it at all, because
the speed changes within a pass.  Set-up samples are scaled by the kernel
timed in the same fresh interpreter.  Raw wall times are printed beside
them.

The kernel and ``REFERENCE_S`` must never change: every recorded metric
depends on them.  The kernel uses nothing from hybridsens, so no change to
the package can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
from time import perf_counter

import numpy as np
import scipy.linalg

REFERENCE_S = 0.011    # median kernel time on the reference host
ITERATIONS = 400       # kernel iterations in REFERENCE_S
SAMPLE_EVERY = 0.02    # seconds between host-speed samples inside a pass
SAMPLE_ITERATIONS = 20
_A = 2.0 * np.eye(8) + np.full((8, 8), 0.1)


def kernel_seconds(iterations: int = ITERATIONS) -> float:
    """Wall time of a fixed mix of small LU solves, products and Python
    calls, the same kinds of work as a hybridsens right-hand side.  The
    cyclic garbage collector is off meanwhile, so the objects the program
    keeps alive cannot slow the kernel down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = np.ones(8)
        for _ in range(iterations):
            lu = scipy.linalg.lu_factor(_A, check_finite=False)
            x = scipy.linalg.lu_solve(lu, x, check_finite=False)
            x = _A @ x
            x /= np.linalg.norm(x)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls.  With ``calibrate`` it samples the host speed with the
    reference kernel just before and after each call and, from a timer
    signal, every SAMPLE_EVERY seconds inside it, and scales the call's
    seconds (sampling excluded) by the reference kernel time over the mean
    sampled one.  No sample is taken while other threads run, whose share
    of the interpreter lock would read as a slow host."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.raw = 0.0    # wall seconds of all timed calls, sampling excluded
        self.busy = 0.0   # the same at reference host speed
        self._kernel = kernel_seconds() / ITERATIONS if calibrate else None
        self._samples = []
        self._sampling_s = 0.0

    def _sample(self, signum, frame):
        if threading.active_count() > 1:
            return
        t0 = perf_counter()
        self._samples.append(kernel_seconds(SAMPLE_ITERATIONS) / SAMPLE_ITERATIONS)
        self._sampling_s += perf_counter() - t0

    def time(self, fn, *args, **kwargs):
        """(fn's result, seconds fn took at reference host speed)."""
        if not self.calibrate:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self.raw += dt
            self.busy += dt
            return out, dt
        self._samples, self._sampling_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            dt -= self._sampling_s
            self.raw += dt
            after = kernel_seconds() / ITERATIONS
            per_iteration = statistics.fmean([self._kernel, after, *self._samples])
            dt *= REFERENCE_S / ITERATIONS / per_iteration
            self._kernel = after
            self.busy += dt
        return out, dt
