"""Machine-speed probe: timings in reference seconds.

The host this benchmark was built on is shared, and its speed drifts by
tens of percent within minutes.  The same walk-exact survey, repeated
back to back in one process, took between 4.6 s and 7.0 s.  A fixed
kernel that uses none of qspan's code is therefore timed densely while
the surveys run: before an operation (a walk trial or a percolation
sample) whenever ``INTERVAL_S`` has passed since the last sample.  Its
time is subtracted from the survey's wall time, and the survey's time
is multiplied by ``REFERENCE_KERNEL_S / median kernel time``.  Sampled
that densely, kernel and walk speed correlate at 0.85 to 0.94 over 5 to
20 s windows, and the scaled time varies half as much as the raw one.  A change to qspan cannot move the kernel, so a scaled time
moves only when the program does.  The probe does not track long
vectorised array work: on the overlap-concentration survey, samples
taken between its seconds-long calls read up to 65 % slow while the
survey ran fast, so that survey is not a workload here.

The kernel mixes what the surveys spend their time on: small LAPACK and
ufunc calls on short vectors, a complex matrix product, and a
pure-Python union-find style loop.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel time on the reference machine (a 2-vCPU x86-64 VM with
#: OpenBLAS pinned to one thread).  A scale of 1 means "as fast as that
#: machine at its usual speed".
REFERENCE_KERNEL_S = 0.0200
INTERVAL_S = 0.25


def kernel() -> float:
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((8, 8))
    a = a + a.T
    x = rng.standard_normal(16)
    z = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
    acc = 0.0
    for _ in range(360):
        w, v = np.linalg.eigh(a)
        y = np.cumprod(np.concatenate(([1.0], np.sin(x))))
        c = np.exp(1j * x) * y[1:]
        acc += float(np.linalg.norm(c)) + float(np.arctan2(w[-1], y[-1])) + float((v @ w)[0])
    acc += float(np.abs(z @ z.conj().T).sum())
    parent = list(range(512))
    for i in range(9000):
        j, k = (i * 7919) % 512, (i * 104729) % 512
        while parent[j] != j:
            j = parent[j]
        while parent[k] != k:
            k = parent[k]
        if j != k:
            parent[k] = j
    return acc


class SpeedProbe:
    """Kernel timings taken between operations, and the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or start - self._last >= INTERVAL_S:
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
            self.spent += self._last - start

    def wrap(self, fn):
        def probed(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)

        return probed

    def scale(self, first: int = 0) -> float:
        """Reference factor from the samples taken since index ``first``."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[first:])
