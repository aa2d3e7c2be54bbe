"""Host-speed calibration: fixed numpy work timed next to every request.

The benchmark's host is shared: the same pass of the same code takes up to
1.8x longer in some minutes than in others, in process CPU time as much as
in wall time.  A kernel that makes the same kinds of calls as the library
(small ``kron``/dot/``abs`` calls from a Python loop, then dense products
through BLAS on matrices larger than a core's cache) slows down with it.
The runner times this kernel just before each request and scales the
request's times by ``reference seconds / kernel seconds``, which expresses
them at a fixed host speed: the one at which the kernel takes its reference
time, ``LOOP_REF_S`` for the loop plus ``GEMM_REF_S`` per dense product.
A workload whose work is all small calls leaves the dense products out.

The kernel is the benchmark's own code and calls nothing of the library, so a
change to the library moves the scaled times by exactly as much as the raw
ones.
"""

from __future__ import annotations

import time

import numpy as np

LOOP = 800  # small-call iterations of one kernel run
LOOP_REF_S = 0.08  # seconds of the loop at the reference host speed
GEMM_REF_S = 0.018  # seconds of one dense 768 x 768 product there, on one thread


class Calibration:
    """Times the fixed kernel with ``gemms`` dense products; call it for the seconds of one run."""

    def __init__(self, gemms: int) -> None:
        self.gemms = gemms
        self.ref_s = LOOP_REF_S + gemms * GEMM_REF_S
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((48, 48))
        self.v = rng.standard_normal(48 * 48)
        self.z = self.v.astype(np.complex128)
        self.g = rng.standard_normal((768, 768))

    def __call__(self) -> float:
        a, v, z, g = self.a, self.v, self.z, self.g
        t0 = time.perf_counter()
        for i in range(LOOP):
            k = i % 48
            row = np.kron(a[:, k], a[k, :]) + np.kron(a[k, :], a[:, k])
            tail = row[k:]
            float(np.abs(tail) @ v[k:])
            complex(tail @ z[k:])
        for _ in range(self.gemms):
            g @ g
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor from raw seconds, measured right after this call, to reference seconds."""
        return self.ref_s / self()
