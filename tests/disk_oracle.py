"""Scalar disk arithmetic, kept as a test oracle.

The library works on whole interval matrices; the tests check its kernels
entry by entry against this scalar product, written out once per disk.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from sylvenc import IntervalOverflowError
from sylvenc.intervals import ETA


@dataclass(frozen=True)
class Disk:
    """Closed disk ``{z : |z - mid| <= rad}``; real when ``mid`` is real."""

    mid: complex
    rad: float

    def __post_init__(self) -> None:
        if self.rad < 0 or not np.isfinite(self.rad):
            raise ValueError("radius must be finite and nonnegative")
        m = complex(self.mid)
        if not (np.isfinite(m.real) and np.isfinite(m.imag)):
            raise ValueError("midpoint must be finite")

    @property
    def is_real(self) -> bool:
        return complex(self.mid).imag == 0.0


def iv_mul(x: Disk, y: Disk) -> Disk:
    """Disk product ``<xm*ym, |xm|*yr + xr*|ym| + xr*yr>`` with rounding slack."""
    mid = x.mid * y.mid
    rad0 = abs(x.mid) * y.rad + x.rad * abs(y.mid) + x.rad * y.rad
    # one inexact midpoint multiply (four for complex), five nonneg ops on rad0
    units = 1 if (x.is_real and y.is_real) else 4
    rad = rad0 * (1.0 + 5.0 * ETA) + units * ETA * abs(mid)
    m = complex(mid)
    if not (np.isfinite(m.real) and np.isfinite(m.imag) and np.isfinite(rad)):
        raise IntervalOverflowError("interval overflow")
    return Disk(mid, rad)


def kron_oracle(sys) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise ``Q = B^T kron A + D^T kron C`` of a system, from :func:`iv_mul`.

    Entry ``(i + j m, k + l m)`` is ``B[l, j] A[i, k] + D[l, j] C[i, k]``, the
    sum of two disk products; its radius also covers the rounding of the sum.
    Returns the midpoint and radius arrays.
    """
    m, n = sys.m, sys.n
    mid = np.zeros((m * n, m * n), dtype=float if sys.is_real else complex)
    rad = np.zeros((m * n, m * n))

    def disk(x, row, col):
        return Disk(x.mid[row, col], x.rad[row, col])

    for j, l, i, k in itertools.product(range(n), range(n), range(m), range(m)):
        first = iv_mul(disk(sys.B, l, j), disk(sys.A, i, k))
        second = iv_mul(disk(sys.D, l, j), disk(sys.C, i, k))
        s = first.mid + second.mid
        mid[i + j * m, k + l * m] = s
        rad[i + j * m, k + l * m] = first.rad + second.rad + ETA * abs(s)
    return mid, rad


def contraction_oracle(R: np.ndarray, sys) -> tuple[np.ndarray, np.ndarray]:
    """``|I - R Q|`` for the entrywise ``Q`` of :func:`kron_oracle`, in extended precision.

    The magnitude of the interval product, ``|I - R mid Q| + |R| rad Q``,
    evaluated in ``longdouble`` so that its own rounding stays far below the
    library's pads.  Also returns the scale ``|R| (|mid Q| + rad Q)`` of the
    product, against which a rounding difference is measured.
    """
    qmid, qrad = kron_oracle(sys)
    wide = np.clongdouble if np.iscomplexobj(R) or np.iscomplexobj(qmid) else np.longdouble
    r, qm, qr = R.astype(wide), qmid.astype(wide), qrad.astype(np.longdouble)
    ar = np.abs(r)
    mag = np.abs(np.eye(len(R), dtype=wide) - r @ qm) + ar @ qr
    return mag, ar @ (np.abs(qm) + qr)
