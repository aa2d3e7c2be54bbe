"""Scalar disk arithmetic, kept as a test oracle.

The library works on whole interval matrices; the tests check its kernels
entry by entry against this scalar product, written out once per disk.
"""

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
