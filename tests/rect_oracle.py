"""The chained rectangle meet, kept as a test oracle.

The refinement kernel intersects its corner arrays in place; this is the
same intersection written on :class:`sylvenc.Rect` values, against which the
kernel's iterates are checked.
"""

import numpy as np

from sylvenc import InconsistentEnclosureError, Rect


def rect_meet(a: Rect, b: Rect) -> Rect:
    """Exact entrywise intersection; raises when any entry is empty."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if a.is_real and b.is_real:
        lo = np.maximum(a.lo, b.lo)
        hi = np.minimum(a.hi, b.hi)
        if (lo > hi).any():
            raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
        return Rect(lo, hi)
    alo, ahi = a.lo.astype(np.complex128), a.hi.astype(np.complex128)
    blo, bhi = np.asarray(b.lo, dtype=np.complex128), np.asarray(b.hi, dtype=np.complex128)
    lore = np.maximum(alo.real, blo.real)
    loim = np.maximum(alo.imag, blo.imag)
    hire = np.minimum(ahi.real, bhi.real)
    hiim = np.minimum(ahi.imag, bhi.imag)
    if (lore > hire).any() or (loim > hiim).any():
        raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
    return Rect(lore + 1j * loim, hire + 1j * hiim)
