"""ver's ``|I - R Q|`` by the unblocked formula, kept as the reference of the streamed kernel.

:func:`contraction` forms the interval matrix ``R Q`` whole, one
``(m n)^2`` term per coefficient pair, and :func:`eye_minus_mag` bounds
``|I - R Q|`` from it by the pad rules of the interval subtraction and of
``mag``.  ``baseline._contraction_mag`` streams the same operations through
row blocks of ``R``, so the two must agree bit for bit.
"""

import numpy as np

import sylvenc.baseline as baseline
from sylvenc import IMatrix
from sylvenc.intervals import _mag, _pad_rad


def contraction(ks, sys):
    """Enclosure of ``R Q`` over every member ``Q``: one term per coefficient pair.

    A pair takes its scaled form only when that is exact on every row of
    ``R``; the two terms add as disks, bit for bit as the interval sum does.
    """
    mn = ks.m * ks.n
    r3 = ks.R.reshape(mn, ks.n, ks.m)
    r3abs = np.abs(r3)
    mids, rads = [], []
    for x, y in ((sys.A, sys.B), (sys.C, sys.D)):
        term = baseline._kron_rows(r3, r3abs, x, y)
        mid, rad = term if term is not None else baseline._kron_rows(r3, r3abs, x, y, False)
        mids.append(mid.reshape(mn, mn))
        if rad is not None:
            rads.append(rad.reshape(mn, mn))
    mid = mids[0] + mids[1]
    rad = rads[0] + rads[1] if len(rads) == 2 else rads[0] if rads else np.zeros(mid.shape)
    return IMatrix._from_kernel(mid, _pad_rad(rad, np.abs(mid), out=rad))


def eye_minus_mag(p):
    """``(I - p).mag()`` for a square ``p``, by the pad rules of the subtraction and of ``mag``."""
    mid = np.negative(p.mid)
    mid.flat[:: p.rows + 1] += 1.0
    amid = np.abs(mid)
    out = _pad_rad(p.rad, amid.copy())
    return _mag(amid, out, out=out)


def contraction_mag(ks, sys):
    """The reference ``|I - R Q|`` for ``sys``."""
    return eye_minus_mag(contraction(ks, sys))
