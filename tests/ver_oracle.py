"""ver's ``|I - R Q|`` by the unblocked formula, kept as the reference of the streamed kernel.

:func:`contraction` forms the interval matrix ``R Q`` whole, one
``(m n)^2`` term per coefficient pair, and :func:`eye_minus_mag` bounds
``|I - R Q|`` from it by the pad rules of the interval subtraction and of
``mag``.  ``baseline._contraction_mag`` streams the same operations through
row blocks of ``R``, so the two must agree bit for bit.

Both call ``baseline._kron_rows``, so they cannot see a change in its
product rules.  :func:`residual_product` is the reference of ver's ``M``,
which ``baseline._ver_residual`` takes on row blocks of ``R``: the one
unblocked product of ``R`` and the residual enclosure.  :func:`single_scalar_rows` is the reference for those of a
pair with one point scalar factor: the one product of a point stack and an
interval factor by its own formula (:func:`point_product`), times the scalar.
"""

import numpy as np

import sylvenc.baseline as baseline
from sylvenc import IMatrix, im_matmul
from sylvenc.intervals import _dot_ops, _fold, _mag, _mm, _Operand, _pad_rad, _slack, _up
from sylvenc.krawczyk import residual
from sylvenc.linalg import iunvec, ivec


def contraction(ks, sys):
    """Enclosure of ``R Q`` over every member ``Q``: one term per coefficient pair.

    The two terms add as disks, bit for bit as the interval sum does.
    """
    mn = ks.m * ks.n
    r = _Operand(ks.R.reshape(mn, ks.n, ks.m))
    mids, rads = [], []
    for x, y in ((sys.A, sys.B), (sys.C, sys.D)):
        mid, rad = baseline._kron_rows(r, x, y)
        mids.append(mid.reshape(mn, mn))
        rads.append(rad.reshape(mn, mn))
    mid = mids[0] + mids[1]
    rad = rads[0] + rads[1]
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


def residual_product(ks, sys, X):
    """The reference ``M`` of ver at ``X``: ``R`` times ``X``'s residual enclosure, unblocked."""
    res = residual(sys.F, X, (sys.A, sys.B, sys.C, sys.D).__getitem__)
    return iunvec(im_matmul(_Operand(ks.R), ivec(res)), ks.m, ks.n)


def point_product(mul, r3, r3abs, z, k):
    """Midpoint and radius of ``mul(r3, z)``, one product of a point stack and ``z``.

    ``im_matmul``'s rule for a point factor: ``|r3| (Zr + c |Zm|)`` scaled
    up for the ``k`` roundings of one inner product, the pad split off as in
    ``intervals._fold``.
    """
    mid = mul(r3, z.mid)
    az = np.abs(z.mid)
    zpad, split = _fold(az, z.rad if np.count_nonzero(z.rad) > 0 else None, k)
    rad = np.zeros(mid.shape) if zpad is None else mul(r3abs, zpad)
    _up(rad, k, out=rad)
    if split:
        rad += _slack(mul(r3abs, az), k)
    return mid, rad


def single_scalar_rows(r3, z, c, left=False):
    """``R (y^T kron x)`` on the ``(k, n, m)`` stack ``r3`` for a pair of ``z`` and ``c I``.

    ``z`` is ``x`` and ``y = c I``, or with ``left`` ``y`` and ``x = c I``:
    ``c`` times the one product ``r3[r] x`` of each row, the stacked rows in
    one 2-D product, or ``y r3[r]``; ``c`` must scale exactly.
    """
    k_rows, n, m = r3.shape

    def rows(stack, t):
        return _mm(stack.reshape(-1, m), t).reshape(k_rows, n, m)

    def times(stack, t):
        return _mm(t, stack)

    mul, k = (times, _dot_ops(n)) if left else (rows, _dot_ops(m))
    mid, rad = point_product(mul, r3, np.abs(r3), z, k)
    return mid * c, rad * abs(c)
