"""Circular (midpoint-radius) interval scalars and matrices.

A scalar interval is a closed disk in the complex plane,
``{z : |z - mid| <= rad}``; real intervals are disks with a real midpoint.
Matrices of such disks are stored as a midpoint array (float64 or complex128)
plus a nonnegative float64 radius array.

Outward rounding is realized by radius inflation instead of switching the FPU
rounding mode: every floating-point result is padded by a slack proportional
to ``ETA = 2**-50`` (eight binary64 ulps) times the accumulated magnitude of
the operands.  For a kernel whose longest dependency chain runs through
``n`` inexact operations on data of accumulated magnitude ``M``, the exact
result differs from the computed one by at most ``gamma_n * M`` with
``gamma_n ~ n * 2**-53``, so a pad of ``n * ETA * M``, with ``n`` at least
the chain length, is strictly conservative.  Kernels count ``n`` generously
(``2k + 8`` for a length-``k`` inner product) so that complex arithmetic
constants are covered as well.

``ETA`` is a constant, not an option: the pads of one solve are sound only
together, with one shared value, and a larger value only widens every
enclosure.  Every kernel of the package pads through the private rules
under "pad rules" below: ``_up``, ``_down`` and ``_slack`` (``x (1 + n
ETA)``, ``x (1 - n ETA)`` and ``n ETA x``), ``_pad_rad`` (the radius of a
rounded result, such as a sum of disks), ``_dot_ops`` (the count ``2k + 8``
of a length-``k`` inner product), ``_fold`` (a rounding pad folded into a
radius product, below), ``_quot`` (a disk times a reciprocal disk) with
``_quot_rad`` (its radius, from magnitudes), ``_scaled`` (a product by ``c
= +-2^e``, exact or refused, with the scalar test :func:`_scalar_of`),
``_mag``, ``_reach``, ``_rect_half`` and ``_corner_mag``.  So the
rounding model is this module's decision alone.  Each rule fixes the order
of its floating-point operations, so every kernel that applies it rounds
alike, and a term the model still lacks (the absolute underflow term below)
goes into these rules, not into the kernels.

Products follow Rump's midpoint-radius arithmetic ("Fast and parallel
interval arithmetic", BIT 39, 1999).  :func:`im_matmul` bounds the radius by
``(|Xm| (Yr + c |Ym|) + Xr (|Ym| + Yr)) (1 + n ETA)``, and by a point ``Y``
by ``(Xr + c |Xm|) |Ym| (1 + n ETA)``: the pad ``n ETA |Xm| |Ym|`` of the
rounding errors rides in the first product, with ``c = n ETA / (1 + n
ETA)`` rounded up so that the folded pad is at least the separate one
(unless a nonzero entry of ``c |Ym|``, or ``c |Xm|``, falls below the
normal range: then the pad is that separate product).  In exact
arithmetic, and up to the rounding of ``c``, this is the four-product bound
``(|Xm| Yr + Xr |Ym| + Xr Yr)(1 + n ETA) + n ETA |Xm| |Ym|``, so no radius
is wider than that one by more than rounding, while an interval product
takes the midpoint product and two radius products instead of four, and a
point and an interval, on either side, one radius product instead of two.
The radius is written once, in :func:`_product`, which multiplies two
prepared operands (:class:`_Operand`: ``|mid|``, the diagonal test, the
zero-radius test, the scalar test and the folded pads, each derived once
per operand); ``im_matmul`` is its checked wrapper.

A product by a point ``<c I, 0>`` with ``c = +-2^e``, the identity among
them, is the exact ``(c Ym, |c| Yr)`` with no pad wherever no scaled entry
leaves the normal range (:func:`_scaled`, per matrix of a stack), so the
identity coefficients of ``A X B + X = F`` and ``A X + X B = F`` cost no
product in any solver or audit.

All pads are relative: a product whose exact value lies in or below the
subnormal range, where rounding errors are absolute, can escape its
enclosure; ``[1e-200] [1e-200]`` gives ``[0, 0]``.  ``im_matmul`` and
:func:`posmm` still lack the absolute underflow term.  The disk reciprocal
:func:`iv_recip_arrays` instead refuses, with :class:`IntervalOverflowError`,
a disk whose modulus or reciprocal bound leaves the normal range, and the
disk denominators ``a_i b_j + c_i d_j`` that mkw, itr and blk divide by
(:func:`_denominators`) come only through it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentEnclosureError,
    IntervalOverflowError,
    SingularPreconditionerError,
)

__all__ = [
    "ETA",
    "IMatrix",
    "as_imatrix",
    "im_matmul",
    "posmm",
    "iv_recip_arrays",
    "in_interior",
    "epsilon_inflate",
    "Rect",
    "disks_to_rect",
    "rect_to_disks",
    "rect_mag",
]

# the relative pad of one rounding: eight binary64 ulps, at least 2**-53
ETA = 2.0**-50
EPS_MACH = 2.0**-52
# the smallest positive normal binary64 number
_NORMAL_MIN = 2.0**-1022
# divisors smaller than this times the largest one count as singular
SINGULAR_REL = 2.0**-40


# ---------------------------------------------------------------------------
# pad rules
# ---------------------------------------------------------------------------


def _up(x, n, out=None):
    """``x (1 + n ETA)``: an upper bound of a nonnegative ``x`` computed in ``n`` roundings."""
    return np.multiply(x, 1.0 + n * ETA, out=out)


def _down(x, n, out=None):
    """``x (1 - n ETA)``: a lower bound of a nonnegative ``x`` computed in ``n`` roundings."""
    return np.multiply(x, 1.0 - n * ETA, out=out)


def _slack(x, n, out=None):
    """``n ETA x``: the rounding error of ``n`` roundings of a result of magnitude ``x``."""
    return np.multiply(x, n * ETA, out=out)


def _pad_rad(rad, amag, n=2, out=None):
    """``rad (1 + n ETA) + n ETA amag``: the radius of a result of magnitude ``amag``.

    ``rad`` is the sum of the radius terms; with ``n = 2`` this is the
    radius of the rounded sum or difference of two disks.  ``amag`` is
    scratch: the rule scales it in place.
    """
    _slack(amag, n, out=amag)
    out = _up(rad, n, out=out)
    out += amag
    return out


def _dot_ops(k: int) -> int:
    """``2k + 8``: the rounding count of a length-``k`` inner product, complex ones included."""
    return 2 * k + 8


def _fold(amag, rad, n):
    """``rad + c amag`` with ``c = n ETA / (1 + n ETA)`` rounded up, and whether the pad split.

    Under a later ``_up(..., n)`` the folded term ``c amag`` is at least the
    pad ``n ETA amag`` of ``n`` roundings of a result of magnitude ``amag``.
    ``rad`` is None for zero radii.  When a nonzero entry of ``c amag``
    falls below the normal range, where it keeps too few bits, the pad
    splits: the result is ``rad`` alone and the caller adds the pad as a
    product of its own after the scale.
    """
    pad = n * ETA
    # the quotient of the stored floats rounded up: c (1 + pad) >= pad holds exactly
    c = math.nextafter(pad / (1.0 + pad), math.inf)
    out = amag * c
    # every zero of amag lies below the normal range in c amag
    small = np.count_nonzero(out < _NORMAL_MIN)
    if small > 0 and small > amag.size - np.count_nonzero(amag):
        return rad, True
    if rad is not None:
        out += rad
    return out, False


def _quot(mid, rad, rec_mid, rec_rad):
    """Disks ``<mid, rad>`` times reciprocal disks ``<rec_mid, rec_rad>``: the midpoint and
    the radius of :func:`_quot_rad`.  ``mid=None`` stands for zero midpoints: the
    midpoint returned is None."""
    if mid is None:
        return None, _quot_rad(None, rad, np.abs(rec_mid), rec_rad)
    q = mid * rec_mid
    return q, _quot_rad(np.abs(mid), rad, np.abs(rec_mid), rec_rad, np.abs(q))


def _quot_rad(amid, rad, arec, rec_rad, aq=None):
    """``(amid rec_rad + rad arec + rad rec_rad)(1 + 5 ETA) + 4 ETA aq``: :func:`_quot`'s radius
    from ``amid = |mid|``, ``arec = |rec_mid|`` and ``aq = |mid rec_mid|``.

    ``amid=None`` stands for zero midpoints, with the bits of explicit zeros.
    """
    if amid is None:
        r = rad * arec
        r += rad * rec_rad
        return _up(r, 5, out=r)
    r = _up(amid * rec_rad + rad * arec + rad * rec_rad, 5)
    r += _slack(aq, 4)
    return r


def _scalar_of(diag: np.ndarray | None, power_of_two: bool = False):
    """``c`` when ``diag`` (:func:`_diagonal`'s, or None) is the diagonal of ``c I``, else None.

    Any ``c`` counts, unless ``power_of_two``: then only a real ``c =
    +-2^e``, as a float, whose products are exact (:func:`_scaled`).
    """
    if diag is None or diag.size == 0:
        return None
    c = diag[0]
    if power_of_two:
        c = float(c.real)
        # frexp's mantissa of a power of two is +-1/2; diag != c then finds an imaginary part
        if abs(math.frexp(c)[0]) != 0.5:
            return None
    # count_nonzero: cheaper than all() on the small diagonals of the audits
    return None if np.count_nonzero(diag != c) else c


def _scaled(c: float, mid: np.ndarray, rad: np.ndarray | None, dtype=None):
    """``c mid`` in ``dtype``, ``|c| rad``, and whether both are exact, per matrix of a stack.

    A product by a power of two ``c`` is exact unless it overflows or falls
    below the normal range, and then it does not scale back to its operand,
    so the round trip is the test; a ``c`` that left the range itself (the
    product of two scalars) passes no nonzero entry.  ``rad`` None stands
    for zero radii.  ``|c| = 1`` returns the radii as they are, and ``c =
    1`` in ``mid``'s dtype the midpoints too.
    """
    if abs(c) == 1.0:
        if c == 1.0 and (dtype is None or mid.dtype == dtype):
            return mid, rad, np.True_
        return np.multiply(mid, c, dtype=dtype, order="C"), rad, np.True_
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        smid = np.multiply(mid, c, dtype=dtype, order="C")
        exact = (smid / c == mid).all(axis=(-2, -1))
        if rad is None:
            return smid, None, exact
        srad = rad * abs(c)
        exact &= (srad / abs(c) == rad).all(axis=(-2, -1))
    return smid, srad, exact


def _mag(amid, rad, out=None):
    """``(|mid| + rad)(1 + 3 ETA)``: an upper bound of the magnitude of disks ``<mid, rad>``."""
    out = np.add(amid, rad, out=out)
    return _up(out, 3, out=out)


def _reach(inner: "IMatrix", outer: "IMatrix") -> np.ndarray:
    """``(|mid inner - mid outer| + rad inner)(1 + 4 ETA)``: how far ``inner`` reaches."""
    r = np.abs(inner.mid - outer.mid)
    r += inner.rad
    return _up(r, 4, out=r)


def _rect_half(amid: np.ndarray, rad: np.ndarray, out=None) -> np.ndarray:
    """``rad + (ETA (|mid| + rad) + ETA rad)``: the half side of the bounding square of a disk."""
    r = np.add(amid, rad, out=out)
    r *= ETA
    r += ETA * rad
    r += rad
    return r


def _corner_mag(corners: tuple[np.ndarray, ...]) -> np.ndarray:
    """Magnitude bound of rectangles of corners ``(lo, hi)`` or ``(lo.re, lo.im, hi.re, hi.im)``."""
    a = [np.abs(x) for x in corners]
    if len(a) == 2:
        out = np.maximum(*a, out=a[0])
        return _up(out, 1, out=out)
    mre = np.maximum(a[0], a[2], out=a[0])
    mim = np.maximum(a[1], a[3], out=a[1])
    out = np.hypot(mre, mim, out=a[2])
    return _up(out, 3, out=out)


# ---------------------------------------------------------------------------
# interval matrices
# ---------------------------------------------------------------------------


class IMatrix:
    """Matrix of disks: midpoint array plus nonnegative radius array."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=None):
        mid = np.atleast_2d(np.asarray(mid))
        if mid.dtype != np.complex128:
            mid = mid.astype(np.float64, copy=False)
        point = rad is None
        if point:
            rad = np.zeros(mid.shape)
        else:
            rad = np.atleast_2d(np.asarray(rad, dtype=np.float64))
        if mid.ndim != 2 or rad.shape != mid.shape:
            raise ValueError("dimension mismatch between midpoint and radius arrays")
        # the zero radii of a point need no check
        if not np.isfinite(mid).all() or not (point or np.isfinite(rad).all()):
            raise IntervalOverflowError("interval overflow")
        if not point and (rad < 0).any():
            raise ValueError("radii must be nonnegative")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)

    @classmethod
    def _from_kernel(cls, mid: np.ndarray, rad: np.ndarray) -> "IMatrix":
        """An IMatrix of arrays a kernel has just computed, checked for finiteness only.

        ``mid`` must be a 2-D float64 or complex128 array (or a stack of
        them, see :func:`im_matmul`) and ``rad`` a nonnegative float64 array
        of its shape; the kernel's own operations
        guarantee both, so the public constructor's coercions and sign check
        are skipped.  A non-finite entry still raises
        :class:`IntervalOverflowError`.
        """
        if not np.isfinite(mid).all() or not np.isfinite(rad).all():
            raise IntervalOverflowError("interval overflow")
        obj = object.__new__(cls)
        object.__setattr__(obj, "mid", mid)
        object.__setattr__(obj, "rad", rad)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("IMatrix is immutable")

    # -- shape ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.mid.shape

    @property
    def rows(self) -> int:
        return self.mid.shape[0]

    @property
    def cols(self) -> int:
        return self.mid.shape[1]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.mid)

    @property
    def T(self) -> "IMatrix":
        return IMatrix(self.mid.T.copy(), self.rad.T.copy())

    # -- construction -----------------------------------------------------
    @classmethod
    def from_infsup(cls, lo, hi) -> "IMatrix":
        """Outward conversion of a real inf-sup pair to midpoint-radius form."""
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape:
            raise ValueError("dimension mismatch between inf and sup arrays")
        if (lo > hi).any():
            raise ValueError("inf endpoint exceeds sup endpoint")
        mid = 0.5 * (lo + hi)
        return cls(mid, _pad_rad(np.maximum(hi - mid, mid - lo), np.abs(mid)))

    # -- entrywise views ----------------------------------------------------
    def mag(self) -> np.ndarray:
        """Entrywise upper bound of ``|mid| + rad``."""
        amid = np.abs(self.mid)
        return _mag(amid, self.rad, out=amid)

    def widths(self) -> np.ndarray:
        return 2.0 * self.rad

    def contains_point(self, x) -> bool | np.ndarray:
        """Entrywise membership of a point matrix (no tolerance).

        A ``(k, m, n)`` stack of point matrices gives a boolean array, one
        answer per matrix, each the answer of the call on that matrix.
        """
        x = np.asarray(x)
        if x.ndim != 3:
            x = np.atleast_2d(x)
        if x.ndim > 3 or x.shape[-2:] != self.shape:
            raise ValueError("dimension mismatch")
        inside = np.abs(x - self.mid) <= self.rad
        return bool(inside.all()) if x.ndim == 2 else inside.all(axis=(1, 2))

    def contains(self, other: "IMatrix") -> bool:
        """Entrywise disk containment ``other subset self`` (conservative)."""
        return bool((_reach(as_imatrix(other), self) <= self.rad).all())

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "IMatrix":
        return _im_add(self, as_imatrix(other), +1.0)

    def __sub__(self, other) -> "IMatrix":
        return _im_add(self, as_imatrix(other), -1.0)

    def __neg__(self) -> "IMatrix":
        return IMatrix(-self.mid, self.rad.copy())

    def __matmul__(self, other) -> "IMatrix":
        return im_matmul(self, as_imatrix(other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IMatrix(shape={self.shape}, max_rad={self.rad.max() if self.rad.size else 0.0:.3e})"


def as_imatrix(x) -> IMatrix:
    """Coerce a point array (zero radii) or pass an IMatrix through."""
    if isinstance(x, IMatrix):
        return x
    return IMatrix(x)


def _im_add(x: IMatrix, y: IMatrix, sign: float) -> IMatrix:
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    mid = x.mid + sign * y.mid
    rad = x.rad + y.rad
    return IMatrix._from_kernel(mid, _pad_rad(rad, np.abs(mid), out=rad))


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square ``a`` whose off-diagonal entries are all zero, else None."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    # the corners reject a dense matrix before the O(n^2) count
    if a.size > 1 and (a[0, -1] or a[-1, 0]):
        return None
    d = a.diagonal()
    return d if np.count_nonzero(a) == np.count_nonzero(d) else None


def _dot(a: np.ndarray, b: np.ndarray, da: np.ndarray | None, db: np.ndarray | None) -> np.ndarray:
    """``a @ b``, as a broadcast when ``da`` (``db``) is the diagonal of a diagonal ``a`` (``b``).

    Every term a dense product adds beside ``a_ii b_ij`` is an exact zero, so
    on real data the broadcast rounds exactly as the dense product does.  The
    result is C-ordered like a product's, whatever the operand's layout:
    mixed layouts would slow every later entrywise operation.
    """
    if da is not None:
        return np.multiply(da if b.ndim == 1 else da[:, None], b, order="C")
    if db is not None:
        return np.multiply(a, db, order="C")
    return a @ b


class _Operand:
    """A factor of :func:`im_matmul` with what its products read, derived once.

    ``amid`` is ``|mid|``, ``diag`` the diagonal of an exactly diagonal 2-D
    midpoint (else None) and ``adiag`` its magnitude; ``rad`` is None when
    every radius is zero; ``scale`` is ``c`` for the point ``c I``, ``c =
    +-2^e`` (:func:`_scalar_of`), whose ``amid`` and ``adiag`` wait for a
    general product.  A factor that carries a product's pad needs its
    folded pad ``rad + c |mid|``, and an interval right factor also ``|Ym|
    + Yr``: both are derived on first use and kept, the pad once per
    rounding count, so an operand prepared once serves every product it
    enters.  An operand lives as long as its caller keeps it; nothing holds
    one across calls.
    """

    __slots__ = ("mid", "rad", "diag", "scale", "amid", "adiag", "_folds", "_mag_sum")

    def __init__(self, mid: np.ndarray, rad: np.ndarray | None = None):
        self.mid = mid
        # count_nonzero: the cheapest zero test on the many small products of the audits
        self.rad = rad if rad is not None and np.count_nonzero(rad) > 0 else None
        self.diag = _diagonal(mid)
        self.scale = None if self.rad is not None else _scalar_of(self.diag, power_of_two=True)
        self.amid = self.adiag = self._mag_sum = None
        self._folds = {}
        if self.scale is None:
            self._magnitudes()

    def _magnitudes(self) -> None:
        """Form ``amid`` and ``adiag``."""
        self.amid = np.abs(self.mid)
        self.adiag = None if self.diag is None else self.amid.diagonal()

    def fold(self, n: int) -> tuple[np.ndarray | None, bool]:
        """:func:`_fold` of ``(|mid|, rad)`` at the count ``n`` of a product this operand pads.

        ``n = 2k + 8`` over the inner dimension ``k``: the operand's rows as
        the right factor, its columns as the left one; each count keeps its fold.
        """
        got = self._folds.get(n)
        if got is None:
            got = self._folds[n] = _fold(self.amid, self.rad, n)
        return got

    def mag_sum(self) -> np.ndarray:
        """``|Ym| + Yr``, or ``|Ym|`` for a point."""
        if self._mag_sum is None:
            self._mag_sum = self.amid if self.rad is None else self.amid + self.rad
        return self._mag_sum


def _prepare(x) -> _Operand:
    """``x`` as an :class:`_Operand`: an operand passes, a kernel's ``(mid, rad)`` pair is
    wrapped as it is, a point array or IMatrix is coerced."""
    if isinstance(x, _Operand):
        return x
    if isinstance(x, tuple):
        return _Operand(*x)
    if not isinstance(x, IMatrix):
        x = IMatrix(x)
    return _Operand(x.mid, x.rad)


def _product(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and radius of the product of two prepared operands, unchecked.

    The one product kernel: :func:`im_matmul` wraps it, and the audit's
    residual boxes call it on operands prepared once per call.  Beside a
    factor with a ``scale`` ``c`` it is ``(c Ym, |c| Yr)`` in the general
    product's dtype wherever :func:`_scaled` finds that exact, and the
    general product elsewhere; only there may the other factor be a bare
    ``(mid, rad)`` pair.  The general product (:func:`_general_product`)
    folds its pad into ``y`` when ``y`` is an interval and into ``x`` when
    ``y`` is a point.  A non-finite entry is the caller's to catch.
    """
    op, other, axis = x, y, -2
    c = getattr(x, "scale", None)
    if c is None:
        op, other, axis = y, x, -1
        c = getattr(y, "scale", None)
        if c is None:
            return _general_product(x, y)
    omid, orad = (other.mid, other.rad) if isinstance(other, _Operand) else other
    if omid.shape[axis] != op.mid.shape[0]:
        raise ValueError("dimension mismatch")
    dtype = omid.dtype if omid.dtype == op.mid.dtype else np.result_type(omid, op.mid)
    mid, rad, exact = _scaled(c, omid, orad, dtype)
    # np.True_ is a singleton, and the identity test costs a thirtieth of all()
    if exact is np.True_ or exact.all():
        return mid, np.zeros(mid.shape) if rad is None else rad
    gmid, grad = _general_product(_prepare(x), _prepare(y))
    # on a stack, the matrices the scaling keeps exact keep it
    gmid[exact] = mid[exact]
    grad[exact] = 0.0 if rad is None else rad[exact]
    return gmid, grad


def _general_product(x: _Operand, y: _Operand) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and radius of Rump's product of two prepared operands (see :func:`im_matmul`)."""
    k = x.mid.shape[-1]
    if k != y.mid.shape[-2]:
        raise ValueError("dimension mismatch")
    # an operand with a scale forms its magnitudes on its first general product
    if x.amid is None:
        x._magnitudes()
    if y.amid is None:
        y._magnitudes()
    nops = _dot_ops(k)
    mid = _dot(x.mid, y.mid, x.diag, y.diag)
    adx = x.adiag
    if y.rad is None:
        # the pad rides on x, and keeps x's diagonal pattern only when x is a point
        pad, split = x.fold(nops)
        dpad = None if pad is None or x.rad is not None or adx is None else pad.diagonal()
        rad = np.zeros(mid.shape) if pad is None else _dot(pad, y.amid, dpad, y.adiag)
    else:
        pad, split = y.fold(nops)
        rad = _dot(x.amid, pad, adx, None)
        if x.rad is not None:
            rad += _dot(x.rad, y.mag_sum(), None, None)
    _up(rad, nops, out=rad)
    if split:
        rad += _slack(_dot(x.amid, y.amid, adx, y.adiag), nops)
    return mid, rad


def im_matmul(x, y) -> IMatrix:
    """Interval matrix product in midpoint-radius form with outward slack.

    The midpoint is the floating product of midpoints; the radius is

        (|Xm| (Yr + c |Ym|) + Xr (|Ym| + Yr)) (1 + nops ETA),   nops = 2k + 8,

    or ``(Xr + c |Xm|) |Ym| (1 + nops ETA)`` for a point ``y``: Rump's
    midpoint-radius form with the pad ``nops ETA |Xm| |Ym|`` of the
    four-product form ``(|Xm| Yr + Xr |Ym| + Xr Yr)(1 + nops ETA) +
    nops ETA |Xm| |Ym|`` folded into the first product (see module
    docstring).  ``c`` is ``nops ETA / (1 + nops ETA)`` rounded up, so
    ``c (1 + nops ETA) >= nops ETA``: the pad still dominates every floating
    error on the length-``k`` accumulation paths, and the count's margin
    covers the rounding of the radius's own sums and products.  ``c``
    exceeds the exact quotient by less than two ulps, so no radius is wider
    than the four-product one by more than rounding; folding ``nops ETA``
    itself under the scale would add ``(nops ETA)^2 |Xm| |Ym|``.  When a
    nonzero entry of ``c |Ym|`` (``c |Xm|``) falls below the normal range,
    where it keeps too few bits (a subnormal entry, say, beside a large one
    of the other factor whose product with it is normal), the pad is the
    four-product form's own product ``nops ETA |Xm| |Ym|``, added after the
    scale.

    The products with a zero radius are exactly zero and are skipped, so a
    point and an interval, on either side, take the midpoint product and
    one radius product, an interval pair the midpoint product and two, with
    no bit changed.  A factor with an exactly diagonal midpoint is applied
    by a broadcast; the pad stays the one of the dense length-``k`` product.

    A factor that is the point ``<c I, 0>`` with ``c = +-2^e`` (the identity
    among them) is exact: the result is ``(c Ym, |c| Yr)`` for ``x = c I``,
    and ``(c Xm, |c| Xr)`` for ``y = c I``, with no radius product and no
    pad, and its midpoint has the general product's dtype and bits; the
    product by ``I`` shares the other factor's arrays, by ``-I`` its radii.
    Where a scaled entry would leave the normal range the general product is
    taken instead, decided per matrix of a stack (:func:`_scaled`).

    The product itself is :func:`_product` on two prepared operands
    (:class:`_Operand`), which ``im_matmul`` builds from each argument; an
    argument that is already an operand passes through, so a caller that
    multiplies by one factor several times prepares it once.

    Either operand may instead hold a ``(k, r, c)`` stack of matrices, an
    IMatrix that a kernel built from stacked arrays (the samples of
    :func:`~sylvenc.baseline.residual_membership`); the result is the stack
    of the products.  numpy's stacked product makes, per matrix, the BLAS
    call of the 2-D product, so each matrix of the result is bit for bit the
    2-D call's.  The one exception: a stacked factor always takes the dense
    product, so on complex data a matrix of the stack that is exactly
    diagonal can round differently in the last bit.
    """
    mid, rad = _product(_prepare(x), _prepare(y))
    return IMatrix._from_kernel(mid, rad)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, an exactly diagonal 2-D factor applied by a broadcast (see :func:`_dot`)."""
    return _dot(a, b, _diagonal(a), _diagonal(b))


def posmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upper bound of the product of entrywise nonnegative point matrices.

    An exactly diagonal factor is applied by a broadcast under the same pad.
    """
    k = a.shape[1] if a.ndim == 2 else a.shape[0]
    p = _mm(a, b)
    return _up(p, _dot_ops(k), out=p)


def iv_recip_arrays(mid: np.ndarray, rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise disk reciprocal ``1 / <mid, rad>`` on arrays.

    With ``t = r / |c| < 1``, the exact image of a zero-free disk ``<c, r>``
    is the disk ``<u / D, t / D>`` with the unit ``u = conj(c) / |c|`` and
    ``D = |c| (1 - t^2)``.  Factoring ``|c|`` out, instead of squaring it,
    keeps every intermediate near ``|c|`` or 1, so no square over- or
    underflows.  The result is ``<u / lo, tu / lo>`` for an upper bound
    ``tu`` of ``t`` and a lower bound ``lo`` of ``D``, plus the slack
    ``40 ETA |u / lo|``.

    Why that holds: ``lo < D`` moves the midpoint by ``1/lo - 1/D`` but
    widens the radius only by ``t (1/lo - 1/D)``, less since ``t < 1``, so a
    larger radius does not by itself cover the move.  Write ``lo = D (1 -
    g)``.  The part of ``g`` due to ``tu > t`` is at most ``(tu - t) / (1 -
    t)``, which the radius ``tu / lo`` covers.  The rest is the rounding of
    ``|c|`` and of the lower bounds, within a few ``ETA``, and the slack
    covers it with the rounding of the midpoint.

    Raises ``ZeroDivisionError`` when a disk may touch zero, and
    :class:`IntervalOverflowError` when ``|c|`` or ``lo`` lies below the
    normal range, where rounding errors are absolute and the relative pads
    do not cover them.
    """
    mid = np.asarray(mid)
    rad = np.asarray(rad, dtype=np.float64)
    absm = np.abs(mid)
    if (_down(absm, 2) <= rad).any():
        raise ZeroDivisionError("interval division by zero")
    if (absm < _NORMAL_MIN).any():
        raise IntervalOverflowError("interval overflow: reciprocal below the normal range")
    unit = np.conj(mid) / absm
    # absm, and later lo, are spent: the results reuse their storage
    alo = _down(absm, 2, out=absm)
    tu = _up(rad / alo, 2)
    lo = _up(tu * tu, 2)
    np.subtract(1.0, lo, out=lo)
    _down(lo, 2, out=lo)
    lo *= alo
    _down(lo, 2, out=lo)
    if (lo <= 0.0).any():
        raise ZeroDivisionError("interval division by zero")
    if (lo < _NORMAL_MIN).any():
        raise IntervalOverflowError("interval overflow: reciprocal below the normal range")
    rmid = np.divide(unit, lo, out=unit)
    rrad = _up(np.divide(tu, lo, out=tu), 2, out=tu)
    rrad += _slack(np.abs(rmid, out=lo), 40, out=lo)
    return rmid, rrad


class _Reciprocals(NamedTuple):
    """Disks ``<mid, rad>`` that contain the reciprocals of the disk denominators."""

    mid: np.ndarray
    rad: np.ndarray


class _Denominators(NamedTuple):
    """Disk denominators ``a_i b_j + c_i d_j`` and their disk reciprocals."""

    mid: np.ndarray
    rad: np.ndarray
    rec_mid: np.ndarray
    rec_rad: np.ndarray

    @property
    def rec(self) -> _Reciprocals:
        """The reciprocal disks alone, all that a division through them reads."""
        return _Reciprocals(self.rec_mid, self.rec_rad)


def _den_mid(a, b, c, d) -> np.ndarray:
    """``a_i b_j + c_i d_j`` in floating point: the midpoints of :func:`_denominators`."""
    return np.outer(a, b) + np.outer(c, d)


def _denominators(a, b, c, d) -> _Denominators:
    """Screened disk denominators ``a_i b_j + c_i d_j`` of four stored diagonals.

    The radii cover the floating formation error, so the exact products of
    the stored diagonals are certainly enclosed.  Raises
    :class:`SingularPreconditionerError` when a disk comes near zero, and
    :class:`IntervalOverflowError` when a denominator overflows or, by
    :func:`iv_recip_arrays`, lies below the normal range.
    """
    mid = _den_mid(a, b, c, d)
    rad = np.outer(np.abs(a), np.abs(b)) + np.outer(np.abs(c), np.abs(d))
    _slack(rad, 6, out=rad)
    if not (np.isfinite(mid).all() and np.isfinite(rad).all()):
        raise IntervalOverflowError("interval overflow")
    lo = np.abs(mid) - rad
    if mid.size == 0 or lo.min() <= SINGULAR_REL * np.abs(mid).max():
        raise SingularPreconditionerError("singular preconditioner entry")
    try:
        return _Denominators(mid, rad, *iv_recip_arrays(mid, rad))
    except ZeroDivisionError:
        raise SingularPreconditionerError("singular preconditioner entry") from None


def in_interior(h: IMatrix, x: IMatrix) -> bool:
    """Certified strict interior test ``h subset int(x)`` entrywise.

    True only when ``|h.mid - x.mid| + h.rad < x.rad`` holds with an upward
    pad on the left side, so a True answer is rigorous.
    """
    h, x = as_imatrix(h), as_imatrix(x)
    if h.shape != x.shape:
        raise ValueError("dimension mismatch")
    return bool((_reach(h, x) < x.rad).all())


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Read-only zeros of ``shape`` and ``dtype`` that take no memory: one zero, broadcast.

    The zero midpoints of symmetric boxes take this form; every entrywise
    operation reads it as it reads ``np.zeros``, and nothing writes into a
    box's midpoint.
    """
    return np.broadcast_to(np.zeros((), dtype), shape)


def _inflation_rad(rad: np.ndarray) -> np.ndarray:
    """``0.1 rad + 10 * 2**-52``: the radii of :func:`epsilon_inflate`."""
    return 0.1 * rad + 10.0 * EPS_MACH


def epsilon_inflate(m: IMatrix) -> IMatrix:
    """Zero-midpoint inflation term ``<0, 0.1 * rad(m) + 10 * 2**-52>``.

    The midpoint is a read-only broadcast zero of ``m``'s dtype (:func:`_zeros`).
    """
    m = as_imatrix(m)
    return IMatrix._from_kernel(_zeros(m.shape, m.mid.dtype), _inflation_rad(m.rad))


# ---------------------------------------------------------------------------
# rectangle form (conversion device for the refinement meet)
# ---------------------------------------------------------------------------


class Rect:
    """Entrywise rectangles: independent inf-sup bounds on Re and Im parts.

    Real data keeps float64 endpoint arrays (imaginary part identically zero).
    Used only as the intersection-friendly representation inside the
    refinement iteration; disks remain the public interval form.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_2d(np.asarray(lo))
        hi = np.atleast_2d(np.asarray(hi))
        if lo.shape != hi.shape:
            raise ValueError("dimension mismatch")
        if np.iscomplexobj(lo) or np.iscomplexobj(hi):
            lo = lo.astype(np.complex128, copy=False)
            hi = hi.astype(np.complex128, copy=False)
            bad = (lo.real > hi.real) | (lo.imag > hi.imag)
        else:
            lo = lo.astype(np.float64, copy=False)
            hi = hi.astype(np.float64, copy=False)
            bad = lo > hi
        if bad.any():
            raise InconsistentEnclosureError("inconsistent enclosure: empty rectangle")
        self.lo, self.hi = lo, hi

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.lo)

    def subset_of(self, other: "Rect") -> bool:
        if self.is_real and other.is_real:
            return bool((self.lo >= other.lo).all() and (self.hi <= other.hi).all())
        a, b = self, other
        return bool(
            (a.lo.real >= b.lo.real).all()
            and (a.hi.real <= b.hi.real).all()
            and (np.asarray(a.lo).imag >= np.asarray(b.lo).imag).all()
            and (np.asarray(a.hi).imag <= np.asarray(b.hi).imag).all()
        )

    def half_widths(self) -> np.ndarray:
        """Per-entry enclosure radius scale: half diagonal for complex data."""
        if self.is_real:
            return 0.5 * (self.hi - self.lo)
        return 0.5 * np.abs(self.hi - self.lo)


def disks_to_rect(m: IMatrix) -> Rect:
    """Outward bounding rectangles of the disks of ``m``."""
    amid = np.abs(m.mid)
    r = _rect_half(amid, m.rad, out=amid)
    if m.is_real:
        return Rect(m.mid - r, m.mid + r)
    lo = (m.mid.real - r) + 1j * (m.mid.imag - r)
    hi = (m.mid.real + r) + 1j * (m.mid.imag + r)
    return Rect(lo, hi)


def rect_to_disks(r: Rect) -> IMatrix:
    """Outward circumscribed disks of the rectangles of ``r``."""
    mid = 0.5 * (r.lo + r.hi)
    if r.is_real:
        return IMatrix(mid, _pad_rad(np.maximum(r.hi - mid, mid - r.lo), np.abs(mid)))
    dre = np.maximum(r.hi.real - mid.real, mid.real - r.lo.real)
    dim = np.maximum(r.hi.imag - mid.imag, mid.imag - r.lo.imag)
    rad = np.hypot(dre, dim)
    return IMatrix(mid, _pad_rad(rad, np.abs(mid), 4, out=rad))


def rect_mag(r: Rect) -> np.ndarray:
    """Entrywise upper bound of ``max{|z| : z in rectangle}``."""
    if r.is_real:
        return _corner_mag((r.lo, r.hi))
    return _corner_mag((r.lo.real, r.lo.imag, r.hi.real, r.hi.imag))
