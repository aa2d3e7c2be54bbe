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
of a length-``k`` inner product), ``_quot`` (a disk times a reciprocal
disk), ``_mag``, ``_reach``, ``_rect_half`` and ``_corner_mag``.  So the
rounding model is this module's decision alone.  Each rule fixes the order
of its floating-point operations, so every kernel that applies it rounds
alike, and a term the model still lacks (the absolute underflow term below)
goes into these rules, not into the kernels.

Products follow Rump's midpoint-radius arithmetic ("Fast and parallel
interval arithmetic", BIT 39, 1999).  :func:`im_matmul` bounds the radius by
``(|Xm| (Yr + c |Ym|) + Xr (|Ym| + Yr)) (1 + n ETA)``: the pad
``n ETA |Xm| |Ym|`` of the rounding errors rides in the first product,
with ``c = n ETA / (1 + n ETA)`` rounded up so that the folded pad is
at least the separate one (unless a nonzero entry of ``c |Ym|`` falls below
the normal range: then the pad is that separate product).  In exact
arithmetic, and up to the rounding of ``c``, this is the four-product bound
``(|Xm| Yr + Xr |Ym| + Xr Yr)(1 + n ETA) + n ETA |Xm| |Ym|``,
so no radius is wider than that one by more than rounding, while an interval
product takes the midpoint product and two radius products instead of four,
and a point times an interval product one radius product instead of two.

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


def _quot(mid, rad, rec_mid, rec_rad):
    """Disks ``<mid, rad>`` times reciprocal disks ``<rec_mid, rec_rad>``: the midpoint and radius.

    The radius is ``(|mid| rec_rad + rad |rec_mid| + rad rec_rad)(1 + 5 ETA)
    + 4 ETA |mid rec_mid|``.  ``mid=None`` stands for zero midpoints: their
    quotients are zero, the midpoint returned is None and the radius has the
    bits of the one of explicit zeros.
    """
    if mid is None:
        r = rad * np.abs(rec_mid)
        r += rad * rec_rad
        return None, _up(r, 5, out=r)
    q = mid * rec_mid
    r = _up(np.abs(mid) * rec_rad + rad * np.abs(rec_mid) + rad * rec_rad, 5)
    r += _slack(np.abs(q), 4)
    return q, r


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
        if rad is None:
            rad = np.zeros(mid.shape)
        else:
            rad = np.atleast_2d(np.asarray(rad, dtype=np.float64))
        if mid.ndim != 2 or rad.shape != mid.shape:
            raise ValueError("dimension mismatch between midpoint and radius arrays")
        if not np.isfinite(mid).all() or not np.isfinite(rad).all():
            raise IntervalOverflowError("interval overflow")
        if (rad < 0).any():
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


def im_matmul(x: IMatrix, y: IMatrix) -> IMatrix:
    """Interval matrix product in midpoint-radius form with outward slack.

    The midpoint is the floating product of midpoints; the radius is

        (|Xm| (Yr + c |Ym|) + Xr (|Ym| + Yr)) (1 + nops ETA),   nops = 2k + 8,

    Rump's midpoint-radius form with the pad ``nops ETA |Xm| |Ym|`` of the
    four-product form ``(|Xm| Yr + Xr |Ym| + Xr Yr)(1 + nops ETA) +
    nops ETA |Xm| |Ym|`` folded into the first product (see module
    docstring).  ``c`` is ``nops ETA / (1 + nops ETA)`` rounded up, so
    ``c (1 + nops ETA) >= nops ETA``: the pad still dominates every floating
    error on the length-``k`` accumulation paths, and the count's margin
    covers the rounding of the radius's own sums and products.  ``c``
    exceeds the exact quotient by less than two ulps, so no radius is wider
    than the four-product one by more than rounding; folding ``nops ETA``
    itself under the scale would add ``(nops ETA)^2 |Xm| |Ym|``.  When a
    nonzero entry of ``c |Ym|`` falls below the normal range, where it keeps
    too few bits (a subnormal ``|Ym|`` entry, say, beside a large ``|Xm|``
    whose product with it is normal), the pad is the four-product form's
    own product ``nops ETA |Xm| |Ym|``, added after the scale.

    The products with a zero radius are exactly zero and are skipped, so a
    point ``x`` takes the midpoint product and one radius product, an
    interval pair the midpoint product and two, with no bit changed.  A
    factor with an exactly diagonal midpoint is applied by a broadcast; the
    pad stays the one of the dense length-``k`` product.

    Either operand may instead hold a ``(k, r, c)`` stack of matrices, an
    IMatrix that a kernel built from stacked arrays (the samples of
    :func:`~sylvenc.baseline.residual_membership`); the result is the stack
    of the products.  numpy's stacked product makes, per matrix, the BLAS
    call of the 2-D product, so each matrix of the result is bit for bit the
    2-D call's.  The one exception: a stacked factor always takes the dense
    product, so on complex data a matrix of the stack that is exactly
    diagonal can round differently in the last bit.
    """
    x, y = as_imatrix(x), as_imatrix(y)
    k = x.mid.shape[-1]
    if k != y.mid.shape[-2]:
        raise ValueError("dimension mismatch")
    nops = _dot_ops(k)
    pad = nops * ETA
    # the quotient of the stored floats rounded up: c (1 + pad) >= pad holds exactly
    c = math.nextafter(pad / (1.0 + pad), math.inf)
    dx, dy = _diagonal(x.mid), _diagonal(y.mid)
    mid = _dot(x.mid, y.mid, dx, dy)
    ax, ay = np.abs(x.mid), np.abs(y.mid)
    # count_nonzero: the cheapest zero test on the many small products of the audits
    x_rad, y_rad = np.count_nonzero(x.rad) > 0, np.count_nonzero(y.rad) > 0
    # y's sums keep its diagonal pattern only when y is a point
    ydiag = dy is not None and not y_rad
    adx = None if dx is None else np.abs(dx)
    ypad = ay * c
    # every zero of |Ym| lies below the normal range in c |Ym|; a nonzero entry that
    # does too keeps too few bits of the pad, which is then a product of its own
    small = np.count_nonzero(ypad < _NORMAL_MIN)
    split = small > 0 and small > ay.size - np.count_nonzero(ay)
    if split:
        ypad = y.rad if y_rad else None
    elif y_rad:
        ypad += y.rad
    if ypad is None:
        rad = np.zeros(mid.shape)
    else:
        rad = _dot(ax, ypad, adx, ypad.diagonal() if ydiag else None)
    if x_rad:
        rad += _dot(x.rad, ay + y.rad if y_rad else ay, None, ay.diagonal() if ydiag else None)
    _up(rad, nops, out=rad)
    if split:
        rad += _slack(_dot(ax, ay, adx, None if dy is None else ay.diagonal()), nops)
    return IMatrix._from_kernel(mid, rad)


def posmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upper bound of the product of entrywise nonnegative point matrices.

    An exactly diagonal factor is applied by a broadcast under the same pad.
    """
    k = a.shape[1] if a.ndim == 2 else a.shape[0]
    p = _dot(a, b, _diagonal(a), _diagonal(b))
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


class _Denominators(NamedTuple):
    """Disk denominators ``a_i b_j + c_i d_j`` and their disk reciprocals."""

    mid: np.ndarray
    rad: np.ndarray
    rec_mid: np.ndarray
    rec_rad: np.ndarray


def _denominators(a, b, c, d) -> _Denominators:
    """Screened disk denominators ``a_i b_j + c_i d_j`` of four stored diagonals.

    The radii cover the floating formation error, so the exact products of
    the stored diagonals are certainly enclosed.  Raises
    :class:`SingularPreconditionerError` when a disk comes near zero, and
    :class:`IntervalOverflowError` when a denominator overflows or, by
    :func:`iv_recip_arrays`, lies below the normal range.
    """
    mid = np.outer(a, b) + np.outer(c, d)
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


def epsilon_inflate(m: IMatrix) -> IMatrix:
    """Zero-midpoint inflation term ``<0, 0.1 * rad(m) + 10 * 2**-52>``."""
    m = as_imatrix(m)
    rad = 0.1 * m.rad + 10.0 * EPS_MACH
    mid = np.zeros(m.shape, dtype=m.mid.dtype)
    return IMatrix(mid, rad)


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
