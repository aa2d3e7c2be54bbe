"""Circular (midpoint-radius) interval scalars and matrices.

A scalar interval is a closed disk in the complex plane,
``{z : |z - mid| <= rad}``; real intervals are disks with a real midpoint.
Matrices of such disks are stored as a midpoint array (float64 or complex128)
plus a nonnegative float64 radius array.

Outward rounding is realized by radius inflation instead of switching the FPU
rounding mode: every floating-point result is padded by a slack proportional
to ``eta`` times the accumulated magnitude of the operands, where ``eta``
(default ``2**-50``, i.e. eight binary64 ulps) comes from a
:class:`RoundingPolicy`.  For a kernel whose longest dependency chain runs
through ``n`` inexact operations on data of accumulated magnitude ``M``, the
exact result differs from the computed one by at most ``gamma_n * M`` with
``gamma_n ~ n * 2**-53``, so a pad of ``n_ops * eta * M`` with ``n_ops``
at least the chain length is strictly conservative for every ``eta >= 2**-53``.
Kernels below count ``n_ops`` generously (e.g. ``2k + 8`` for a length-``k``
inner product) so that complex arithmetic constants are covered as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentEnclosureError,
    IntervalOverflowError,
    SingularPreconditionerError,
)

__all__ = [
    "RoundingPolicy",
    "DEFAULT_POLICY",
    "Disk",
    "IMatrix",
    "as_imatrix",
    "iv_mul",
    "iv_mag",
    "iv_meet",
    "im_matmul",
    "posmm",
    "iv_recip_arrays",
    "hadamard_div_point",
    "in_interior",
    "epsilon_inflate",
    "Rect",
    "disks_to_rect",
    "rect_to_disks",
    "rect_meet",
    "rect_mag",
]

EPS_MACH = 2.0**-52
# divisors smaller than this times the largest one count as singular
SINGULAR_REL = 2.0**-40


@dataclass(frozen=True)
class RoundingPolicy:
    """Radius-inflation constant used for outward rounding.

    ``eta`` must be at least one ulp (``2**-53``); the default leaves an 8x
    safety margin.  A policy is fixed for the lifetime of a computation: all
    operations of one solve must use the same policy object.
    """

    eta: float = 2.0**-50

    def __post_init__(self) -> None:
        if not np.isfinite(self.eta) or self.eta < 2.0**-53:
            raise ValueError("eta must be finite and at least 2**-53")


DEFAULT_POLICY = RoundingPolicy()


def _pol(policy: RoundingPolicy | None) -> RoundingPolicy:
    return DEFAULT_POLICY if policy is None else policy


# ---------------------------------------------------------------------------
# scalar disks
# ---------------------------------------------------------------------------


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

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - complex(self.mid)) <= self.rad

    def __add__(self, other: "Disk") -> "Disk":
        return _disk_add(self, other, +1)

    def __sub__(self, other: "Disk") -> "Disk":
        return _disk_add(self, other, -1)

    def __mul__(self, other: "Disk") -> "Disk":
        return iv_mul(self, other)


def _disk_add(x: Disk, y: Disk, sign: int, policy: RoundingPolicy | None = None) -> Disk:
    eta = _pol(policy).eta
    mid = x.mid + sign * y.mid
    rad = x.rad + y.rad
    rad = rad * (1.0 + 2.0 * eta) + 2.0 * eta * abs(mid)
    _check_finite_scalar(mid, rad)
    return Disk(mid, rad)


def iv_mul(x: Disk, y: Disk, policy: RoundingPolicy | None = None) -> Disk:
    """Disk product ``<xm*ym, |xm|*yr + xr*|ym| + xr*yr>`` with rounding slack."""
    eta = _pol(policy).eta
    mid = x.mid * y.mid
    rad0 = abs(x.mid) * y.rad + x.rad * abs(y.mid) + x.rad * y.rad
    # one inexact midpoint multiply (four for complex), five nonneg ops on rad0
    units = 1 if (x.is_real and y.is_real) else 4
    rad = rad0 * (1.0 + 5.0 * eta) + units * eta * abs(mid)
    _check_finite_scalar(mid, rad)
    return Disk(mid, rad)


def iv_mag(x: Disk, policy: RoundingPolicy | None = None) -> float:
    """Upper bound for ``max{|z| : z in x}``, i.e. ``|mid| + rad`` rounded up."""
    eta = _pol(policy).eta
    return (abs(x.mid) + x.rad) * (1.0 + 3.0 * eta)


def iv_meet(x: Disk, y: Disk, policy: RoundingPolicy | None = None) -> Disk:
    """An interval containing ``x & y`` and contained in ``y``.

    Real pairs intersect exactly in inf-sup form.  Complex pairs intersect
    their bounding rectangles and take the disk hull; whenever that hull is
    not certainly inside ``y``, ``y`` itself is returned (still an enclosure
    of the intersection).  Raises on a certainly empty intersection.
    """
    eta = _pol(policy).eta
    # cheap containment shortcuts keep the result tight and well nested
    if _disk_subset(x, y, eta):
        return x
    if _disk_subset(y, x, eta):
        return y
    dist_lo = (abs(x.mid - y.mid)) * (1.0 - 4.0 * eta)
    if dist_lo > x.rad + y.rad:
        raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
    if x.is_real and y.is_real:
        xlo, xhi = _scalar_infsup(x, eta)
        ylo, yhi = _scalar_infsup(y, eta)
        lo, hi = max(xlo, ylo), min(xhi, yhi)
        if lo > hi:
            raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
        mid = 0.5 * (lo + hi)
        rad = max(hi - mid, mid - lo) * (1.0 + 2.0 * eta)
        cand = Disk(mid, rad)
    else:
        xl, xh = _scalar_rect(x, eta)
        yl, yh = _scalar_rect(y, eta)
        lo = complex(max(xl.real, yl.real), max(xl.imag, yl.imag))
        hi = complex(min(xh.real, yh.real), min(xh.imag, yh.imag))
        if lo.real > hi.real or lo.imag > hi.imag:
            raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
        mid = 0.5 * (lo + hi)
        rad = abs(hi - mid) * (1.0 + 6.0 * eta)
        cand = Disk(mid, rad)
    return cand if _disk_subset(cand, y, eta) else y


def _disk_subset(a: Disk, b: Disk, eta: float) -> bool:
    # certain containment: |a.mid - b.mid| + a.rad <= b.rad with upward pad
    lhs = (abs(a.mid - b.mid) + a.rad) * (1.0 + 4.0 * eta)
    return lhs <= b.rad


def _scalar_infsup(x: Disk, eta: float) -> tuple[float, float]:
    m = complex(x.mid).real
    pad = eta * (abs(m) + x.rad)
    return m - x.rad - pad, m + x.rad + pad


def _scalar_rect(x: Disk, eta: float) -> tuple[complex, complex]:
    m = complex(x.mid)
    pad = eta * (abs(m) + x.rad) + eta * x.rad
    r = x.rad + pad
    return complex(m.real - r, m.imag - r), complex(m.real + r, m.imag + r)


def _check_finite_scalar(mid: complex, rad: float) -> None:
    m = complex(mid)
    if not (np.isfinite(m.real) and np.isfinite(m.imag) and np.isfinite(rad)):
        raise IntervalOverflowError("interval overflow")


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

        ``mid`` must be a 2-D float64 or complex128 array and ``rad`` a
        nonnegative float64 array of its shape; the kernel's own operations
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
    def from_infsup(cls, lo, hi, policy: RoundingPolicy | None = None) -> "IMatrix":
        """Outward conversion of a real inf-sup pair to midpoint-radius form."""
        eta = _pol(policy).eta
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape:
            raise ValueError("dimension mismatch between inf and sup arrays")
        if (lo > hi).any():
            raise ValueError("inf endpoint exceeds sup endpoint")
        mid = 0.5 * (lo + hi)
        half = np.maximum(hi - mid, mid - lo)
        rad = half * (1.0 + 2.0 * eta) + 2.0 * eta * np.abs(mid)
        return cls(mid, rad)

    # -- entrywise views ----------------------------------------------------
    def entry(self, i: int, j: int) -> Disk:
        return Disk(self.mid[i, j].item(), self.rad[i, j].item())

    def mag(self, policy: RoundingPolicy | None = None) -> np.ndarray:
        """Entrywise upper bound of ``|mid| + rad``."""
        eta = _pol(policy).eta
        return (np.abs(self.mid) + self.rad) * (1.0 + 3.0 * eta)

    def widths(self) -> np.ndarray:
        return 2.0 * self.rad

    def contains_point(self, x) -> bool:
        """Entrywise membership of a point matrix (no tolerance)."""
        x = np.atleast_2d(np.asarray(x))
        if x.shape != self.shape:
            raise ValueError("dimension mismatch")
        return bool((np.abs(x - self.mid) <= self.rad).all())

    def contains(self, other: "IMatrix", policy: RoundingPolicy | None = None) -> bool:
        """Entrywise disk containment ``other subset self`` (conservative)."""
        other = as_imatrix(other)
        lhs = (np.abs(other.mid - self.mid) + other.rad) * (1.0 + 4.0 * _pol(policy).eta)
        return bool((lhs <= self.rad).all())

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


def _im_add(x: IMatrix, y: IMatrix, sign: float, policy: RoundingPolicy | None = None) -> IMatrix:
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    eta = _pol(policy).eta
    mid = x.mid + sign * y.mid
    rad = (x.rad + y.rad) * (1.0 + 2.0 * eta) + 2.0 * eta * np.abs(mid)
    return IMatrix._from_kernel(mid, rad)


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
        return np.multiply(da[:, None] if b.ndim == 2 else da, b, order="C")
    if db is not None:
        return np.multiply(a, db, order="C")
    return a @ b


def im_matmul(x: IMatrix, y: IMatrix, policy: RoundingPolicy | None = None) -> IMatrix:
    """Interval matrix product with aggregate outward slack.

    The midpoint is the floating product of midpoints; the radius is
    ``|Xm| Yr + Xr |Ym| + Xr Yr`` plus ``(2k + 8) * eta`` times the magnitude
    sum ``|Xm| |Ym|``, which dominates every floating error on the length-``k``
    accumulation paths (see module docstring).

    The products with a zero radius are exactly zero and are skipped, so a
    point factor costs two real products fewer and changes no bit of the
    result.  A factor with an exactly diagonal midpoint is applied by a
    broadcast; the pad stays the one of the dense length-``k`` product.
    """
    x, y = as_imatrix(x), as_imatrix(y)
    if x.cols != y.rows:
        raise ValueError("dimension mismatch")
    eta = _pol(policy).eta
    k = x.cols
    nops = 2 * k + 8
    dx, dy = _diagonal(x.mid), _diagonal(y.mid)
    adx = None if dx is None else np.abs(dx)
    ady = None if dy is None else np.abs(dy)
    mid = _dot(x.mid, y.mid, dx, dy)
    ax, ay = np.abs(x.mid), np.abs(y.mid)
    magprod = _dot(ax, ay, adx, ady)
    # count_nonzero: the cheapest zero test on the many small products of the audits
    x_rad, y_rad = np.count_nonzero(x.rad) > 0, np.count_nonzero(y.rad) > 0
    rad = _dot(ax, y.rad, adx, None) if y_rad else np.zeros(mid.shape)
    # in place: every array here is a fresh result, and the sums round as before
    if x_rad:
        rad += _dot(x.rad, ay, None, ady)
        if y_rad:
            rad += x.rad @ y.rad
    rad *= 1.0 + nops * eta
    magprod *= nops * eta
    rad += magprod
    return IMatrix._from_kernel(mid, rad)


def posmm(a: np.ndarray, b: np.ndarray, policy: RoundingPolicy | None = None) -> np.ndarray:
    """Upper bound of the product of entrywise nonnegative point matrices.

    An exactly diagonal factor is applied by a broadcast under the same pad.
    """
    eta = _pol(policy).eta
    k = a.shape[1] if a.ndim == 2 else a.shape[0]
    return _dot(a, b, _diagonal(a), _diagonal(b)) * (1.0 + (2 * k + 8) * eta)


def iv_recip_arrays(
    mid: np.ndarray, rad: np.ndarray, policy: RoundingPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise disk reciprocal ``1 / <mid, rad>`` on arrays.

    The exact image of a zero-free disk is the disk
    ``<conj(c) / (|c|^2 - r^2), r / (|c|^2 - r^2)>``.  The denominator is
    computed as a certified lower bound ``den <= |c|^2 - r^2``; using it in
    both quotients enlarges the radius by at least as much as it displaces
    the midpoint (up to an ``eta |c| / den`` term, which the final pad
    covers), so the returned disk encloses the reciprocal of every point of
    every input disk.  Raises ``ZeroDivisionError`` when a disk may touch
    zero.
    """
    eta = _pol(policy).eta
    mid = np.asarray(mid)
    rad = np.asarray(rad, dtype=np.float64)
    absm = np.abs(mid)
    if (absm * (1.0 - 2.0 * eta) <= rad).any():
        raise ZeroDivisionError("interval division by zero")
    den = (absm * absm * (1.0 - 8.0 * eta) - rad * rad * (1.0 + 4.0 * eta)) * (1.0 - 4.0 * eta)
    if (den <= 0.0).any():
        raise ZeroDivisionError("interval division by zero")
    rmid = np.conj(mid) / den
    rrad = (rad / den) * (1.0 + 8.0 * eta) + 40.0 * eta * np.abs(rmid)
    return rmid, rrad


class _Denominators(NamedTuple):
    """Disk denominators ``a_i b_j + c_i d_j`` and their disk reciprocals."""

    mid: np.ndarray
    rad: np.ndarray
    rec_mid: np.ndarray
    rec_rad: np.ndarray


def _denominators(a, b, c, d, policy: RoundingPolicy) -> _Denominators:
    """Screened disk denominators ``a_i b_j + c_i d_j`` of four stored diagonals.

    The radii cover the floating formation error, so the exact products of
    the stored diagonals are certainly enclosed.
    """
    eta = policy.eta
    mid = np.outer(a, b) + np.outer(c, d)
    rad = 6.0 * eta * (np.outer(np.abs(a), np.abs(b)) + np.outer(np.abs(c), np.abs(d)))
    lo = np.abs(mid) - rad
    if mid.size == 0 or lo.min() <= SINGULAR_REL * np.abs(mid).max():
        raise SingularPreconditionerError("singular preconditioner entry")
    try:
        return _Denominators(mid, rad, *iv_recip_arrays(mid, rad, policy))
    except ZeroDivisionError:
        raise SingularPreconditionerError("singular preconditioner entry") from None


def hadamard_div_point(y: IMatrix, s: np.ndarray, policy: RoundingPolicy | None = None) -> IMatrix:
    """Entrywise division of an interval matrix by an exact point matrix.

    The divisor entries are taken as exactly the stored floats.  Entries whose
    magnitude falls below ``SINGULAR_REL`` times the largest divisor magnitude
    are treated as singular.
    """
    y = as_imatrix(y)
    s = np.atleast_2d(np.asarray(s))
    if s.shape != y.shape:
        raise ValueError("dimension mismatch")
    eta = _pol(policy).eta
    abss = np.abs(s)
    smax = abss.max() if abss.size else 0.0
    if smax == 0.0 or (abss < SINGULAR_REL * smax).any():
        raise SingularPreconditionerError("singular preconditioner entry")
    mid = y.mid / s
    abss_lo = abss * (1.0 - 2.0 * eta)
    rad = (y.rad / abss_lo) * (1.0 + 2.0 * eta) + 6.0 * eta * np.abs(mid)
    return IMatrix._from_kernel(mid, rad)


def in_interior(h: IMatrix, x: IMatrix, policy: RoundingPolicy | None = None) -> bool:
    """Certified strict interior test ``h subset int(x)`` entrywise.

    True only when ``|h.mid - x.mid| + h.rad < x.rad`` holds with an upward
    pad on the left side, so a True answer is rigorous.
    """
    h, x = as_imatrix(h), as_imatrix(x)
    if h.shape != x.shape:
        raise ValueError("dimension mismatch")
    eta = _pol(policy).eta
    lhs = (np.abs(h.mid - x.mid) + h.rad) * (1.0 + 4.0 * eta)
    return bool((lhs < x.rad).all())


def epsilon_inflate(m: IMatrix, policy: RoundingPolicy | None = None) -> IMatrix:
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


def disks_to_rect(m: IMatrix, policy: RoundingPolicy | None = None) -> Rect:
    """Outward bounding rectangles of the disks of ``m``."""
    eta = _pol(policy).eta
    pad = eta * (np.abs(m.mid) + m.rad) + eta * m.rad
    r = m.rad + pad
    if m.is_real:
        return Rect(m.mid - r, m.mid + r)
    lo = (m.mid.real - r) + 1j * (m.mid.imag - r)
    hi = (m.mid.real + r) + 1j * (m.mid.imag + r)
    return Rect(lo, hi)


def rect_to_disks(r: Rect, policy: RoundingPolicy | None = None) -> IMatrix:
    """Outward circumscribed disks of the rectangles of ``r``."""
    eta = _pol(policy).eta
    mid = 0.5 * (r.lo + r.hi)
    if r.is_real:
        half = np.maximum(r.hi - mid, mid - r.lo)
        rad = half * (1.0 + 2.0 * eta) + 2.0 * eta * np.abs(mid)
        return IMatrix(mid, rad)
    dre = np.maximum(r.hi.real - mid.real, mid.real - r.lo.real)
    dim = np.maximum(r.hi.imag - mid.imag, mid.imag - r.lo.imag)
    rad = np.hypot(dre, dim) * (1.0 + 4.0 * eta) + 4.0 * eta * np.abs(mid)
    return IMatrix(mid, rad)


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


def rect_mag(r: Rect, policy: RoundingPolicy | None = None) -> np.ndarray:
    """Entrywise upper bound of ``max{|z| : z in rectangle}``."""
    eta = _pol(policy).eta
    if r.is_real:
        m = np.maximum(np.abs(r.lo), np.abs(r.hi))
        return m * (1.0 + eta)
    mre = np.maximum(np.abs(r.lo.real), np.abs(r.hi.real))
    mim = np.maximum(np.abs(r.lo.imag), np.abs(r.hi.imag))
    return np.hypot(mre, mim) * (1.0 + 3.0 * eta)
