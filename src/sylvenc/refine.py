"""Iterative refinement of a verified enclosure by residual division.

Given any enclosure Y of the preconditioned solution set, each member
solution satisfies, entry by entry,

    y_ij = (f_ij - coupling_ij) / (a_i b_j + c_i d_j),

where a..d are the diagonals of the transformed midpoints and the coupling
collects every off-diagonal and radius contribution.  Bounding the coupling
magnitude by T(Y) gives a new enclosure, and intersecting it with Y yields
an enclosure that can only shrink.  Iterating this map refines wide initial
boxes.  Because the transformed midpoints are diagonal, T(Y) is a sum of two
factored pairs, ``P |b| + (|a| o |Y| + P) rad(Bp)`` with ``P = rad(Ap) |Y|``
and likewise for ``Cp, Dp``: four real products per step.

Enclosures are intersected in rectangle form (independent inf-sup bounds on
real and imaginary parts): rectangle intersection is exact, which makes the
nesting of the iterates a structural guarantee rather than a numerical
accident.  The quotient disk ``<mid Fp ./ S, rad>`` is converted outward to
its bounding rectangle before each intersection, and the final rectangle to
its circumscribed disk.

One private kernel serves :func:`gamma_step` and :func:`itr_solve`.  It
keeps the iterate as contiguous float arrays (the real and imaginary parts
of the lower and upper corners, or the two corners for real data) and forms
everything that does not change between steps once per run: the quotient
midpoint ``mid Fp * rec_mid`` with its parts and magnitude, ``|mid Fp| *
rec_rad``, ``|rec_mid|`` and the magnitudes of the midpoint diagonals.  A
step then computes only T(Y), the quotient radius, the intersection, the
distance to the previous iterate and the new magnitude ``|Y|``, with the
operations of the rectangle functions of :mod:`sylvenc.intervals` in their
order, so the iterates are those of the chained rectangle form bit for bit.
A :class:`Rect` is built only for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentEnclosureError, IntervalOverflowError, NoInitialEnclosureError
from .intervals import (
    IMatrix,
    Rect,
    RoundingPolicy,
    _Denominators,
    _denominators,
    _pol,
    as_imatrix,
    disks_to_rect,
    rect_mag,
    rect_to_disks,
)
from .krawczyk import Enclosure, _pair_bound, _pairs, back_transform, mkw_solve
from .precond import PrecondSystem
from .system import SylvesterSystem

__all__ = ["GammaState", "gamma_step", "itr_solve"]

TOL_DEFAULT = 1e-12
MAX_ITER_DEFAULT = 100


@dataclass
class GammaState:
    """Trajectory point of the refinement iteration."""

    Y: Rect
    denom: np.ndarray
    denom_rad: np.ndarray
    k: int
    converged: bool


def _has_negative_zero(*arrays: np.ndarray) -> bool:
    """Whether any of ``arrays`` holds a ``-0.0``."""
    return any(np.signbit(a[a == 0]).any() for a in arrays)


def _stored(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts of ``re + 1j * im`` as a complex array holds them (a signed zero may flip)."""
    z = re + 1j * im
    return z.real.copy(), z.imag.copy()


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with parts ``re`` and ``im``, assembled without arithmetic."""
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


class _Refinement:
    """The residual-division step of one preconditioned system, on float arrays.

    An iterate is a tuple of corner arrays: ``(lo, hi)`` for real data, and
    ``(lo.real, lo.imag, hi.real, hi.imag)`` when the quotient midpoint or
    the start rectangle is complex.
    """

    def __init__(self, ps: PrecondSystem, denom: _Denominators, policy: RoundingPolicy):
        self.pol, self.eta = policy, policy.eta
        self.pairs = _pairs(ps)
        self.frad = ps.Fp.rad
        fmid = ps.Fp.mid
        self.qmid = fmid * denom.rec_mid
        if not np.isfinite(self.qmid).all():
            raise IntervalOverflowError("interval overflow")
        self.abs_q = np.abs(self.qmid)
        self.q_pad = 4.0 * self.eta * self.abs_q
        self.f_rr = np.abs(fmid) * denom.rec_rad
        self.abs_rm = np.abs(denom.rec_mid)
        self.rec_rad = denom.rec_rad
        self.qparts = (
            (np.ascontiguousarray(self.qmid.real), np.ascontiguousarray(self.qmid.imag))
            if np.iscomplexobj(self.qmid)
            else (self.qmid,)
        )
        self.cplx = len(self.qparts) == 2
        # A complex array stores ``re + 1j * im`` with a signed zero flipped in
        # some cases; the chained rectangle form composes every corner that
        # way.  Without a negative zero in the quotient midpoint or the start
        # corners no corner ever holds one, and composing is the identity.
        self.compose = False

    def start(self, Y: Rect) -> tuple[np.ndarray, ...]:
        """The corner arrays of a start rectangle; a complex one makes every corner complex."""
        if Y.is_real and not self.cplx:
            parts = (Y.lo, Y.hi)
        else:
            self.cplx = True
            if Y.is_real:
                zero = np.zeros(Y.shape)
                parts = (Y.lo, zero, Y.hi, zero)
            else:
                corners = (Y.lo.real, Y.lo.imag, Y.hi.real, Y.hi.imag)
                parts = tuple(np.ascontiguousarray(x) for x in corners)
            self.compose = _has_negative_zero(*self.qparts, *parts)
        return parts

    def radius(self, absY: np.ndarray) -> np.ndarray:
        """Radius of the quotient disk implied by an enclosure of magnitude ``absY``.

        As long as that enclosure contains every preconditioned member
        solution, so does the quotient disk, independently of the later
        intersection.  T(Y) bounds every non-diagonal contribution: a member's
        ``A' Y B'`` differs from ``a_i y_ij b_j`` by at most
        ``rad(Ap) |Y| |b| + Mag(Ap) |Y| rad(Bp)``, bounded with the rectangle
        magnitude ``absY``, which is tighter than the magnitude of its
        circumscribed disks.
        """
        eta, (ab, cd) = self.eta, self.pairs
        t = _pair_bound(ab, absY, self.pol)
        t += _pair_bound(cd, absY, self.pol)
        t += self.frad
        t *= 1.0 + 8.0 * eta
        qrad = t * self.abs_rm
        qrad += self.f_rr
        t *= self.rec_rad
        qrad += t
        qrad *= 1.0 + 5.0 * eta
        qrad += self.q_pad
        if not np.isfinite(qrad).all():
            raise IntervalOverflowError("interval overflow")
        return qrad

    def step(self, Y: tuple[np.ndarray, ...], absY: np.ndarray) -> tuple[np.ndarray, ...]:
        """The intersection of ``Y`` with the bounding rectangle of its quotient disk.

        Raises when the intersection is certainly empty, which proves no
        member solution lies in ``Y``.
        """
        eta = self.eta
        qrad = self.radius(absY)
        r = self.abs_q + qrad
        r *= eta
        r += eta * qrad
        r += qrad
        if not self.cplx:
            (q,) = self.qparts
            lo, hi = np.maximum(q - r, Y[0]), np.minimum(q + r, Y[1])
            if (lo > hi).any():
                raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
            return lo, hi
        if len(self.qparts) == 2:
            qre, qim = self.qparts
            q = [qre - r, qim - r, qre + r, qim + r]
            if self.compose:
                q[0:2], q[2:4] = _stored(*q[0:2]), _stored(*q[2:4])
        else:
            (qre,) = self.qparts
            q = [qre - r, np.zeros(r.shape), qre + r, np.zeros(r.shape)]
        lore, loim, hire, hiim = (
            np.maximum(q[0], Y[0], out=q[0]),
            np.maximum(q[1], Y[1], out=q[1]),
            np.minimum(q[2], Y[2], out=q[2]),
            np.minimum(q[3], Y[3], out=q[3]),
        )
        if (lore > hire).any() or (loim > hiim).any():
            raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
        if self.compose:
            (lore, loim), (hire, hiim) = _stored(lore, loim), _stored(hire, hiim)
        return lore, loim, hire, hiim

    def distance(self, a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> np.ndarray:
        """Entrywise Hausdorff distance between two iterates."""
        gaps = [np.subtract(x, y) for x, y in zip(a, b)]
        for g in gaps:
            np.abs(g, out=g)
        if not self.cplx:
            return np.maximum(*gaps, out=gaps[0])
        d = np.maximum(gaps[0], gaps[2], out=gaps[0])
        return np.maximum(d, np.maximum(gaps[1], gaps[3], out=gaps[1]), out=d)

    def mag(self, Y: tuple[np.ndarray, ...]) -> np.ndarray:
        """Entrywise upper bound of the magnitude of an iterate, as :func:`rect_mag`."""
        absY = [np.abs(x) for x in Y]
        if not self.cplx:
            out = np.maximum(*absY, out=absY[0])
            out *= 1.0 + self.eta
            return out
        mre = np.maximum(absY[0], absY[2], out=absY[0])
        mim = np.maximum(absY[1], absY[3], out=absY[1])
        out = np.hypot(mre, mim, out=absY[2])
        out *= 1.0 + 3.0 * self.eta
        return out

    def rect(self, Y: tuple[np.ndarray, ...]) -> Rect:
        if not self.cplx:
            return Rect(*Y)
        return Rect(_complex(Y[0], Y[1]), _complex(Y[2], Y[3]))


def _diagonal_denominators(ps: PrecondSystem, policy: RoundingPolicy) -> _Denominators:
    return _denominators(*(np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)), policy)


def gamma_step(
    ps: PrecondSystem,
    Y: Rect | IMatrix,
    policy: RoundingPolicy | None = None,
    denom: _Denominators | None = None,
) -> Rect:
    """One residual-division-intersection step on an enclosure candidate.

    Returns an enclosure of every preconditioned member solution inside
    ``Y``, always a subset of ``Y``.  Raises when the intersection is
    certainly empty, which proves no member solution lies in ``Y``.
    """
    pol = _pol(policy)
    if isinstance(Y, IMatrix):
        Y = disks_to_rect(Y, pol)
    kern = _Refinement(ps, _diagonal_denominators(ps, pol) if denom is None else denom, pol)
    return kern.rect(kern.step(kern.start(Y), rect_mag(Y, pol)))


def itr_solve(
    sys: SylvesterSystem,
    Y0: Rect | IMatrix | None = None,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    initial: Enclosure | None = None,
    policy: RoundingPolicy | None = None,
) -> Enclosure:
    """Refined verified enclosure (method id ``itr``).

    Without ``Y0`` the diagonal Krawczyk solver provides the start box
    ``Xtilde + X`` in preconditioned coordinates; an already computed
    ``initial`` enclosure of that solver may be passed to skip the repeated
    solve.  Iterates until the entrywise Hausdorff distance of successive
    rectangles drops below ``tol * (1 + magnitude)`` or ``max_iter`` steps.
    """
    pol = _pol(policy)
    if initial is None:
        initial = mkw_solve(sys, policy=pol)
    if initial.precond is None or (Y0 is None and not initial.verified):
        raise NoInitialEnclosureError("no initial enclosure available")
    ps = initial.precond
    if Y0 is None:
        Y = disks_to_rect(as_imatrix(initial.Xtilde) + initial.Xbox, pol)
    elif isinstance(Y0, IMatrix):
        Y = disks_to_rect(Y0, pol)
    else:
        Y = Y0
    denom = _diagonal_denominators(ps, pol)
    kern = _Refinement(ps, denom, pol)
    parts, absY = kern.start(Y), rect_mag(Y, pol)
    k = 0
    converged = False
    for k in range(1, max(max_iter, 1) + 1):
        new = kern.step(parts, absY)
        dist = kern.distance(new, parts)
        parts, absY = new, kern.mag(new)
        if (dist <= tol * (1.0 + absY)).all():
            converged = True
            break
    # Two valid disk reports per entry: the bounding disk of the final
    # rectangle, and the quotient implied by that rectangle (no corner
    # inflation).  Either contains every member solution, so take the
    # narrower one entrywise.
    Y = kern.rect(parts)
    boxed = rect_to_disks(Y, pol)
    qrad = kern.radius(absY)
    pick = qrad < boxed.rad
    final = IMatrix(np.where(pick, kern.qmid, boxed.mid), np.where(pick, qrad, boxed.rad))
    evaluated = back_transform(ps.U, final, ps.vinv_box, pol)
    return Enclosure(
        Xtilde=initial.Xtilde,
        Xbox=final,
        U=ps.U,
        Vinv=ps.vinv_box.mid,
        evaluated=evaluated,
        verified=True,
        iterations=k,
        method="itr",
        message="" if converged else "tolerance not reached within iteration cap",
        Hbox=None,
        precond=ps,
        resid_box=initial.resid_box,
        gamma=GammaState(Y=Y, denom=denom.mid, denom_rad=denom.rad, k=k, converged=converged),
    )
