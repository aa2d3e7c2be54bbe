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
accident.  The quotient disk ``<mid Fp * rec_mid, rad>``, with the reciprocal
disks ``ps.rec`` of the preconditioned system's denominators, is
converted outward to its bounding rectangle before each intersection.

:func:`itr_solve` starts from the box the start enclosure vouches for: the
box ``Xtilde + H`` that mkw back-transforms (a valid enclosure inside mkw's
inflated verification box ``Xtilde + X``), or the final rectangle of an
earlier refinement.  Each entry then reports the narrowest of three valid
disks: the bounding disk of the final rectangle, the quotient disk implied
by it, and the start disk when the start was given as disks.  So the result
is never wider than mkw's in preconditioned coordinates.  From ``Xtilde + H``
one step usually meets the tolerance, and when the start disk wins every
entry, the start enclosure's back-transform is returned as it is.

One private kernel serves :func:`gamma_step` and :func:`itr_solve`.  It
keeps the iterate as contiguous float arrays (the real and imaginary parts
of the lower and upper corners, or the two corners for real data) and forms
everything that does not change between steps once per run: the quotient
midpoint ``mid Fp * rec_mid`` with its parts and magnitude and the
magnitudes of the midpoint diagonals.  A step then computes only T(Y), the
quotient radius (by ``intervals._quot``, the rule mkw and blk divide by),
the intersection, the distance to the previous iterate and the new
magnitude ``|Y|``, by the pad rules of ``disks_to_rect`` and ``rect_mag``
and the exact rectangle meet.  The corners are never composed as ``re + 1j
* im``, which may flip the sign of a zero, so the iterates equal those of
the chained rectangle form in value, and bit for bit on every nonzero
corner.  A :class:`Rect` is built only for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentEnclosureError, IntervalOverflowError, NoInitialEnclosureError
from .intervals import (
    IMatrix,
    Rect,
    _corner_mag,
    _quot,
    _rect_half,
    _up,
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
    k: int
    converged: bool


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

    def __init__(self, ps: PrecondSystem):
        self.rec = ps.rec
        self.pairs = _pairs(ps)
        self.fmid, self.frad = ps.Fp.mid, ps.Fp.rad
        self.qmid = self.fmid * self.rec.mid
        if not np.isfinite(self.qmid).all():
            raise IntervalOverflowError("interval overflow")
        self.abs_q = np.abs(self.qmid)
        self.qparts = (
            (np.ascontiguousarray(self.qmid.real), np.ascontiguousarray(self.qmid.imag))
            if np.iscomplexobj(self.qmid)
            else (self.qmid,)
        )
        self.cplx = len(self.qparts) == 2

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
        ab, cd = self.pairs
        t = _pair_bound(ab, absY)
        t += _pair_bound(cd, absY)
        t += self.frad
        _up(t, 8, out=t)
        _, qrad = _quot(self.fmid, t, *self.rec)
        if not np.isfinite(qrad).all():
            raise IntervalOverflowError("interval overflow")
        return qrad

    def step(self, Y: tuple[np.ndarray, ...], absY: np.ndarray) -> tuple[np.ndarray, ...]:
        """The intersection of ``Y`` with the bounding rectangle of its quotient disk.

        Raises when the intersection is certainly empty, which proves no
        member solution lies in ``Y``.
        """
        r = _rect_half(self.abs_q, self.radius(absY))
        if not self.cplx:
            (q,) = self.qparts
            lo, hi = np.maximum(q - r, Y[0]), np.minimum(q + r, Y[1])
            if (lo > hi).any():
                raise InconsistentEnclosureError("inconsistent enclosure: empty intersection")
            return lo, hi
        if len(self.qparts) == 2:
            qre, qim = self.qparts
            q = [qre - r, qim - r, qre + r, qim + r]
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
        return _corner_mag(Y)

    def rect(self, Y: tuple[np.ndarray, ...]) -> Rect:
        if not self.cplx:
            return Rect(*Y)
        return Rect(_complex(Y[0], Y[1]), _complex(Y[2], Y[3]))


def gamma_step(ps: PrecondSystem, Y: Rect | IMatrix) -> Rect:
    """One residual-division-intersection step on an enclosure candidate.

    Returns an enclosure of every preconditioned member solution inside
    ``Y``, always a subset of ``Y``.  Raises when the intersection is
    certainly empty, which proves no member solution lies in ``Y``.
    """
    if isinstance(Y, IMatrix):
        Y = disks_to_rect(Y)
    kern = _Refinement(ps)
    return kern.rect(kern.step(kern.start(Y), rect_mag(Y)))


def _start(initial: Enclosure, Y0: Rect | IMatrix | None) -> tuple[Rect, IMatrix | None]:
    """The start rectangle of a refinement and the start disks, when it was given as disks.

    An mkw enclosure starts from ``Xtilde + Hbox``, the box mkw itself
    back-transforms; an itr enclosure from its final rectangle ``gamma.Y``,
    with its reported disks ``Xbox``.  Both hold absolute preconditioned
    coordinates.
    """
    if isinstance(Y0, IMatrix):
        return disks_to_rect(Y0), Y0
    if Y0 is not None:
        return Y0, None
    if initial.method == "itr":
        return initial.gamma.Y, initial.Xbox
    disk = as_imatrix(initial.Xtilde) + initial.Hbox
    return disks_to_rect(disk), disk


def itr_solve(
    sys: SylvesterSystem,
    Y0: Rect | IMatrix | None = None,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    initial: Enclosure | None = None,
) -> Enclosure:
    """Refined verified enclosure (method id ``itr``).

    Without ``Y0`` the start comes from ``initial``, by default a fresh
    diagonal Krawczyk solve: an mkw enclosure starts from the box
    ``Xtilde + Hbox`` it back-transforms, an itr enclosure from its final
    rectangle; enclosures of other methods raise
    :class:`NoInitialEnclosureError`.  Iterates until the entrywise
    Hausdorff distance of successive rectangles drops below ``tol * (1 +
    magnitude)`` or ``max_iter`` steps.

    Each entry reports the narrowest of three valid disks: the bounding disk
    of the final rectangle, the quotient disk implied by it, and the start
    disk when the start was given as disks (an mkw or itr enclosure, or an
    :class:`IMatrix` ``Y0``).  So the preconditioned result is never wider
    than mkw's ``Xtilde + Hbox``.  When the start disk of ``initial`` wins on
    every entry, its ``evaluated`` is returned instead of back-transforming
    the same disks again.
    """
    if initial is None:
        initial = mkw_solve(sys)
    # blk's block pattern is not the diagonal form the residual division needs
    if initial.precond is None or initial.method == "blk" or (Y0 is None and not initial.verified):
        raise NoInitialEnclosureError("no initial enclosure available")
    ps = initial.precond
    Y, disk = _start(initial, Y0)
    kern = _Refinement(ps)
    parts, absY = kern.start(Y), rect_mag(Y)
    k = 0
    converged = False
    for k in range(1, max(max_iter, 1) + 1):
        new = kern.step(parts, absY)
        dist = kern.distance(new, parts)
        parts, absY = new, kern.mag(new)
        if (dist <= tol * (1.0 + absY)).all():
            converged = True
            break
    Y = kern.rect(parts)
    boxed = rect_to_disks(Y)
    qrad = kern.radius(absY)
    pick = qrad < boxed.rad
    # each of the three disks contains every member solution: take the
    # narrowest entrywise, the start disk on ties
    mid, rad = np.where(pick, kern.qmid, boxed.mid), np.where(pick, qrad, boxed.rad)
    if disk is None:
        final = IMatrix(mid, rad)
    else:
        keep = disk.rad <= rad
        final = disk if keep.all() else IMatrix(
            np.where(keep, disk.mid, mid), np.where(keep, disk.rad, rad)
        )
    if final is disk and Y0 is None:
        evaluated = initial.evaluated
    else:
        evaluated = back_transform(ps, final)
    return Enclosure(
        Xtilde=initial.Xtilde,
        Xbox=final,
        U=ps.U,
        Vinv=ps.Vinv,
        evaluated=evaluated,
        verified=True,
        iterations=k,
        method="itr",
        message="" if converged else "tolerance not reached within iteration cap",
        Hbox=None,
        precond=ps,
        gamma=GammaState(Y=Y, k=k, converged=converged),
    )
