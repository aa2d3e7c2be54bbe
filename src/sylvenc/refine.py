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
and likewise for ``Cp, Dp``: four real products per step.  The reciprocals of
the fixed denominators are formed once per run, and the magnitude ``|Y|`` of
each iterate once, for both the convergence test and the next step.

Enclosures are intersected in rectangle form (independent inf-sup bounds on
real and imaginary parts): rectangle intersection is exact, which makes the
nesting of the iterates a structural guarantee rather than a numerical
accident.  Disks are converted outward on entry and exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoInitialEnclosureError
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
    rect_meet,
    rect_to_disks,
)
from .krawczyk import Enclosure, _pair_bound, back_transform, mkw_solve
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


def _coupling_bound(ps: PrecondSystem, absY: np.ndarray, policy: RoundingPolicy) -> np.ndarray:
    """Upper bound T(Y) of every non-diagonal contribution magnitude.

    With ``a``..``d`` the diagonals of the midpoints, a member's ``A' Y B'``
    differs from ``a_i y_ij b_j`` by at most
    ``rad(Ap) |Y| |b| + Mag(Ap) |Y| rad(Bp)``, bounded with the rectangle
    magnitude ``absY = |Y|``, which is tighter than the magnitude of its
    circumscribed disks.
    """
    pol = policy
    T = (
        _pair_bound(ps.Ap, ps.Bp, absY, pol) + _pair_bound(ps.Cp, ps.Dp, absY, pol) + ps.Fp.rad
    ) * (1.0 + 8.0 * pol.eta)
    return T


def _quotient_disk(
    ps: PrecondSystem,
    absY: np.ndarray,
    policy: RoundingPolicy,
    denom: _Denominators,
) -> IMatrix:
    """Disk enclosure of the solution set implied by a candidate ``Y`` of magnitude ``absY``.

    As long as ``Y`` contains every preconditioned member solution, so does
    the returned quotient, independently of the later intersection.
    """
    pol = policy
    T = _coupling_bound(ps, absY, pol)
    rec_mid, rec_rad = denom.rec_mid, denom.rec_rad
    fmid = ps.Fp.mid
    qmid = fmid * rec_mid
    qrad = (np.abs(fmid) * rec_rad + T * np.abs(rec_mid) + T * rec_rad) * (
        1.0 + 5.0 * pol.eta
    ) + 4.0 * pol.eta * np.abs(qmid)
    return IMatrix(qmid, qrad)


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
    if denom is None:
        denom = _denominators(*(np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)), pol)
    return _step(ps, Y, rect_mag(Y, pol), pol, denom)


def _step(
    ps: PrecondSystem, Y: Rect, absY: np.ndarray, policy: RoundingPolicy, denom: _Denominators
) -> Rect:
    """:func:`gamma_step` on a rectangle ``Y`` whose magnitude ``absY`` is at hand."""
    return rect_meet(disks_to_rect(_quotient_disk(ps, absY, policy, denom), policy), Y)


def _rect_distance(a: Rect, b: Rect) -> np.ndarray:
    """Entrywise Hausdorff distance between two rectangle matrices."""
    if a.is_real and b.is_real:
        return np.maximum(np.abs(a.lo - b.lo), np.abs(a.hi - b.hi))
    alo, ahi = np.asarray(a.lo, dtype=np.complex128), np.asarray(a.hi, dtype=np.complex128)
    blo, bhi = np.asarray(b.lo, dtype=np.complex128), np.asarray(b.hi, dtype=np.complex128)
    d = np.maximum(np.abs(alo.real - blo.real), np.abs(ahi.real - bhi.real))
    return np.maximum(d, np.maximum(np.abs(alo.imag - blo.imag), np.abs(ahi.imag - bhi.imag)))


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
    denom = _denominators(*(np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)), pol)
    absY = rect_mag(Y, pol)
    k = 0
    converged = False
    for k in range(1, max(max_iter, 1) + 1):
        Ynew = _step(ps, Y, absY, pol, denom)
        dist = _rect_distance(Ynew, Y)
        Y, absY = Ynew, rect_mag(Ynew, pol)
        if (dist <= tol * (1.0 + absY)).all():
            converged = True
            break
    # Two valid disk reports per entry: the bounding disk of the final
    # rectangle, and the quotient implied by that rectangle (no corner
    # inflation).  Either contains every member solution, so take the
    # narrower one entrywise.
    boxed = rect_to_disks(Y, pol)
    quot = _quotient_disk(ps, absY, pol, denom)
    pick = quot.rad < boxed.rad
    final = IMatrix(
        np.where(pick, quot.mid, boxed.mid), np.where(pick, quot.rad, boxed.rad)
    )
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
