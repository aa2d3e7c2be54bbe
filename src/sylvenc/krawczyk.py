"""The verification engine of the three Krawczyk solvers, and the diagonal one.

The engine, :func:`verify`, runs the epsilon-inflation loop
:func:`verification_loop` and builds the :class:`Enclosure`.  The loop gives
up early, with ``verified=False``, once a step certifies that no later box
can pass, so a failed solve may report fewer than ``kmax`` iterations.  Each
solver hands the engine four things:

* ``xtilde``, the approximate solution in preconditioned coordinates;
* ``M``, an enclosure of the preconditioned residual of ``xtilde``;
* ``n_of``, the zero-midpoint contraction term of a symmetric box;
* ``back``, the map of ``Xtilde + H`` to original coordinates, applied only
  when the loop verifies.

The diagonal solver ``mkw`` below divides :func:`residual` by the point
denominators ``S`` and maps back by ``U . V^-1``.  The block solver ``blk``
(:mod:`.blockdiag`) back-substitutes the same residual, and its contraction
term, through the block form, and maps back the same way.  The dense solver
``ver`` (:mod:`.baseline`) multiplies by a floating inverse ``R`` of the
Kronecker midpoint ``mid Q`` and bounds the contraction by ``|I - R Q| x``;
its loop runs in m x n coordinates and ``back`` is the identity.

Writing the diagonally preconditioned equation as a fixed-point problem
around the approximate solution ``Xtilde = mid(Fp) ./ S``, the candidate
image is

    H  =  M + N,
    M  =  (Fp - (Ap Xtilde) Bp - (Cp Xtilde) Dp) ./ S,
    N  =  <0, (rad(Ap) W |mid Bp| + Mag(Ap) W rad(Bp)
              + rad(Cp) W |mid Dp| + Mag(Cp) W rad(Dp)) ./ |S|
              + sdefect .* W>          with W = Mag(X),

and a box ``X`` is verified as soon as ``H`` lies in its strict interior.
``X`` is grown by epsilon inflation from ``M`` and kept symmetric (zero
midpoint), which the ``N`` bound requires.  The ``sdefect`` term covers the
floating-point gap between the stored denominators ``S`` and the exact
products of the stored transformed midpoint diagonals, so that a True
verification is rigorous, not merely heuristic.

The transformed midpoints are exactly diagonal, and the products use it:
``im_matmul`` applies a diagonal-midpoint factor by a broadcast and skips the
radius products of a zero radius, so ``M`` takes no dense complex product
and three dense real ones per term: one for ``Ap Xtilde`` (``Xtilde`` is a
point) and two for the product with ``Bp``.  Each pair of ``N`` is factored through
``P = rad(Ap) W``: ``P |mid Bp|`` is a column scaling by the magnitudes of
the diagonal of ``mid Bp`` and ``Mag(Ap) W = |diag mid Ap| W + P``, two real
products per pair in all.

On success the solution set of every member system is contained in
``U (Xtilde + H) V^-1``; the inflated box ``X`` is kept alongside so the
interior test can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .intervals import (
    IMatrix,
    _dot_ops,
    _quot_rad,
    _up,
    as_imatrix,
    epsilon_inflate,
    hadamard_div_point,
    im_matmul,
    in_interior,
    posmm,
)
from .precond import PrecondSystem, transform_enclose
from .system import SylvesterSystem

__all__ = ["Enclosure", "residual", "compute_M", "compute_N", "verify", "mkw_solve"]

KMAX_DEFAULT = 15
FAILURE_MESSAGE = "Method can not obtain outer estimation"
# ``min(rad N(x) / x)`` at or above this certifies that no later box verifies
_NOT_CONTRACTING = 1.0 + 2.0**-10


@dataclass
class Enclosure:
    """Result of a verified solve.

    ``evaluated`` is the enclosure in original coordinates (None when not
    verified).  ``Xtilde`` is the approximate solution in preconditioned
    coordinates, ``Xbox`` the inflated zero-midpoint verification box, and
    ``Hbox`` the final candidate image with ``Hbox`` interior to ``Xbox``
    whenever ``verified`` is True.  ``U`` and ``Vinv`` are the point
    back-transform factors (identity for the dense baseline).
    """

    Xtilde: np.ndarray
    Xbox: IMatrix
    U: np.ndarray
    Vinv: np.ndarray
    evaluated: IMatrix | None
    verified: bool
    iterations: int
    method: str = "mkw"
    message: str = ""
    Hbox: IMatrix | None = None
    precond: PrecondSystem | None = field(default=None, repr=False)
    blockform: object | None = field(default=None, repr=False)
    gamma: object | None = field(default=None, repr=False)

    @property
    def widths(self) -> np.ndarray | None:
        return None if self.evaluated is None else self.evaluated.widths()


def residual(
    Fp: IMatrix,
    Ap: IMatrix,
    Bp: IMatrix,
    Cp: IMatrix,
    Dp: IMatrix,
    xtilde: np.ndarray,
) -> IMatrix:
    """Enclosure of ``Fp - (Ap Xtilde) Bp - (Cp Xtilde) Dp`` over all members."""
    xt = as_imatrix(xtilde)
    t1 = im_matmul(im_matmul(Ap, xt), Bp)
    t2 = im_matmul(im_matmul(Cp, xt), Dp)
    return Fp - t1 - t2


def compute_M(ps: PrecondSystem, xtilde: np.ndarray) -> IMatrix:
    """Enclosure of the scaled residual of ``xtilde`` over all members."""
    return hadamard_div_point(residual(ps.Fp, ps.Ap, ps.Bp, ps.Cp, ps.Dp, xtilde), ps.S)


class _Pair(NamedTuple):
    """One coupling pair ``(a, b)`` of the preconditioned system, with diagonal midpoints.

    ``ad`` and ``bd`` are the magnitudes of the midpoint diagonals.
    """

    arad: np.ndarray
    ad: np.ndarray
    brad: np.ndarray
    bd: np.ndarray


def _pairs(ps: PrecondSystem) -> tuple[_Pair, _Pair]:
    """The pairs ``(Ap, Bp)`` and ``(Cp, Dp)`` of ``ps``."""
    return tuple(
        _Pair(a.rad, np.abs(np.diagonal(a.mid)), b.rad, np.abs(np.diagonal(b.mid)))
        for a, b in ((ps.Ap, ps.Bp), (ps.Cp, ps.Dp))
    )


def _pair_bound(pair: _Pair, w: np.ndarray) -> np.ndarray:
    """Upper bound of ``rad(a) W |mid b| + Mag(a) W rad(b)`` for diagonal ``mid a``, ``mid b``.

    With ``P = rad(a) W`` and ``Mag(a) W = |diag mid a| o W + P``, the pair
    costs two real products; ``|mid b|`` is a column scaling under the pad of
    the product it replaces.
    """
    p = posmm(pair.arad, w)
    mag_w = pair.ad[:, None] * w
    mag_w += p
    _up(mag_w, 4, out=mag_w)
    out = p * pair.bd
    _up(out, _dot_ops(p.shape[1]), out=out)
    out += posmm(mag_w, pair.brad)
    return out


def compute_N(ps: PrecondSystem, xrad: np.ndarray) -> IMatrix:
    """Zero-midpoint contraction bound for a symmetric box of radii ``xrad``."""
    xrad = np.asarray(xrad, dtype=np.float64)
    if xrad.shape != ps.S.shape or (xrad < 0).any():
        raise ValueError("xrad must be a nonnegative m x n array")
    ab, cd = _pairs(ps)
    w = _pair_bound(ab, xrad) + _pair_bound(cd, xrad)
    rad = _quot_rad(_up(w, 4, out=w), np.abs(ps.S))
    if ps.sdefect is not None:
        t = ps.sdefect * xrad
        rad += _up(t, 4, out=t)
    mid = np.zeros(ps.S.shape, dtype=ps.Fp.mid.dtype)
    return IMatrix(mid, rad)


def verification_loop(M: IMatrix, n_of, kmax: int):
    """Epsilon-inflation loop shared by the diagonal, block and dense solvers.

    ``n_of`` maps a nonnegative radius array to the zero-midpoint contraction
    term.  Returns ``(verified, X, H, iterations)`` where ``X`` is the last
    symmetric candidate box and ``H`` the last candidate image.

    The loop stops with ``verified=False`` before ``kmax`` when the failed
    step certifies that no later box can pass: ``min(rad N(x) / x) >= 1 +
    delta`` for the box radii ``x > 0``.  This rests on a precondition that
    every solver's ``n_of`` meets (mkw's :func:`compute_N`, blk's
    back-substitution of a zero-midpoint box, ver's ``posmm``): ``rad N(x)``
    is ``L x`` for a fixed nonnegative linear map ``L`` up to a relative
    rounding error ``eps`` below ``2**-30``.  Then ``L x >= (1 + delta) /
    (1 + eps) x`` with ``x > 0``, and by the Collatz-Wielandt inequality
    (Horn and Johnson, *Matrix Analysis*, 8.1) the spectral radius of ``L``
    is at least ``(1 + delta) / (1 + eps)``.  A later box ``y > 0`` passes
    only if ``(1 - eps) L y <= rad H < y``, which would make that spectral
    radius below ``1 / (1 - eps)``; with ``delta = 2**-10`` far above
    ``2 eps`` both cannot hold.
    """
    e_rad = epsilon_inflate(M).rad
    H = M
    X = None
    k = 0
    for k in range(1, max(kmax, 1) + 1):
        xrad = H.mag()
        xrad += e_rad
        _up(xrad, 2, out=xrad)
        X = IMatrix(np.zeros(M.shape, dtype=M.mid.dtype), xrad)
        N = n_of(xrad)
        H = M + N
        if in_interior(H, X):
            return True, X, H, k
        if (N.rad / xrad).min() >= _NOT_CONTRACTING:
            break
    return False, X, H, k


def back_transform(
    U: np.ndarray,
    inner: IMatrix,
    vinv_box: IMatrix,
) -> IMatrix:
    """Enclosure of ``U * inner * V^-1`` with the certified inverse box.

    Two midpoint products and three real radius products: one for the point
    ``U``, two for the interval ``V^-1``.
    """
    return im_matmul(im_matmul(as_imatrix(U), inner), vinv_box)


def verify(
    method: str,
    xtilde: np.ndarray,
    M: IMatrix,
    n_of,
    back,
    kmax: int,
    **fields,
) -> Enclosure:
    """Run :func:`verification_loop` on ``M`` and ``n_of`` and build the result.

    Only a verified loop maps ``Xtilde + H`` to original coordinates by
    ``back``; ``fields`` are the solver's own :class:`Enclosure` fields
    (``U``, ``Vinv``, ``precond``, ``blockform``).
    """
    verified, X, H, iters = verification_loop(M, n_of, kmax)
    return Enclosure(
        Xtilde=xtilde,
        Xbox=X,
        evaluated=back(as_imatrix(xtilde) + H) if verified else None,
        verified=verified,
        iterations=iters,
        method=method,
        message="" if verified else FAILURE_MESSAGE,
        Hbox=H,
        **fields,
    )


def mkw_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
) -> Enclosure:
    """Verified enclosure via diagonal preconditioning plus Krawczyk check.

    Preconditioning failures (no eigenbasis, singular denominators) raise;
    a failed verification is a regular result with ``verified=False``.
    """
    ps = transform_enclose(sys)
    xtilde = ps.Fp.mid / ps.S
    return verify(
        "mkw",
        xtilde,
        compute_M(ps, xtilde),
        lambda r: compute_N(ps, r),
        lambda Z: back_transform(ps.U, Z, ps.vinv_box),
        kmax,
        U=ps.U,
        Vinv=ps.vinv_box.mid,
        precond=ps,
    )
