"""Verified enclosure of the united solution set by a Krawczyk iteration
on the diagonally preconditioned system.

Writing the transformed equation as a fixed-point problem around the
approximate solution ``Xtilde = mid(Fp) ./ S``, the candidate image is

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
radius products of a point factor such as ``Xtilde``, so ``M`` takes no
dense complex product.  Each pair of ``N`` is factored through
``P = rad(Ap) W``: ``P |mid Bp|`` is a column scaling and
``Mag(Ap) W = |diag mid Ap| W + P``, two real products per pair in all.

On success the solution set of every member system is contained in
``U (Xtilde + H) V^-1``; the inflated box ``X`` is kept alongside so the
interior test can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .intervals import (
    DEFAULT_POLICY,
    IMatrix,
    RoundingPolicy,
    _pol,
    as_imatrix,
    epsilon_inflate,
    hadamard_div_point,
    im_matmul,
    in_interior,
    posmm,
)
from .precond import PrecondSystem, transform_enclose
from .system import SylvesterSystem

__all__ = ["Enclosure", "compute_xtilde", "compute_M", "compute_N", "mkw_solve"]

KMAX_DEFAULT = 15
FAILURE_MESSAGE = "Method can not obtain outer estimation"


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
    resid_box: IMatrix | None = field(default=None, repr=False)
    blockform: object | None = field(default=None, repr=False)
    gamma: object | None = field(default=None, repr=False)

    @property
    def widths(self) -> np.ndarray | None:
        return None if self.evaluated is None else self.evaluated.widths()


def compute_xtilde(ps: PrecondSystem) -> np.ndarray:
    """Approximate solution of the diagonalized midpoint system."""
    return ps.Fp.mid / ps.S


def compute_M(ps: PrecondSystem, xtilde: np.ndarray) -> IMatrix:
    """Enclosure of the scaled residual of ``xtilde`` over all members."""
    pol = ps.policy
    xt = as_imatrix(xtilde)
    t1 = im_matmul(im_matmul(ps.Ap, xt, pol), ps.Bp, pol)
    t2 = im_matmul(im_matmul(ps.Cp, xt, pol), ps.Dp, pol)
    return hadamard_div_point(ps.Fp - t1 - t2, ps.S, pol)


def _pair_bound(a: IMatrix, b: IMatrix, w: np.ndarray, policy: RoundingPolicy) -> np.ndarray:
    """Upper bound of ``rad(a) W |mid b| + Mag(a) W rad(b)`` for diagonal ``mid a``, ``mid b``.

    With ``P = rad(a) W`` and ``Mag(a) W = |diag mid a| o W + P``, the pair
    costs two real products; ``|mid b|`` is applied by a broadcast.
    """
    p = posmm(a.rad, w, policy)
    mag_w = (np.abs(np.diagonal(a.mid))[:, None] * w + p) * (1.0 + 4.0 * policy.eta)
    return posmm(p, np.abs(b.mid), policy) + posmm(mag_w, b.rad, policy)


def compute_N(ps: PrecondSystem, xrad: np.ndarray) -> IMatrix:
    """Zero-midpoint contraction bound for a symmetric box of radii ``xrad``."""
    pol = ps.policy
    eta = pol.eta
    xrad = np.asarray(xrad, dtype=np.float64)
    if xrad.shape != ps.S.shape or (xrad < 0).any():
        raise ValueError("xrad must be a nonnegative m x n array")
    w = (_pair_bound(ps.Ap, ps.Bp, xrad, pol) + _pair_bound(ps.Cp, ps.Dp, xrad, pol)) * (
        1.0 + 4.0 * eta
    )
    abs_s = np.abs(ps.S) * (1.0 - 2.0 * eta)
    rad = (w / abs_s) * (1.0 + 2.0 * eta)
    if ps.sdefect is not None:
        rad = rad + ps.sdefect * xrad * (1.0 + 4.0 * eta)
    mid = np.zeros(ps.S.shape, dtype=ps.Fp.mid.dtype)
    return IMatrix(mid, rad)


def verification_loop(M: IMatrix, n_of, kmax: int, policy: RoundingPolicy | None = None):
    """Epsilon-inflation loop shared by the diagonal and block solvers.

    ``n_of`` maps a nonnegative radius array to the zero-midpoint contraction
    term.  Returns ``(verified, X, H, iterations)`` where ``X`` is the last
    symmetric candidate box and ``H`` the last candidate image.
    """
    pol = _pol(policy)
    eta = pol.eta
    e_rad = epsilon_inflate(M, pol).rad
    H = M
    X = None
    k = 0
    for k in range(1, max(kmax, 1) + 1):
        xrad = (H.mag(pol) + e_rad) * (1.0 + 2.0 * eta)
        X = IMatrix(np.zeros(M.shape, dtype=M.mid.dtype), xrad)
        H = M + n_of(xrad)
        if in_interior(H, X, pol):
            return True, X, H, k
    return False, X, H, k


def back_transform(
    U: np.ndarray,
    inner: IMatrix,
    vinv_box: IMatrix,
    policy: RoundingPolicy | None = None,
) -> IMatrix:
    """Enclosure of ``U * inner * V^-1`` with the certified inverse box."""
    pol = _pol(policy)
    return im_matmul(im_matmul(as_imatrix(U), inner, pol), vinv_box, pol)


def mkw_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
    policy: RoundingPolicy | None = None,
) -> Enclosure:
    """Verified enclosure via diagonal preconditioning plus Krawczyk check.

    Preconditioning failures (no eigenbasis, singular denominators) raise;
    a failed verification is a regular result with ``verified=False``.
    """
    pol = _pol(policy)
    ps = transform_enclose(sys, pol)
    xtilde = compute_xtilde(ps)
    M = compute_M(ps, xtilde)
    verified, X, H, iters = verification_loop(M, lambda r: compute_N(ps, r), kmax, pol)
    if verified:
        evaluated = back_transform(ps.U, as_imatrix(xtilde) + H, ps.vinv_box, pol)
        message = ""
    else:
        evaluated = None
        message = FAILURE_MESSAGE
    return Enclosure(
        Xtilde=xtilde,
        Xbox=X,
        U=ps.U,
        Vinv=ps.vinv_box.mid,
        evaluated=evaluated,
        verified=verified,
        iterations=iters,
        method="mkw",
        message=message,
        Hbox=H,
        precond=ps,
        resid_box=M,
    )
