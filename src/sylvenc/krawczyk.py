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

mkw and blk hand it the same things, built from one preconditioned system
(:class:`.precond.PrecondSystem`) that differs only in its block partitions.
``Xtilde``, ``M = residual ./ den`` and ``N`` divide through it: by one
quotient rule on the whole array when every block is 1 x 1 (mkw's
eigenbases, and blk's when no eigenvalues cluster), by the interval
backward substitution :func:`interval_back_substitute` over the tiles of
the block pattern otherwise; on 1 x 1 tiles the two give the same bits.
Both map back by ``U . V^-1``.  The dense solver ``ver``
(:mod:`.baseline`) multiplies by a floating inverse ``R`` of the Kronecker
midpoint ``mid Q`` and bounds the contraction by ``|I - R Q| x``; its loop
runs in m x n coordinates and ``back`` is the identity.

Writing the diagonally preconditioned equation as a fixed-point problem
around the approximate solution ``Xtilde = mid(Fp) ./ mid(den)``, the
candidate image is

    H  =  M + N,
    M  =  (Fp - (Ap Xtilde) Bp - (Cp Xtilde) Dp) .* Rec,
    N  =  <0, (rad(Ap) W |mid Bp| + Mag(Ap) W rad(Bp)
              + rad(Cp) W |mid Dp| + Mag(Cp) W rad(Dp)) .* Mag(Rec)>
                                       with W = Mag(X),

where ``Rec`` holds the disks that contain ``1 / (a_i b_j + c_i d_j)``, the
exact reciprocals of the denominators of the stored diagonals ``a, b, c, d``
of ``mid Ap .. mid Dp`` (one quotient rule of :mod:`.intervals` forms both
products).  Those exact denominators are one fixed point for every member,
so dividing by them is an exact diagonal preconditioner of the Krawczyk
step and needs no term for the rounding of the denominators.  A box ``X``
is verified as soon as ``H`` lies in its strict interior.  ``X`` is grown by
epsilon inflation from ``M`` and kept symmetric (zero midpoint), which the
``N`` bound requires, and ``rad N`` is linear in its radii.

On a diagonal system the products use the pattern: ``im_matmul`` applies a
diagonal-midpoint factor by a broadcast and skips the radius products of a
zero radius, so ``M`` takes no dense complex product and three dense real
ones per term: one for ``Ap Xtilde`` (``Xtilde`` is a point) and two for
the product with ``Bp``.  Each pair of ``N`` is factored through ``P =
rad(Ap) W``: ``P |mid Bp|`` is a column scaling by the magnitudes of the
diagonal of ``mid Bp`` and ``Mag(Ap) W = |diag mid Ap| W + P``, two real
products per pair in all.  A block pattern takes the same factored bound
with :func:`.intervals.posmm` products by the pattern magnitudes.

On success the solution set of every member system is contained in
``U (Xtilde + H) V^-1``; the inflated box ``X`` is kept alongside so the
interior test can be replayed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .intervals import (
    IMatrix,
    _dot_ops,
    _pad_rad,
    _quot,
    _slack,
    _up,
    as_imatrix,
    epsilon_inflate,
    im_matmul,
    in_interior,
    posmm,
)
from .precond import PrecondSystem, transform_enclose
from .system import SylvesterSystem

__all__ = [
    "Enclosure", "residual", "compute_M", "compute_N", "interval_back_substitute", "verify",
    "mkw_solve",
]

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
    gamma: object | None = field(default=None, repr=False)

    @property
    def widths(self) -> np.ndarray | None:
        return None if self.evaluated is None else self.evaluated.widths()


def residual(ps: PrecondSystem, xtilde: np.ndarray) -> IMatrix:
    """Enclosure of ``Fp - (Ap Xtilde) Bp - (Cp Xtilde) Dp`` over all members of ``ps``."""
    xt = as_imatrix(xtilde)
    t1 = im_matmul(im_matmul(ps.Ap, xt), ps.Bp)
    t2 = im_matmul(im_matmul(ps.Cp, xt), ps.Dp)
    return ps.Fp - t1 - t2


def _blocks(sizes: tuple[int, ...]) -> list[tuple[int, np.ndarray]]:
    """Each block size with the ``(count, size)`` indices of its blocks."""
    starts = np.cumsum((0,) + tuple(sizes[:-1]))
    return [(s, starts[np.equal(sizes, s)][:, None] + np.arange(s)) for s in sorted(set(sizes))]


def interval_back_substitute(ps: PrecondSystem, rhs: IMatrix) -> IMatrix:
    """Enclosure of ``unvec(Lambda^-1 vec(rhs))`` over the rhs enclosure.

    ``Lambda = mid(Bp)^T kron mid(Ap) + mid(Dp)^T kron mid(Cp)`` splits
    into independent upper-triangular systems ``DB_J^T kron DA_I + DD_J^T
    kron DC_I``, one per tile ``X[I, J]`` of a row block ``I`` and a column
    block ``J`` of ``ps``.  Tiles of one shape are solved together by
    interval backward substitution.  Step ``p`` forms the tail of row ``p``
    of every tile, each entry with a radius covering its floating formation
    error; that tail is never longer than the row of the whole column block,
    so neither is the inner-product pad ``2 kk + 8``.  The last unknown of a
    tile has an empty tail and takes its right-hand side as it is.  Each
    unknown is divided by its diagonal denominator through the quotient rule
    of the diagonal path, with the reciprocal disks ``ps.den``; on 1 x 1
    tiles the result is that path's bit for bit.
    """
    m, n = ps.m, ps.n
    rhs = as_imatrix(rhs)
    if rhs.shape != (m, n):
        raise ValueError("dimension mismatch")
    out_mid = np.zeros((m, n), dtype=np.complex128)
    out_rad = np.zeros((m, n))
    for (a, rows), (b, cols) in itertools.product(_blocks(ps.row_sizes), _blocks(ps.col_sizes)):
        DA, DC = (x.mid[rows[:, :, None], rows[:, None, :]] for x in (ps.Ap, ps.Cp))
        DB, DD = (x.mid[cols[:, :, None], cols[:, None, :]] for x in (ps.Bp, ps.Dp))
        # unknown p = k a + r of tile (I, J) is X[rows[I, r], cols[J, k]]
        ix = (rows[:, None, None, :], cols[None, :, :, None])
        tiles = (len(rows), len(cols), a * b)
        f_mid, f_rad, rec_mid, rec_rad = (
            x[ix].reshape(tiles) for x in (rhs.mid, rhs.rad, ps.den.rec_mid, ps.den.rec_rad)
        )
        z_mid = np.zeros(tiles, dtype=np.complex128)
        z_rad = np.zeros(tiles)
        for p in range(a * b - 1, -1, -1):
            num_mid, num_rad = f_mid[..., p], f_rad[..., p]
            if p < a * b - 1:
                k, r = divmod(p, a)
                # rows k' < k of the lower-triangular DB, DD hold exact zeros
                col_b, col_d = DB[None, :, k:, k, None], DD[None, :, k:, k, None]
                row_a, row_c = DA[:, None, None, r, :], DC[:, None, None, r, :]
                t_mid = (col_b * row_a + col_d * row_c).reshape(tiles[:2] + (-1,))[..., r + 1 :]
                t_rad = _slack(np.abs(col_b) * np.abs(row_a) + np.abs(col_d) * np.abs(row_c), 6)
                t_rad = t_rad.reshape(tiles[:2] + (-1,))[..., r + 1 :]
                zm, zr = z_mid[..., p + 1 :], z_rad[..., p + 1 :]
                at, az = np.abs(t_mid), np.abs(zm)
                dot_mid = (t_mid * zm).sum(axis=-1)
                dot_rad = (
                    (at * zr).sum(axis=-1) + (t_rad * az).sum(axis=-1) + (t_rad * zr).sum(axis=-1)
                )
                dot_rad = _pad_rad(dot_rad, (at * az).sum(axis=-1), _dot_ops(a * b - p - 1))
                num_mid = num_mid - dot_mid
                num_rad = _pad_rad(num_rad + dot_rad, np.abs(num_mid))
            z_mid[..., p], z_rad[..., p] = _quot(num_mid, num_rad, rec_mid[..., p], rec_rad[..., p])
        out_mid[ix] = z_mid.reshape(tiles[:2] + (b, a))
        out_rad[ix] = z_rad.reshape(tiles[:2] + (b, a))
    return IMatrix(out_mid, out_rad)


def _divide(ps: PrecondSystem, mid: np.ndarray | None, rad: np.ndarray) -> IMatrix:
    """Disks ``<mid, rad>`` (``mid=None`` for zero midpoints) divided through ``ps``:
    by one quotient rule on a diagonal system, tile by tile otherwise."""
    if ps.diagonal:
        q, r = _quot(mid, rad, ps.den.rec_mid, ps.den.rec_rad)
        return IMatrix._from_kernel(np.zeros(r.shape, ps.Fp.mid.dtype) if q is None else q, r)
    if mid is None:
        mid = np.zeros(rad.shape, ps.Fp.mid.dtype)
    return interval_back_substitute(ps, IMatrix(mid, rad))


def compute_M(ps: PrecondSystem, xtilde: np.ndarray) -> IMatrix:
    """Enclosure of the scaled residual of ``xtilde`` over all members."""
    r = residual(ps, xtilde)
    return _divide(ps, r.mid, r.rad)


class _Pair(NamedTuple):
    """One coupling pair ``(a, b)`` of the preconditioned system.

    ``ad`` and ``bd`` are the midpoint magnitudes: the diagonals on a
    diagonal system, the pattern matrices otherwise.
    """

    arad: np.ndarray
    ad: np.ndarray
    brad: np.ndarray
    bd: np.ndarray


def _pairs(ps: PrecondSystem) -> tuple[_Pair, _Pair]:
    """The pairs ``(Ap, Bp)`` and ``(Cp, Dp)`` of ``ps``."""
    mag = (lambda x: np.abs(np.diagonal(x.mid))) if ps.diagonal else (lambda x: np.abs(x.mid))
    return tuple(_Pair(a.rad, mag(a), b.rad, mag(b)) for a, b in ((ps.Ap, ps.Bp), (ps.Cp, ps.Dp)))


def _pair_bound(pair: _Pair, w: np.ndarray) -> np.ndarray:
    """Upper bound of ``rad(a) W |mid b| + Mag(a) W rad(b)``.

    With ``P = rad(a) W`` and ``Mag(a) W = |mid a| W + P``, the pair costs
    two real products beside the two by ``|mid a|`` and ``|mid b|``.  On
    diagonal midpoints those two are a row and a column scaling, under the
    pads of the products they replace; on block patterns they are
    :func:`posmm` products.
    """
    p = posmm(pair.arad, w)
    diagonal = pair.ad.ndim == 1
    mag_w = pair.ad[:, None] * w if diagonal else posmm(pair.ad, w)
    mag_w += p
    _up(mag_w, 4, out=mag_w)
    out = _up(p * pair.bd, _dot_ops(p.shape[1])) if diagonal else posmm(p, pair.bd)
    out += posmm(mag_w, pair.brad)
    return out


def compute_N(ps: PrecondSystem, xrad: np.ndarray) -> IMatrix:
    """Zero-midpoint contraction bound for a symmetric box of radii ``xrad``."""
    xrad = np.asarray(xrad, dtype=np.float64)
    if xrad.shape != ps.Fp.shape or (xrad < 0).any():
        raise ValueError("xrad must be a nonnegative m x n array")
    ab, cd = _pairs(ps)
    w = _pair_bound(ab, xrad) + _pair_bound(cd, xrad)
    return _divide(ps, None, _up(w, 4, out=w))


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
    (``U``, ``Vinv``, ``precond``).
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


def _solve(method: str, ps: PrecondSystem, kmax: int) -> Enclosure:
    """Verify the preconditioned system ``ps``: the solve of mkw and of blk.

    ``Xtilde``, ``M`` and the contraction term divide through ``ps``, and a
    verified box maps back by ``U . V^-1``.
    """
    if ps.diagonal:
        xtilde = ps.Fp.mid / ps.den.mid
    else:
        xtilde = interval_back_substitute(ps, IMatrix(ps.Fp.mid)).mid
    return verify(
        method,
        xtilde,
        compute_M(ps, xtilde),
        lambda r: compute_N(ps, r),
        lambda Z: back_transform(ps.U, Z, ps.vinv_box),
        kmax,
        U=ps.U,
        Vinv=ps.vinv_box.mid,
        precond=ps,
    )


def mkw_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
) -> Enclosure:
    """Verified enclosure via diagonal preconditioning plus Krawczyk check.

    Preconditioning failures (no eigenbasis, singular denominators) raise;
    a failed verification is a regular result with ``verified=False``.
    """
    return _solve("mkw", transform_enclose(sys), kmax)
