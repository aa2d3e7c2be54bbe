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
``M = residual ./ den`` and ``N`` divide through it: by one quotient rule
on the whole array when every block is 1 x 1 (mkw's eigenbases, and blk's
when no eigenvalues cluster), by the interval backward substitution
:func:`interval_back_substitute` over the tiles of the block pattern
otherwise; on 1 x 1 tiles the two give the same bits.  ``Xtilde`` is
``mid Fp ./ mid den`` on the whole array, and on a block pattern the
midpoint-only sweep over the same tiles, which divides by ``mid den`` too
and so is that quotient bit for bit on 1 x 1 tiles.  Both map back by the
point factors ``U . W`` (``W = Vinv ~ V^-1``), reindexing on a side whose
basis is a permutation.  The
dense solver ``ver`` (:mod:`.baseline`) multiplies by a floating inverse
``R`` of the Kronecker midpoint ``mid Q`` and bounds the contraction by
``|I - R Q| x``; its loop runs in m x n coordinates and ``back`` is the
identity.  All three enclose the residual of ``Xtilde`` by one kernel,
:func:`residual`: mkw and blk on their preconditioned coefficients, ver on
the original ones.

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
the product with ``Bp``; a point scalar coefficient, which a permutation
basis keeps exact (``<c I, 0>``), takes no product: ``im_matmul`` scales
by a ``c = +-2^e`` exactly and applies any other ``c`` by broadcasts.
Each pair of
``N`` is factored through ``P = rad(Ap) W``: ``P |mid Bp|`` is a column
scaling by the magnitudes of the diagonal of ``mid Bp`` and ``Mag(Ap) W =
|diag mid Ap| W + P``, two real products per pair in all.  A block pattern
takes the same factored bound with :func:`.intervals.posmm` products by the
pattern magnitudes.

On success the solution set of every member system is contained in
``U (Xtilde + H) W``: the passing test proves every transformed operator
nonsingular, and with it the point factors, so no inverse needs a
certificate (see :mod:`.precond`).  The inflated box ``X`` is kept
alongside so the interior test can be replayed.

A result keeps what its readers need and no more.  Every zero midpoint of
the loop (each candidate ``X``, which becomes ``Xbox``, the contraction
term ``N`` and the inflation term) is one read-only zero broadcast to the
box's shape, so it takes no memory and reads, serializes and hashes as a
dense zero does.  The preconditioned system an mkw or blk result carries
in ``precond`` holds its coefficients' midpoints by their pattern entries
and, of the denominators, the reciprocal disks alone.  A dense
intermediate lives until its last read and no longer: :func:`residual`
asks for each coefficient box when its product needs it, so
:func:`compute_M` holds one dense box at a time; blk's tile sweeps gather
their blocks from one dense pattern midpoint at a time and form ``mid den``
for their own call; and :func:`verify` drops ``M`` after the loop, before
the back-transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .intervals import (
    IMatrix,
    _Operand,
    _dot_ops,
    _pad_rad,
    _prepare,
    _quot,
    _slack,
    _inflation_rad,
    _up,
    _zeros,
    as_imatrix,
    im_matmul,
    in_interior,
    posmm,
)
from .precond import PrecondSystem, _take, transform_enclose
from .system import SylvesterSystem

__all__ = [
    "Enclosure", "LoopResult", "residual", "compute_M", "compute_N", "interval_back_substitute",
    "verify", "mkw_solve",
]

KMAX_DEFAULT = 15
FAILURE_MESSAGE = "Method can not obtain outer estimation"
# ``min(rad N(x) / x)`` at or above this certifies that no later box verifies
_NOT_CONTRACTING = 1.0 + 2.0**-10
# the extra ``n_of`` calls one failed loop may spend on a principal-subset certificate
_SUBSET_EVALS = 4


@dataclass
class Enclosure:
    """Result of a verified solve.

    ``evaluated`` is the enclosure in original coordinates (None when not
    verified).  ``Xtilde`` is the approximate solution in preconditioned
    coordinates, ``Xbox`` the inflated zero-midpoint verification box, and
    ``Hbox`` the final candidate image with ``Hbox`` interior to ``Xbox``
    whenever ``verified`` is True.  ``U`` and ``Vinv`` are the point
    back-transform factors (identity for the dense baseline).

    What an enclosure retains: these arrays (a verification box's zero
    midpoint as one read-only broadcast zero; itr's ``Xbox`` holds its
    final disks) and the solver's state, ``precond`` (the compact
    :class:`.precond.PrecondSystem`) and ``gamma`` (itr's final rectangle).
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


def residual(F: IMatrix, xtilde: np.ndarray, coef) -> IMatrix:
    """Enclosure of ``F - (A Xtilde) B - (C Xtilde) D`` over all members of the coefficients.

    ``coef(i)`` is coefficient ``i``, 0 .. 3 for ``A .. D``: mkw and blk pass
    their preconditioned system's :meth:`.precond.PrecondSystem.box`, ver
    the original coefficients.  Each coefficient is asked for when its
    product needs it, so the first factor of a term is dropped before the
    second is formed, and each term is subtracted as soon as it is formed.
    ``Xtilde`` is prepared once for both products.
    """
    xt = _prepare(xtilde)
    for i in (0, 2):
        F = F - im_matmul(im_matmul(coef(i), xt), coef(i + 1))
    return F


def _blocks(sizes: tuple[int, ...]) -> list[tuple[int, np.ndarray]]:
    """Each block size with the ``(count, size)`` indices of its blocks."""
    starts = np.cumsum((0,) + tuple(sizes[:-1]))
    return [(s, starts[np.equal(sizes, s)][:, None] + np.arange(s)) for s in sorted(set(sizes))]


def _block_stacks(dense: np.ndarray, blocks) -> list[np.ndarray]:
    """The diagonal blocks of ``dense``, stacked per block size of ``blocks``."""
    return [dense[ix[:, :, None], ix[:, None, :]] for _, ix in blocks]


def _tiles(ps: PrecondSystem, *arrays: np.ndarray):
    """Each tile shape ``a x b`` of ``ps``, with its tiles stacked.

    Yields ``a``, the blocks ``(DA, DC, DB, DD)`` of every tile, the index
    ``ix`` that scatters a stack back, and ``arrays`` as ``(rows, cols, a
    b)`` stacks: unknown ``p = k a + r`` of tile ``(I, J)`` is entry
    ``[rows[I, r], cols[J, k]]``.  The blocks are gathered once per call,
    each coefficient's from its dense pattern midpoint, which is formed from
    the stored entries of ``ps`` and dropped at once.
    """
    row_blocks, col_blocks = _blocks(ps.row_sizes), _blocks(ps.col_sizes)
    da, db, dc, dd = (
        _block_stacks(ps.pattern_mid(i), col_blocks if i % 2 else row_blocks) for i in range(4)
    )
    for (a, rows), DA, DC in zip(row_blocks, da, dc):
        for (b, cols), DB, DD in zip(col_blocks, db, dd):
            ix = (rows[:, None, None, :], cols[None, :, :, None])
            tiles = (len(rows), len(cols), a * b)
            yield a, (DA, DC, DB, DD), ix, tuple(x[ix].reshape(tiles) for x in arrays)


def _tail(blocks, a: int, p: int):
    """The factors ``(col_b, row_a, col_d, row_c)`` of row ``p`` in every tile.

    ``col_b row_a + col_d row_c``, flattened per tile, holds the coefficients
    of the unknowns from ``k a`` on, for ``k, r = divmod(p, a)`` (rows ``k' <
    k`` of the lower-triangular ``DB`` and ``DD`` hold exact zeros); its first
    ``r + 1`` entries are those of the unknowns up to ``p``.
    """
    DA, DC, DB, DD = blocks
    k, r = divmod(p, a)
    return (
        DB[None, :, k:, k, None], DA[:, None, None, r, :],
        DD[None, :, k:, k, None], DC[:, None, None, r, :],
    )


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
    of the diagonal path, with the reciprocal disks ``ps.rec``; on 1 x 1
    tiles the result is that path's bit for bit.
    """
    m, n = ps.m, ps.n
    rhs = as_imatrix(rhs)
    if rhs.shape != (m, n):
        raise ValueError("dimension mismatch")
    out_mid = np.zeros((m, n), dtype=np.complex128)
    out_rad = np.zeros((m, n))
    for a, blocks, ix, (f_mid, f_rad, rec_mid, rec_rad) in _tiles(
        ps, rhs.mid, rhs.rad, ps.rec.mid, ps.rec.rad
    ):
        z_mid = np.zeros(f_mid.shape, dtype=np.complex128)
        z_rad = np.zeros(f_mid.shape)
        last = f_mid.shape[-1] - 1
        for p in range(last, -1, -1):
            num_mid, num_rad = f_mid[..., p], f_rad[..., p]
            if p < last:
                r = p % a
                col_b, row_a, col_d, row_c = _tail(blocks, a, p)
                flat = f_mid.shape[:2] + (-1,)
                t_mid = (col_b * row_a + col_d * row_c).reshape(flat)[..., r + 1 :]
                t_rad = _slack(np.abs(col_b) * np.abs(row_a) + np.abs(col_d) * np.abs(row_c), 6)
                t_rad = t_rad.reshape(flat)[..., r + 1 :]
                zm, zr = z_mid[..., p + 1 :], z_rad[..., p + 1 :]
                at, az = np.abs(t_mid), np.abs(zm)
                dot_mid = (t_mid * zm).sum(axis=-1)
                dot_rad = (
                    (at * zr).sum(axis=-1) + (t_rad * az).sum(axis=-1) + (t_rad * zr).sum(axis=-1)
                )
                dot_rad = _pad_rad(dot_rad, (at * az).sum(axis=-1), _dot_ops(last - p))
                num_mid = num_mid - dot_mid
                num_rad = _pad_rad(num_rad + dot_rad, np.abs(num_mid))
            z_mid[..., p], z_rad[..., p] = _quot(num_mid, num_rad, rec_mid[..., p], rec_rad[..., p])
        out_mid[ix] = z_mid.reshape(z_mid.shape[:2] + (-1, a))
        out_rad[ix] = z_rad.reshape(z_mid.shape[:2] + (-1, a))
    return IMatrix(out_mid, out_rad)


def _point_back_substitute(ps: PrecondSystem, f: np.ndarray) -> np.ndarray:
    """``unvec(Lambda^-1 vec(f))`` in floating point, for the approximate solution.

    The sweep of :func:`interval_back_substitute` over the same tiles on
    midpoints only, each unknown divided by the denominators' midpoints
    ``ps.den_mid()``: on 1 x 1 tiles it is the diagonal path's ``f /
    ps.den_mid()`` bit for bit.
    """
    out = np.zeros(f.shape, dtype=np.complex128)
    for a, blocks, ix, (f_t, den) in _tiles(ps, f, ps.den_mid()):
        z = np.zeros(f_t.shape, dtype=np.complex128)
        last = f_t.shape[-1] - 1
        for p in range(last, -1, -1):
            num = f_t[..., p]
            if p < last:
                col_b, row_a, col_d, row_c = _tail(blocks, a, p)
                t = (col_b * row_a + col_d * row_c).reshape(f_t.shape[:2] + (-1,))
                num = num - (t[..., p % a + 1 :] * z[..., p + 1 :]).sum(axis=-1)
            z[..., p] = num / den[..., p]
        out[ix] = z.reshape(z.shape[:2] + (-1, a))
    return out


def _divide(ps: PrecondSystem, mid: np.ndarray | None, rad: np.ndarray) -> IMatrix:
    """Disks ``<mid, rad>`` (``mid=None`` for zero midpoints) divided through ``ps``:
    by one quotient rule on a diagonal system, tile by tile otherwise.  A zero
    midpoint is a read-only broadcast zero of ``Fp``'s dtype."""
    if ps.diagonal:
        q, r = _quot(mid, rad, *ps.rec)
        return IMatrix._from_kernel(_zeros(r.shape, ps.Fp.mid.dtype) if q is None else q, r)
    if mid is None:
        mid = _zeros(rad.shape, ps.Fp.mid.dtype)
    return interval_back_substitute(ps, IMatrix(mid, rad))


def compute_M(ps: PrecondSystem, xtilde: np.ndarray) -> IMatrix:
    """Enclosure of the scaled residual of ``xtilde`` over all members.

    The dense boxes ``Ap .. Dp`` are formed one at a time, each for its product only.
    """
    r = residual(ps.Fp, xtilde, ps.box)
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
    """The pairs ``(Ap, Bp)`` and ``(Cp, Dp)`` of ``ps``, read from its stored entries."""
    mids = ps.mids if ps.diagonal else tuple(ps.pattern_mid(i) for i in range(4))
    mags = tuple(np.abs(x) for x in mids)
    return tuple(_Pair(ps.rads[i], mags[i], ps.rads[i + 1], mags[i + 1]) for i in (0, 2))


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


def _subset_certificate(n_of, xrad: np.ndarray, ratio: np.ndarray) -> float | None:
    """The ratio ``min_S z / y`` of a certified principal subset ``S``, or None.

    ``S`` starts as the entries whose ratio ``rad N(x) / x`` is at least
    ``1 + delta`` and ``y`` as ``x`` on ``S``, zero elsewhere.  Each power
    step forms ``z = rad n_of(y)``, keeps the entries of ``S`` where ``z / y
    >= 1 + delta`` and sets ``y = z`` there.  It returns once every entry of
    ``S`` passes, and gives up when ``S`` empties or :data:`_SUBSET_EVALS`
    calls are spent.
    """
    keep = ratio >= _NOT_CONTRACTING
    y = np.where(keep, xrad, 0.0)
    for _ in range(_SUBSET_EVALS):
        if not keep.any():
            return None
        z = n_of(y).rad
        r = z[keep] / y[keep]
        low = r.min()
        if low >= _NOT_CONTRACTING:
            return float(low)
        keep[keep] = r >= _NOT_CONTRACTING
        y = np.where(keep, z, 0.0)
    return None


class LoopResult(NamedTuple):
    """How :func:`verification_loop` ended.

    ``X`` is the last symmetric candidate box and ``H`` the last candidate
    image.  ``stop`` is why the loop ended: ``"box"`` (``H`` lies in the
    interior of ``X``), ``"not_contracting"`` (every ratio ``rad N(x) / x``
    of the step reached ``1 + delta``), ``"subset"`` (the principal-subset
    certificate) or ``"kmax"``.  ``ratio`` is the largest ratio ``rad N(x) /
    x`` of the last step.
    """

    verified: bool
    X: IMatrix
    H: IMatrix
    iterations: int
    stop: str
    ratio: float


def verification_loop(M: IMatrix, n_of, kmax: int) -> LoopResult:
    """Epsilon-inflation loop shared by the diagonal, block and dense solvers.

    ``n_of`` maps a nonnegative radius array to the zero-midpoint contraction
    term.  Returns a :class:`LoopResult`, the verified flag first.

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

    Where only some entries grow, the same argument runs on a principal
    submatrix.  At the first failed step before ``kmax`` whose largest
    ratio reaches ``1 + delta``, :func:`_subset_certificate` runs a few
    power steps on the growing entries ``S``, with a vector ``y >= 0`` that
    vanishes off ``S`` and is positive on it.  Then ``(L y)_S = L[S] y_S``,
    so ``z / y >= 1 + delta`` on ``S`` gives ``rho(L[S]) >= (1 + delta) /
    (1 + eps)`` as above, and ``rho(L) >= rho(L[S])`` for a nonnegative
    ``L`` (Horn and Johnson, 8.1; Rump, "Verification methods", Acta
    Numerica 19, 2010).  The attempt spends at most :data:`_SUBSET_EVALS`
    extra calls of ``n_of`` per loop; when it certifies nothing the loop
    goes on as before.
    """
    e_rad = _inflation_rad(M.rad)
    zero = _zeros(M.shape, M.mid.dtype)
    H = M
    tried = False
    for k in range(1, max(kmax, 1) + 1):
        xrad = H.mag()
        xrad += e_rad
        _up(xrad, 2, out=xrad)
        X = IMatrix._from_kernel(zero, xrad)
        N = n_of(xrad)
        H = M + N
        ratio = N.rad / xrad
        top = float(ratio.max())
        if in_interior(H, X):
            return LoopResult(True, X, H, k, "box", top)
        if ratio.min() >= _NOT_CONTRACTING:
            return LoopResult(False, X, H, k, "not_contracting", top)
        if not tried and k < kmax and top >= _NOT_CONTRACTING:
            tried = True
            if _subset_certificate(n_of, xrad, ratio) is not None:
                return LoopResult(False, X, H, k, "subset", top)
    return LoopResult(False, X, H, k, "kmax", top)


def back_transform(ps: PrecondSystem, inner: IMatrix) -> IMatrix:
    """Enclosure of ``U * inner * W`` with the point factors ``U`` and ``W = ps.Vinv``.

    Two midpoint products and two real radius products, one per point
    factor, each prepared as an operand with no zero radius array.  A
    permutation side of ``ps`` reindexes exactly instead.
    """
    if ps.u_perm is None:
        inner = im_matmul(_Operand(ps.U), inner)
    else:
        inner = _take(inner, rows=np.argsort(ps.u_perm))
    if ps.v_perm is None:
        return im_matmul(inner, _Operand(ps.Vinv))
    return _take(inner, cols=np.argsort(ps.v_perm))


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
    loop = verification_loop(M, n_of, kmax)
    # the loop's last read of M: a caller that handed it over frees it before the back-transform
    del M
    return Enclosure(
        Xtilde=xtilde,
        Xbox=loop.X,
        evaluated=back(as_imatrix(xtilde) + loop.H) if loop.verified else None,
        verified=loop.verified,
        iterations=loop.iterations,
        method=method,
        message="" if loop.verified else FAILURE_MESSAGE,
        Hbox=loop.H,
        **fields,
    )


def _solve(method: str, ps: PrecondSystem, kmax: int) -> Enclosure:
    """Verify the preconditioned system ``ps``: the solve of mkw and of blk.

    ``Xtilde``, ``M`` and the contraction term divide through ``ps``, and a
    verified box maps back by the point factors ``U . W``, ``W = ps.Vinv``.
    """
    if ps.diagonal:
        xtilde = ps.Fp.mid / ps.den_mid()
    else:
        xtilde = _point_back_substitute(ps, ps.Fp.mid)
    return verify(
        method,
        xtilde,
        compute_M(ps, xtilde),
        lambda r: compute_N(ps, r),
        lambda Z: back_transform(ps, Z),
        kmax,
        U=ps.U,
        Vinv=ps.Vinv,
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
