"""Dense reference lane on the vectorized normal form, plus the audit layer.

Stacking columns turns the two-sided equation into an ordinary interval
linear system ``Q vec(X) = vec(F)`` with

    Q = transpose(B) kron A + transpose(D) kron C.

On this form the module offers a verified full-size Krawczyk solve (method
id ``ver``) used to cross check the structured solver on small problems; it
refuses problems above a configurable ``m * n`` cap since its dense
preconditioner grows with the fourth power of the dimension.  That
preconditioner ``R`` inverts the point matrix ``mid Q`` by LAPACK
``getrf`` and ``getri``: a dense ``R`` is what makes ``ver`` the
unstructured reference.  The interval ``Q`` itself is never formed.  The
contraction matrix ``R Q`` comes from the Kronecker factors (Van Loan, "The
ubiquitous Kronecker product", JCAM 123, 2000): row ``r`` of ``R (Y^T kron
X)`` is ``vec(X^T R_r Y^T)`` for row ``r`` of ``R`` as an ``m x n`` matrix
``R_r``, so each coefficient pair costs products of ``m x m`` and ``n x n``
factors with the rows of ``R`` instead of one ``(m n)^3`` product.  A pair
with a point scalar factor ``c I``, ``c`` a power of two, goes through the
product core (:func:`~sylvenc.intervals._product`), which decides per row
of ``R`` whether the product by ``c I`` scales exactly.  The residual is
formed in ``m x n`` coordinates by the same kernel as mkw's and blk's.

Memory model of ``ver``: one ``(m n)^2`` buffer serves the whole solve,
beside one row block's working set of about ``_VER_BLOCK_BYTES`` each.
``mid Q`` is assembled in it, its second Kronecker term added in row
blocks; ``getrf`` and ``getri`` turn it into ``R`` in place; ``M`` reads
``R`` through row blocks, each block's ``|R|`` formed on its own; and
``|I - R Q|``, streamed through row blocks of ``R``, is written into the
rows of the buffer the stream has read.  A call whose predicted peak
exceeds ``linalg.KRON_BYTES`` is refused before it allocates.

The audit layer checks enclosures against members of the interval system:

* floating-point solutions of member point systems (``point_solve``,
  ``sample_solutions``) on one factorization of the operator: the
  Kronecker LU for small ``m n`` only, above that the QZ-based generalized
  Bartels-Stewart method in cubic time and quadratic memory.
  ``sample_solutions`` factors the midpoint operator once and solves the
  sampled members together by refinement sweeps on it, in chunks of bounded
  memory; ``point_solve`` takes the members whose sweeps do not converge;
* a certified necessary condition for membership of a point matrix in the
  united solution set (``residual_membership``), for one matrix or a stack
  of them.  Its residual boxes are those of interval operations, where a
  product by a point scalar ``c I``, ``c`` a power of two, is exact: the
  identity coefficients of ``A X B + X = F`` and ``A X + X B = F`` cost no
  product and need one association order.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrtrs as _trtrs

from . import linalg
from .errors import IntervalOverflowError, SingularMatrixError, SizeCapError
from .intervals import (
    IMatrix,
    _dot_ops,
    _down,
    _mag,
    _mm,
    _Operand,
    _pad_rad,
    _prepare,
    _product,
    _slack,
    _up,
    _zeros,
    as_imatrix,
    posmm,
)
from .krawczyk import KMAX_DEFAULT, Enclosure, residual, verify
from .linalg import _kron2, iunvec, ivec, kron, lu_inverse, unvec, vec
from .system import SylvesterSystem

__all__ = [
    "BASELINE_CAP",
    "KronSystem",
    "build_Q_kron",
    "full_krawczyk_solve",
    "point_solve",
    "sample_solutions",
    "residual_membership",
]

BASELINE_CAP = 1024
# ver: bytes of one row block of its (m n)^2 buffer that a stream reads (256 KiB)
_VER_BLOCK_BYTES = 2**18
# arrays of one block's entries that bound its working set, for the size budget:
# midpoints in R's dtype, and float64 radii and magnitudes
_VER_BLOCK_WORK = (4, 8)
# point_solve: Kronecker LU up to this many unknowns m n, QZ recurrence above;
# the two cost the same near m n = 225 (m = n = 15) on one BLAS thread
_KRON_MAX_UNKNOWNS = 225
VERTEX_ENUM_LIMIT = 12
# sample_solutions and the audits: bytes the members of one chunk may hold
# (16 MiB, a thousand members at m = n = 8, so an audit's memory stays flat
# from there on); the relative error below which a member's refinement sweeps
# stop; and the sweeps a member may take before it falls back to point_solve.
# The error bound is 2**-48: residual_membership's exact scalar products leave
# no pad for a member solution's own error, and at 2**-46 vertex members of
# sylvester32 (m = 2, alpha = 1e-2) fell outside their residual boxes by about
# 5e-15
_SAMPLE_BYTES = 2**24
_CONVERGED = 2.0**-48
_MAX_SWEEPS = 12


@dataclass(frozen=True)
class KronSystem:
    """A floating inverse ``R`` of ``mid Q`` for the vectorized form ``Q vec(X) = vec(F)``.

    ``R`` is C-ordered, so its rows reshape to the stack of
    :func:`_kron_rows` without a copy.  It is ver's one ``(m n)^2`` buffer:
    :func:`_contraction_mag` consumes it, writing ``|I - R Q|`` over it, so
    callers that still need ``R`` afterwards pass a copy.
    """

    R: np.ndarray
    m: int
    n: int


def _check_cap(sys: SylvesterSystem, cap: int | None) -> None:
    if cap is not None and sys.m * sys.n > cap:
        raise SizeCapError("baseline size cap")


def build_Q_kron(
    sys: SylvesterSystem,
    cap: int | None = BASELINE_CAP,
) -> KronSystem:
    """The floating inverse ``R`` of ``mid Q`` for ``sys``.

    Only the point matrix ``mid Q = mid B^T kron mid A + mid D^T kron mid C``
    is assembled (:func:`_kron_mid`).  ``R`` is the inverse of its transpose
    by one LU factorization inverted in place
    (:func:`~sylvenc.linalg.lu_inverse`, LAPACK ``getrf`` and ``getri``),
    transposed back: LAPACK reads the transpose of the C-ordered ``mid Q`` as
    it lies and overwrites it, and the transpose of its Fortran-ordered
    result is a C-ordered ``R`` in the assembly's buffer.  So the solve holds
    one ``(m n)^2`` array.  An exactly zero pivot raises
    :class:`SingularMatrixError`.
    """
    _check_cap(sys, cap)
    qmid = _kron_mid(sys.A.mid, sys.B.mid, sys.C.mid, sys.D.mid)
    return KronSystem(R=lu_inverse(qmid.T).T, m=sys.m, n=sys.n)


def _kron_mid(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The point matrix ``B^T kron A + D^T kron C``, C-ordered, as one ``(m n)^2`` array.

    One term is the whole :func:`~sylvenc.linalg.kron`, the one in the sum's
    dtype (``B^T kron A`` unless only the other is complex), and the other
    is added to it in row blocks: each block is ``kron`` of rows of its
    factors, whole rows of the left one, or one of them and rows of the
    right one when a row of the left one is more than a block.  A block and
    the buffer numpy's broadcast product allocates beside it, about as
    large, take ``_VER_BLOCK_BYTES``.  So each entry is the product and the
    sum of the two whole ``kron`` terms, and the only ``(m n)^2`` array is
    the result.
    """
    dtype = np.result_type(A, B, C, D)
    (x, y), (u, v) = (B.T, A), (D.T, C)
    if np.result_type(x, y) != dtype:
        (x, y), (u, v) = (u, v), (x, y)
    q = kron(x, y)
    n, m = x.shape[0], y.shape[0]
    h = _block_rows(m * n, 2 * q.itemsize)
    q4, k = q.reshape(n, m, n, m), max(1, h // m)
    for p in range(0, n, k):
        for r in range(0, m, h):
            rows = q4[p : p + k, r : r + h]
            rows += _kron2(u[p : p + k], v[r : r + h]).reshape(rows.shape)
    return q


def _kron_rows(r: _Operand, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and radius of ``R (y^T kron x)`` for a point ``R``, as ``(k, n, m)`` stacks.

    ``r`` is a point operand (:class:`~sylvenc.intervals._Operand`) on a
    stack of rows of ``R``, each row ``r`` as an ``n x m`` matrix
    (``R_r^T``); it may hold any ``k`` rows of ``R``, and each row of the
    result is that of its own row of ``R``.  ``x`` and ``y`` are operands or
    anything :func:`~sylvenc.intervals._prepare` takes.  Row ``r`` of the
    product is ``vec(x^T R_r y^T)``, the ``n x m`` matrix ``y R_r^T x``
    flattened, so the midpoint is one product with ``x`` on the whole stack
    and one stacked product with ``y``.  The radius carries the radius
    identity of the Kronecker product, ``rad(y^T kron x) <= |Ym|^T kron Xr +
    Yr^T kron (|Xm| + Xr)``, through ``|R|``:

        |Ym| |r| (Xr + c |Xm|) + Yr |r| (|Xm| + Xr),

    scaled up for ``k`` roundings, with the pad of ``k`` roundings of
    ``|Ym| |r| |Xm|`` folded into the first term as ``c |Xm|``
    (:func:`~sylvenc.intervals._fold`, the rule of ``im_matmul``).  ``k =
    (2m + 8) + (2n + 8) + 1`` counts the midpoint's chain of two inner
    products, ``gamma_m + gamma_n + gamma_m gamma_n``, and the rounding of
    the radius's own products and sums.  The products with a zero radius
    are skipped.

    A pair with a point scalar factor ``c I`` (the ``scale`` of an operand,
    ``c = +-2^e``; the identity is ``c = 1``) is two products of the core
    instead, ``y (r x)`` when ``y`` is one (a pair of them gives the point
    ``c R``) and ``(y r) x`` when only ``x`` is, so the product by the
    factor is exact wherever :func:`~sylvenc.intervals._product` finds it
    so, decided per row of ``R``, and the general product elsewhere.  The
    inner product, ``r x`` or ``y r``, is the core's product as well.
    """
    x, y = _prepare(x), _prepare(y)
    if y.scale is not None:
        return _product(y, _product(r, x))
    if x.scale is not None:
        return _product(_product(y, r), x)
    k_rows, n, m = r.mid.shape

    def rows(stack: np.ndarray, t: np.ndarray) -> np.ndarray:
        # every matrix of the stack times t, as one product on the stacked rows
        return _mm(stack.reshape(-1, m), t).reshape(k_rows, n, m)

    mid = _mm(y.mid, rows(r.mid, x.mid))
    k = _dot_ops(m) + _dot_ops(n) + 1
    xpad, split = x.fold(k)
    rad = np.zeros(mid.shape) if xpad is None else _mm(y.amid, rows(r.amid, xpad))
    if y.rad is not None:
        rad += _mm(y.rad, rows(r.amid, x.mag_sum()))
    _up(rad, k, out=rad)
    if split:
        rad += _slack(_mm(y.amid, rows(r.amid, x.amid)), k)
    return mid, rad


def _block_rows(mn: int, itemsize: int) -> int:
    """Rows of an ``(m n)^2`` array of ver per block: ``_VER_BLOCK_BYTES`` of it."""
    return max(1, _VER_BLOCK_BYTES // (itemsize * mn))


def _contraction_mag(ks: KronSystem, sys: SylvesterSystem) -> np.ndarray:
    """``|I - R Q|`` over every member ``Q``, streamed through row blocks of ``R`` into ``R``.

    The contraction consumes ``R``: the result is written into ``R``'s own
    buffer, as the float64 array of its first ``(m n)^2 * 8`` bytes, so
    callers that still need ``R`` pass a copy.  The rows ``[lo, hi)`` of the
    result lie in rows of ``R`` below ``hi`` (below ``hi / 2`` for a complex
    ``R``), which the stream has read by the time it writes them.

    Each block of rows of ``R`` is prepared once as a point operand, whose
    ``|mid|`` serves both coefficient pairs, and takes :func:`_kron_rows`
    once per pair: a pair of exact point scalars (kyc31's identities C and
    D) contributes the point ``c R`` itself, a pair with one of them
    (sylvester32's) one product with ``R``, each decided per row of ``R`` by
    the product core.  The two terms add as disks, as the interval sum does;
    the identity is subtracted on the block's diagonal entries and the
    magnitude written to the block's rows of the result.  The pad rules are
    those of the interval sum, of the subtraction ``I - R Q`` and of ``mag``
    (:func:`~sylvenc.intervals._pad_rad`, :func:`~sylvenc.intervals._mag`),
    entrywise, and the rows of ``R Q`` are independent, so each entry is bit
    for bit that of the unblocked computation.  So ``R``'s buffer is the
    only ``(m n)^2`` array; every other array holds one block.  A non-finite
    entry of ``R Q`` raises :class:`IntervalOverflowError`.
    """
    m, n, R = ks.m, ks.n, ks.R
    mn = m * n
    r3 = R.reshape(mn, n, m)
    h = _block_rows(mn, R.itemsize)
    pairs = [(_prepare(x), _prepare(y)) for x, y in ((sys.A, sys.B), (sys.C, sys.D))]
    wmag = R.reshape(-1).view(np.float64)[: mn * mn].reshape(mn, mn)
    for lo in range(0, mn, h):
        blk = _Operand(r3[lo : lo + h])
        hb = len(blk.mid)
        (mid, rad), (mid1, rad1) = (_kron_rows(blk, x, y) for x, y in pairs)
        mid = np.add(mid, mid1).reshape(hb, mn)
        # every radius _kron_rows returns is its own array, so the sum may overwrite one
        rad = np.add(rad, rad1, out=rad).reshape(hb, mn)
        # the block's terms go before its sum's temporaries: the working set stays ten blocks
        del blk, mid1, rad1
        _pad_rad(rad, np.abs(mid), out=rad)
        if not (np.isfinite(mid).all() and np.isfinite(rad).all()):
            raise IntervalOverflowError("interval overflow")
        # I - R Q on the block's rows, its diagonal entries at columns lo..lo+hb-1
        amid = np.negative(mid, out=mid)
        amid.flat[lo :: mn + 1] += 1.0
        amid = np.abs(amid)
        _pad_rad(rad, amid.copy(), out=rad)
        _mag(amid, rad, out=wmag[lo : lo + hb])
    return wmag


def full_krawczyk_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
    cap: int | None = BASELINE_CAP,
) -> Enclosure:
    """Verified enclosure by a Krawczyk iteration on the full ``m n`` system.

    ``R`` is the dense floating inverse of the midpoint matrix from
    :func:`build_Q_kron` (``getrf`` and ``getri``); the candidate image is
    ``M + (I - R Q) Z`` for symmetric boxes ``Z``, checked for strict interior
    containment exactly as in the structured solver.  ``M`` comes from
    :func:`_ver_residual`, ``|I - R Q|`` from the Kronecker factors
    (:func:`_contraction_mag`), with no interval ``Q``.  A system whose
    predicted peak memory exceeds ``linalg.KRON_BYTES`` (:func:`_ver_bytes`)
    raises :class:`SizeCapError` before the first ``(m n)^2`` array is
    allocated.
    """
    need = _ver_bytes(sys)
    if need > linalg.KRON_BYTES:
        raise SizeCapError(
            f"ver needs about {need} bytes, above the budget of {linalg.KRON_BYTES} bytes"
        )
    ks = build_Q_kron(sys, cap)
    X, M = _ver_residual(ks, sys)
    return _ver_loop(ks, X, M, _contraction_mag(ks, sys), kmax)


def _ver_bytes(sys: SylvesterSystem) -> int:
    """ver's predicted peak bytes: one ``(m n)^2`` array of ``R``'s dtype and one block.

    Every phase works in one buffer: the LU phase assembles ``mid Q`` in it
    and factors and inverts it there, the ``M`` phase reads ``R`` from it,
    and the contraction writes ``|I - R Q|`` into it, each beside the
    arrays of one row block.  The contraction's block (:func:`_contraction_mag`)
    has the largest working set, bounded as measured by ``_VER_BLOCK_WORK``:
    arrays of the block's entries, midpoints in ``R``'s dtype and radii and
    magnitudes in float64.  Beside them the contraction keeps, per
    coefficient, ``|mid|``, its folded pad and ``|mid| + rad`` in float64,
    and forms them with one more such array: for ``n = 1`` (``m = 1``) the
    coefficient ``A`` (``B``) is as large as ``R`` itself.
    """
    coeffs = (sys.A, sys.B, sys.C, sys.D)
    mn = sys.m * sys.n
    item = np.result_type(*(t.mid for t in coeffs)).itemsize
    mids, rads = _VER_BLOCK_WORK
    block = (mids * item + rads * 8) * _block_rows(mn, item) * mn
    return item * mn * mn + block + 4 * 8 * sum(t.mid.size for t in coeffs)


def _ver_residual(ks: KronSystem, sys: SylvesterSystem) -> tuple[np.ndarray, IMatrix]:
    """ver's approximate solution ``Xtilde`` and ``M``, its residual enclosure times ``R``.

    ``Xtilde`` is ``R vec(mid F)`` with one step of iterative refinement; the
    residual enclosure ``F - (A Xtilde) B - (C Xtilde) D`` is formed in ``m x
    n`` coordinates (:func:`~sylvenc.krawczyk.residual`).  ``M`` is
    :func:`~sylvenc.intervals.im_matmul`'s product of the point ``R`` and
    the residual, taken by the product core on row blocks of ``R`` of about
    ``_VER_BLOCK_BYTES``, so no whole ``|R|`` is formed.  Each row of a
    block is the product of its row of ``R``, and rounds as in the
    unblocked product where BLAS computes a row alike in a block and in the
    whole matrix: on OpenBLAS, in blocks of a multiple of four rows (at
    least four, also where that is more than ``_VER_BLOCK_BYTES``) and no
    last block of one row.
    """
    m, n, R = ks.m, ks.n, ks.R
    A, B, C, D, F = (t.mid for t in (sys.A, sys.B, sys.C, sys.D, sys.F))
    X = unvec(R @ vec(F), m, n)
    # one step of iterative refinement on the midpoint solution
    X = X + unvec(R @ vec(F - A @ X @ B - C @ X @ D), m, n)
    res = residual(sys.F, X, (sys.A, sys.B, sys.C, sys.D).__getitem__)
    # OpenBLAS's matrix-vector kernels take rows four at a time, and numpy takes a
    # one-row product as a dot product: blocks of a multiple of four rows, and no
    # last row alone, round each row as the unblocked product does
    mn, h = m * n, _block_rows(m * n, R.itemsize)
    lows = list(range(0, mn, max(4, h - h % 4)))
    if len(lows) > 1 and lows[-1] == mn - 1:
        lows.pop()
    y = _prepare(ivec(res))
    parts = [_product(_Operand(R[lo:hi]), y) for lo, hi in zip(lows, lows[1:] + [mn])]
    mid, rad = (np.concatenate(t) for t in zip(*parts))
    return X, iunvec(IMatrix._from_kernel(mid, rad), m, n)


def _ver_loop(
    ks: KronSystem, X: np.ndarray, M: IMatrix, wmag: np.ndarray, kmax: int
) -> Enclosure:
    """ver's verification loop on ``M`` and ``wmag = |I - R Q|``."""
    m, n = ks.m, ks.n
    zero = _zeros(M.shape, M.mid.dtype)

    def n_of(xrad: np.ndarray) -> IMatrix:
        # the loop runs in m x n coordinates, where each of its steps is entrywise; the
        # column operand keeps the BLAS path, and so the rounding, of an m n x 1 product
        return IMatrix._from_kernel(zero, unvec(posmm(wmag, vec(xrad)[:, None]), m, n))

    return verify("ver", X, M, n_of, lambda Z: Z, kmax, U=np.eye(m), Vinv=np.eye(n))


def point_solve(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    F: np.ndarray,
) -> np.ndarray:
    """Floating solution of a point equation ``A X B + C X D = F``.

    The operator is factored once (:func:`_factor`: Kronecker LU up to ``m
    n = 225`` unknowns, the generalized Bartels-Stewart method above), and
    one step of iterative refinement on the residual ``F - A X B - C X D``
    reuses the factors.  Real input gives a real result.  A singular member
    (an exactly zero pivot, or a non-finite result) raises
    :class:`SingularMatrixError`.
    """
    A, B, C, D, F = (np.atleast_2d(np.asarray(t)) for t in (A, B, C, D, F))
    m, n = F.shape
    if A.shape != (m, m) or C.shape != (m, m) or B.shape != (n, n) or D.shape != (n, n):
        raise ValueError("dimension mismatch")
    solve = _factor(A, B, C, D, np.result_type(A, B, C, D, F))
    X = solve(F[None])[0]
    X = X + solve((F - A @ X @ B - C @ X @ D)[None])[0]
    if not np.isfinite(X).all():
        raise SingularMatrixError("singular matrix: non-finite member solution")
    return X


def _factor(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, dtype: np.dtype
) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of ``A Y B + C Y D = G`` on ``(k, m, n)`` stacks ``G``, factored once.

    Up to ``m n = 225`` unknowns it is the LU of the Kronecker matrix
    (:func:`_kron_factor`); above, where that ``(m n)^2`` matrix costs more
    than the QZ factorizations, the generalized Bartels-Stewart method
    (:func:`_qz_factor`) in ``O(m^3 + n^3)`` time and ``O(m^2 + n^2)``
    memory.  A real ``dtype`` gives real results.  An exactly zero pivot
    raises :class:`SingularMatrixError`.
    """
    if A.shape[0] * B.shape[0] <= _KRON_MAX_UNKNOWNS:
        return _kron_factor(A, B, C, D, dtype)
    solve = _qz_factor(A, B, C, D)
    if np.dtype(dtype).kind == "c":
        return solve
    return lambda G: solve(G).real


def _kron_factor(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, dtype: np.dtype
) -> Callable[[np.ndarray], np.ndarray]:
    """The LU solve of ``(B^T kron A + D^T kron C) vec(Y) = vec(G)`` on a ``(k, m, n)`` stack.

    One ``getrs`` call solves every matrix of the stack, each vectorized as
    one right-hand side column.  ``Q^T`` is assembled C-ordered from the
    transposed factors, so ``Q`` itself is Fortran-ordered, as ``getrf``
    factors it in place; each entry is the product and sum that ``Q``'s own
    assembly makes.
    """
    m, n = A.shape[0], B.shape[0]
    Q = _kron_mid(A.T, B.T, C.T, D.T).T.astype(dtype, copy=False)
    getrf, getrs = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs"), (Q,))
    lu, piv, info = getrf(Q, overwrite_a=True)
    if info > 0:
        raise SingularMatrixError("singular matrix")

    def solve(G: np.ndarray) -> np.ndarray:
        k = G.shape[0]
        rhs = G.transpose(0, 2, 1).reshape(k, m * n).T
        return getrs(lu, piv, rhs)[0].T.reshape(k, n, m).transpose(0, 2, 1)

    return solve


def _qz_factor(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Generalized Bartels-Stewart (Gardiner, Laub, Amato and Moler, 1992) on a stack.

    Complex QZ gives ``A = Q1 S1 Z1^H, C = Q1 T1 Z1^H`` and
    ``B^T = Q2 S2 Z2^H, D^T = Q2 T2 Z2^H`` with ``S*, T*`` upper triangular,
    so ``Y = Z1^H X conj(Z2)`` solves ``S1 Y S2^T + T1 Y T2^T = Q1^H F conj(Q2)``.
    The returned function solves a ``(k, m, n)`` stack of right-hand sides
    with these factors; its result is complex.
    """
    S1, T1, Q1, Z1 = _complex_qz(A, C)
    S2, T2, Q2, Z2 = _complex_qz(B.T, D.T)
    q1h, q2c, z2t = Q1.conj().T, Q2.conj(), Z2.T

    def solve(G: np.ndarray) -> np.ndarray:
        return Z1 @ _triangular_pencil_solve(S1, T1, S2, T2, q1h @ G @ q2c) @ z2t

    return solve


def _complex_qz(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """``S, T, Q, Z`` with ``a = Q S Z^H``, ``c = Q T Z^H``, ``S`` and ``T`` upper triangular.

    When one side is exactly the identity, the complex Schur form of the
    other is such a factorization, at a fraction of the cost of QZ.
    """
    eye = np.eye(a.shape[0])
    if (c == eye).all():
        s, z = scipy.linalg.schur(a, output="complex")
        return s, eye, z, z
    if (a == eye).all():
        t, z = scipy.linalg.schur(c, output="complex")
        return eye, t, z, z
    return scipy.linalg.qz(a, c, output="complex")


def _triangular_pencil_solve(
    S1: np.ndarray, T1: np.ndarray, S2: np.ndarray, T2: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Solve ``S1 Y S2^T + T1 Y T2^T = G`` for upper triangular ``S1, T1, S2, T2``.

    ``G`` is a ``(k, m, n)`` stack; the solution overwrites it.  Column ``j``
    of the equation involves only columns ``j..n-1`` of ``Y``: from the last
    column to the first, one triangular solve with ``S2[j, j] S1 + T2[j, j] T1``
    gives column ``j`` of every matrix of the stack, one right-hand side per
    matrix.
    """
    k, m, n = G.shape
    Y = G.transpose(2, 1, 0)  # Y[j]: column j of every matrix, (m, k)
    # later columns need M1 Y[l] for each pair whose M2 has entries above its
    # diagonal; an identity M1 (a side of the Schur path) needs no product
    pairs = [(M1, M2) for M1, M2 in ((S1, S2), (T1, T2)) if np.triu(M2, 1).any()]
    mult = [None if (M1 == np.eye(m)).all() else M1 for M1, _ in pairs]
    W = np.empty((n, len(pairs), m, k), dtype=np.complex128)
    coef = np.empty((n, n, len(pairs)), dtype=np.complex128)  # coef[j, l] pairs with W[l]
    for t, (_, M2) in enumerate(pairs):
        coef[:, :, t] = M2
    for j in range(n - 1, -1, -1):
        tail = coef[j, j + 1 :].reshape(-1) @ W[j + 1 :].reshape(-1, m * k)
        y, info = _trtrs(S2[j, j] * S1 + T2[j, j] * T1, Y[j] - tail.reshape(m, k))
        if info != 0:
            raise SingularMatrixError("singular matrix: zero pivot of the member pencil")
        Y[j] = y
        for t, M1 in enumerate(mult):
            W[j, t] = y if M1 is None else M1 @ y
    return G


def _draw_member(mat: IMatrix, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from each entry's disk (interval for real data)."""
    if mat.is_real:
        return mat.mid + mat.rad * rng.uniform(-1.0, 1.0, size=mat.shape)
    radius = mat.rad * np.sqrt(rng.uniform(0.0, 1.0, size=mat.shape))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=mat.shape)
    return mat.mid + radius * np.exp(1j * angle)


def _chunk_size(m: int, n: int) -> int:
    """Members per chunk: their arrays stay within ``_SAMPLE_BYTES``.

    Counts complex entries per member: the five coefficients, and twelve
    ``m x n`` arrays for the sweep (iterate, residual, correction, and the
    transformed and triangular arrays of the QZ solve with their temporaries;
    the peak measured at m = n = 200 is about ten).
    """
    return max(1, _SAMPLE_BYTES // (16 * (2 * m * m + 2 * n * n + 12 * m * n)))


def _member_chunks(
    sys: SylvesterSystem, n_samples: int, rng: np.random.Generator, mode: str
) -> Iterator[tuple[np.ndarray, ...]]:
    """Stacked coefficients ``A, B, C, D, F`` of consecutive members, chunk by chunk.

    The draws are those of a member-by-member loop in coefficient order, so
    the members do not depend on the chunk size: on real data one uniform
    draw per chunk, otherwise :func:`_draw_member` per member and coefficient;
    vertex sign patterns come as before.
    """
    mats = (sys.A, sys.B, sys.C, sys.D, sys.F)
    chunk = _chunk_size(sys.m, sys.n)
    if mode == "vertex":
        masks = [mat.rad > 0 for mat in mats]
        k = int(sum(mask.sum() for mask in masks))
        if k <= VERTEX_ENUM_LIMIT:
            patterns = itertools.product((-1.0, 1.0), repeat=k)
        else:
            patterns = (tuple(rng.choice((-1.0, 1.0), size=k)) for _ in range(n_samples))
        while pats := list(itertools.islice(patterns, chunk)):
            P = np.array(pats).reshape(len(pats), k)
            out, pos = [], 0
            for mat, mask in zip(mats, masks):
                signs = np.zeros((len(pats),) + mat.shape)
                cnt = int(mask.sum())
                signs[:, mask] = P[:, pos : pos + cnt]
                pos += cnt
                out.append(mat.mid + signs * mat.rad)
            yield tuple(out)
        return
    sizes = [mat.mid.size for mat in mats]
    for start in range(0, n_samples, chunk):
        c = min(chunk, n_samples - start)
        if sys.is_real:
            parts = np.split(rng.uniform(-1.0, 1.0, size=(c, sum(sizes))), np.cumsum(sizes)[:-1], 1)
            yield tuple(
                mat.mid + mat.rad * part.reshape((c,) + mat.shape) for mat, part in zip(mats, parts)
            )
        else:
            draws = [[_draw_member(mat, rng) for mat in mats] for _ in range(c)]
            yield tuple(np.stack(coef) for coef in zip(*draws))


def _midpoint_solver(sys: SylvesterSystem) -> Callable[[np.ndarray], np.ndarray] | None:
    """Solve of the midpoint operator on ``(k, m, n)`` stacks, by ``point_solve``'s :func:`_factor`.

    None when the factorization finds the midpoint singular.
    """
    A, B, C, D = (t.mid for t in (sys.A, sys.B, sys.C, sys.D))
    try:
        return _factor(A, B, C, D, np.float64 if sys.is_real else np.complex128)
    except SingularMatrixError:
        return None


def _max_abs(X: np.ndarray) -> np.ndarray:
    return np.abs(X).reshape(len(X), -1).max(axis=1)


def _refine_members(
    solve: Callable[[np.ndarray], np.ndarray] | None, *coeffs: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, int]:
    """Member solutions by refinement sweeps on the midpoint operator.

    With ``L_k(X) = A_k X B_k + C_k X D_k`` and ``L`` the midpoint operator,
    the sweeps ``X <- X + L^-1 (F_k - L_k X)`` start from ``L^-1 F_k`` and
    shrink the error by a ratio of about the relative size of the data radii
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 12).  Each
    member's ratio is read off its last two corrections ``d``:

    * the ratio is at most 1/2 and the error left after the last sweep,
      ``ratio d / (1 - ratio)``, at most ``_CONVERGED`` of the iterate: the
      member is accepted, a sweep before its corrections would stagnate at
      the rounding floor;
    * the correction did not halve, or at this ratio the member would not
      converge within ``_MAX_SWEEPS`` sweeps, or its iterate is not finite:
      it fails.  A near-singular member stagnates with small corrections
      and a large error, so stagnation is never taken for convergence.

    Every member fails when the midpoint is singular.  Returns the iterates
    (None when no solve ran), the mask of accepted members and the number of
    sweeps run.
    """
    count = len(coeffs[0])
    ok = np.zeros(count, dtype=bool)
    if solve is None:
        return None, ok, 0
    try:
        X = np.ascontiguousarray(solve(coeffs[4]))
    except SingularMatrixError:
        return None, ok, 0
    live, Xl, prev = np.arange(count), X, _max_abs(X)
    for sweep in range(1, _MAX_SWEEPS + 1):
        A, B, C, D, F = coeffs
        d = solve(F - A @ Xl @ B - C @ Xl @ D)
        Xl = Xl + d
        dn, xn = _max_abs(d), _max_abs(Xl)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = dn / prev
            left = ratio * dn / ((1.0 - ratio) * _CONVERGED * xn)  # at most 1: converged
            needed = np.log(left) / -np.log(ratio)
        halved = ratio <= 0.5
        accept = np.isfinite(xn) & ((dn == 0.0) | halved & (left <= 1.0))
        finish = accept | ~halved | (sweep + needed > _MAX_SWEEPS) | ~np.isfinite(xn)
        X[live[finish]] = Xl[finish]
        ok[live[finish]] = accept[finish]
        if finish.all():
            break
        keep = ~finish
        live, Xl, prev = live[keep], Xl[keep], dn[keep]
        coeffs = tuple(t[keep] for t in coeffs)
    return X, ok, sweep


def sample_solutions(
    sys: SylvesterSystem,
    n_samples: int = 200,
    seed: int = 0,
    mode: str = "random",
) -> list[np.ndarray]:
    """Solutions of sampled member point systems.

    ``random`` draws every coefficient entry uniformly from its disk, with a
    fixed counter-based generator so runs are reproducible.  ``vertex`` picks
    endpoint sign patterns of the nondegenerate entries: all ``2**k`` patterns
    when there are at most 12 of them, random patterns otherwise.

    The midpoint operator is factored once, on :func:`point_solve`'s path,
    and refinement sweeps on it solve the members together, in chunks that
    keep memory bounded whatever ``n_samples`` is.  A member whose sweeps do
    not converge (see ``_refine_members``) is solved by :func:`point_solve`;
    member systems that it finds singular are skipped with a warning.  The
    list holds every solution; the audits of ``sylvenc check`` and ``sylvenc
    bench`` count containment chunk by chunk instead (``_contained_counts``).
    """
    out: list[np.ndarray] = []
    for sols in _solution_chunks(sys, n_samples, seed, mode):
        out += sols
    return out


def _solution_chunks(
    sys: SylvesterSystem, n_samples: int, seed: int, mode: str
) -> Iterator[list[np.ndarray]]:
    """The solutions of :func:`sample_solutions`, in its order, one list per chunk of members."""
    if mode not in ("random", "vertex"):
        raise ValueError("mode must be 'random' or 'vertex'")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    rng = np.random.Generator(np.random.Philox(seed))
    solve = _midpoint_solver(sys)
    for coeffs in _member_chunks(sys, n_samples, rng, mode):
        X, ok, _ = _refine_members(solve, *coeffs)
        out: list[np.ndarray] = []
        for i, accepted in enumerate(ok):
            if accepted:
                out.append(X[i])
                continue
            try:
                out.append(point_solve(*(t[i] for t in coeffs)))
            except SingularMatrixError:
                warnings.warn("skipping singular member system", RuntimeWarning, stacklevel=3)
        yield out


def _contained_counts(
    sys: SylvesterSystem, boxes: list[IMatrix], n_samples: int, seed: int
) -> tuple[list[int], int]:
    """How many random member solutions each of ``boxes`` contains, and how many were solved.

    The members are those of ``sample_solutions(sys, n_samples, seed)``, in
    its order, streamed chunk by chunk: no member outlives its chunk, so the
    memory does not grow with ``n_samples``.
    """
    counts, total = [0] * len(boxes), 0
    for sols in _solution_chunks(sys, n_samples, seed, "random"):
        if not sols:
            continue
        stack = np.stack(sols)
        total += len(sols)
        for k, box in enumerate(boxes):
            counts[k] += int(box.contains_point(stack).sum())
    return counts, total


def residual_membership(
    sys: SylvesterSystem,
    X: np.ndarray,
) -> bool | np.ndarray:
    """Certified necessary condition for ``X`` to solve some member system.

    Evaluates ``F - A X B - C X D`` over the association orders of the two
    products; a genuine member solution passes every variant, so a False
    answer rigorously excludes ``X`` from the united solution set.  A pair
    with a point scalar coefficient ``c I``, ``c`` a power of two, takes one
    order, since the product by it is the exact scaling that ``im_matmul``
    applies (see :func:`_pair_products`); a general pair takes both.  So one
    box is formed per pair of products, four for general coefficients, two
    when ``C = D = I``, one when ``B = C = I``, and each box is bit for bit
    the interval subtraction ``F - left - right`` of its products as
    ``im_matmul`` forms them.  A non-finite box raises
    :class:`IntervalOverflowError`.

    A ``(k, m, n)`` stack of samples gives a boolean array, one answer per
    sample: the stack runs through the same products (see
    :func:`~sylvenc.intervals.im_matmul`), so on real data each answer, or
    the error, is the one of the call on that sample alone.
    """
    x = np.asarray(X)
    if x.ndim == 3:
        # validated and coerced as one tall matrix, then viewed as the stack
        tall = as_imatrix(x.reshape(-1, x.shape[-1]))
        xb = IMatrix._from_kernel(tall.mid.reshape(x.shape), tall.rad.reshape(x.shape))
    else:
        xb = as_imatrix(np.atleast_2d(x))
    if xb.mid.shape[-2:] != (sys.m, sys.n):
        raise ValueError("dimension mismatch")
    products = _residual_products(sys, xb)
    boxes = _boxes(sys.F, products)
    # im_matmul raised on a non-finite product; such a product makes both of its
    # boxes non-finite, and a non-finite box raises below before it answers.  So
    # an answer that saw every box needs no check of the products, and one that
    # rejects early checks them first.  The comparison is biased toward
    # acceptance: |mid| shrinks before it.
    if x.ndim != 3:
        for amid, rad in boxes:
            # a non-finite midpoint makes its radius non-finite too
            if not np.isfinite(rad).all():
                raise IntervalOverflowError("interval overflow")
            if not (_down(amid, 4) <= rad).all():
                _check_finite(products)
                return False
        return True
    # per sample, as alone: a non-finite box raises unless an earlier one rejected
    alive = np.ones(len(x), dtype=bool)
    for amid, rad in boxes:
        if (alive & ~np.isfinite(rad).all(axis=(1, 2))).any():
            raise IntervalOverflowError("interval overflow")
        alive &= (_down(amid, 4) <= rad).all(axis=(1, 2))
        if not alive.any():
            break
    if not alive.all():
        _check_finite(products)
    return alive


def _check_finite(products: tuple[list[tuple[np.ndarray, np.ndarray]], ...]) -> None:
    """:class:`IntervalOverflowError` unless every midpoint and radius of ``products`` is finite."""
    for mid, rad in itertools.chain(*products):
        if not (np.isfinite(mid).all() and np.isfinite(rad).all()):
            raise IntervalOverflowError("interval overflow")


def _residual_products(
    sys: SylvesterSystem, xb: IMatrix
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]]:
    """The distinct products of ``A X B`` and of ``C X D``, unchecked: one list per pair.

    ``X`` is prepared once and enters each product through the kernel of
    :func:`~sylvenc.intervals.im_matmul` (:func:`~sylvenc.intervals._product`)
    with no IMatrix between them; :func:`_pair_products` gives each pair's
    one or two products.  ``xb`` may hold a stack of samples.
    """
    x = _Operand(xb.mid, xb.rad)
    return _pair_products(sys.A, sys.B, x), _pair_products(sys.C, sys.D, x)


def _pair_products(t: IMatrix, u: IMatrix, x: _Operand) -> list[tuple[np.ndarray, np.ndarray]]:
    """Midpoints and radii of ``t X u`` over its association orders: one product, or two.

    A factor with a ``scale`` (the point ``c I``, ``c = +-2^e``) commutes
    with ``X``, so one order serves: ``(t X) u`` when ``u`` has one, else
    ``t (X u)``.  The core scales the inner product by it exactly wherever
    that holds, with no operand for the inner product, so a pair of such
    factors makes no product at all.  Otherwise both chains ``(t X) u`` and
    ``t (X u)`` are formed.  Every product has ``im_matmul``'s bits, and on
    a stack each sample's those of the call on it alone.

    A non-finite entry of an inner product (``t X``, say) enters the outer
    one through every entry of its row or column, and an IEEE operation on an
    infinity or a NaN gives one again; an exact scaling keeps it too.  So the
    products returned are non-finite wherever ``im_matmul`` would have
    raised on one the chains form.
    """
    t_op, u_op = _Operand(t.mid, t.rad), _Operand(u.mid, u.rad)
    if u_op.scale is not None:
        return [_product(_product(t_op, x), u_op)]
    if t_op.scale is not None:
        return [_product(t_op, _product(x, u_op))]
    return [
        _product(_Operand(*_product(t_op, x)), u_op),
        _product(t_op, _Operand(*_product(x, u_op))),
    ]


def _boxes(
    F: IMatrix,
    products: tuple[list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The boxes ``F - left - right``, one per distinct pair of :func:`_residual_products`."""
    lefts, rights = products
    # interval subtraction's operations and pad rule, F - left formed once per
    # left and no IMatrix per box; the product by -1.0 is the one subtraction
    # uses, so even the signs of zero midpoints match.  A (2, 2, m, n) broadcast
    # of the four boxes was slower at m = 400, where its temporaries leave cache.
    neg_right = [(-1.0 * rmid, rrad) for rmid, rrad in rights]
    for left_mid, left_rad in lefts:
        lmid = F.mid + -1.0 * left_mid
        lrad = F.rad + left_rad
        _pad_rad(lrad, np.abs(lmid), out=lrad)
        for rmid, rrad in neg_right:
            amid = np.abs(lmid + rmid)
            rad = lrad + rrad
            yield amid, _pad_rad(rad, amid.copy(), out=rad)
