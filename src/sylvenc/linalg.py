"""Dense point linear algebra used by the enclosure pipelines.

Thin wrappers around LAPACK via numpy/scipy, plus the column-stacking vec
conventions, the test ``rho(|I - P A|) < 1`` that proves point factors
nonsingular, and an interval enclosure of a matrix inverse (no solver
calls it: the preconditioners multiply by point factors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EigenDecompositionError, SingularMatrixError, SizeCapError
from .intervals import IMatrix, _up, im_matmul

__all__ = [
    "lu_solve",
    "lu_inverse",
    "EigResult",
    "eig_decompose",
    "kron",
    "vec",
    "unvec",
    "inverse_enclosure",
]

# bytes one Kronecker product may allocate for its result (1 GiB), and the
# budget of ver's whole solve (baseline._ver_bytes)
KRON_BYTES = 2**30


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by LU with partial pivoting; raises on singular input."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular matrix") from exc


def lu_inverse(a: np.ndarray) -> np.ndarray:
    """Floating inverse of ``a`` by one LU factorization inverted in place.

    LAPACK ``getrf`` then ``getri``: no right-hand side ``I`` is formed or
    solved against.  ``a`` is consumed: a Fortran-ordered ``a`` of LAPACK's
    dtype is factored and inverted in its own buffer, which the result then
    shares; any other ``a`` is copied first.  Callers that still need ``a``
    pass a copy.  The result is Fortran-ordered, as ``getri`` leaves it; the
    inverse of ``a.T``, transposed, is a C-ordered inverse of ``a`` in
    ``a``'s buffer.  An exactly zero pivot raises :class:`SingularMatrixError`.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dimension mismatch")
    getrf, getri, getri_lwork = scipy.linalg.lapack.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (a,)
    )
    lu, piv, info = getrf(a, overwrite_a=True)
    if info == 0:
        lwork, info = getri_lwork(a.shape[0])
        inv, info = getri(lu, piv, lwork=int(lwork.real), overwrite_lu=True)
    if info != 0:
        raise SingularMatrixError("singular matrix")
    return inv


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition ``a @ vectors = vectors @ diag(values)``.

    ``inv_vectors`` is the LU-based approximate inverse of ``vectors``.
    """

    values: np.ndarray
    vectors: np.ndarray
    inv_vectors: np.ndarray


def _even_scale(a: np.ndarray) -> float:
    """The power of four, within the normal range, that brings ``max |a|`` into ``[1/4, 1)``."""
    amax = float(np.abs(a).max()) if a.size else 0.0
    if not 0.0 < amax < math.inf:
        return 1.0
    return 2.0 ** min(max(-2 * ((math.frexp(amax)[1] + 1) // 2), -1022), 1022)


def eig_decompose(a: np.ndarray) -> EigResult:
    """Dense eigendecomposition with unit-norm columns and their LU inverse.

    LAPACK's rounding is not scale-equivariant, so ``a`` is first scaled
    exactly by :func:`_even_scale`: ``a`` and ``4**j a`` then give the same
    eigenvectors bit for bit, and the eigenvalues are scaled back.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dimension mismatch")
    s = _even_scale(a)
    try:
        values, vectors = np.linalg.eig(a * s)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError("eigendecomposition failed") from exc
    values /= s
    inv_vectors = lu_solve(vectors, np.eye(a.shape[0], dtype=vectors.dtype))
    return EigResult(values, vectors, inv_vectors)


def _check_kron_bytes(x_shape, y_shape, itemsize: int) -> None:
    """Refuse a Kronecker product of ``itemsize`` bytes per entry above ``KRON_BYTES``."""
    entries = x_shape[0] * y_shape[0] * x_shape[1] * y_shape[1]
    if entries * itemsize > KRON_BYTES:
        raise SizeCapError("kron result exceeds the byte budget")


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-D arrays by one broadcast product, the same rounding per entry."""
    (p, q), (r, s) = a.shape, b.shape
    # C order whatever the operands' layouts, so the reshape copies nothing
    return np.multiply(a[:, None, :, None], b[None, :, None, :], order="C").reshape(p * r, q * s)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Point Kronecker product, refused above ``KRON_BYTES`` before allocating."""
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    _check_kron_bytes(a.shape, b.shape, np.result_type(a, b).itemsize)
    return _kron2(a, b)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    x = np.atleast_2d(np.asarray(x))
    return x.reshape(-1, order="F")


def unvec(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an ``m x n`` target."""
    x = np.asarray(x)
    if x.size != m * n:
        raise ValueError("dimension mismatch")
    return x.reshape((m, n), order="F")


def ivec(x: IMatrix) -> IMatrix:
    """Column-stacking vec of an interval matrix (mn x 1)."""
    return IMatrix(vec(x.mid)[:, None], vec(x.rad)[:, None])


def iunvec(x: IMatrix, m: int, n: int) -> IMatrix:
    return IMatrix(unvec(x.mid.ravel(), m, n), unvec(x.rad.ravel(), m, n))


def _near_identity(p, a) -> tuple[IMatrix, float]:
    """The interval product ``G = p a`` and ``rho = || |I - G| ||_inf``, proved below one.

    ``p`` and ``a`` are square point factors, as arrays or prepared
    operands.  ``rho`` is bounded outward; ``rho < 1`` proves ``p a``, and
    so ``p`` and ``a``, nonsingular.  Raises :class:`SingularMatrixError`
    otherwise.
    """
    g = im_matmul(p, a)
    n = g.rows
    gmag = np.abs(np.eye(n) - g.mid) + g.rad
    rho = _up(float(gmag.sum(axis=1).max()), n + 2)
    if not rho < 1.0:
        raise SingularMatrixError("singular matrix: rho(|I - P A|) is not below 1")
    return g, rho


def inverse_enclosure(a: np.ndarray) -> IMatrix:
    """Rigorous interval enclosure of the exact inverse of a point matrix.

    With ``R0`` the LU-based approximate inverse and ``rho`` the bound of
    :func:`_near_identity` on ``|I - R0 a|`` below one,
    ``|a^-1 - R0| <= colmax|R0| * rho / (1 - rho)`` entrywise (the Neumann
    tail of ``sum G^k R0``).  Raises when ``rho`` is not below one.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("dimension mismatch")
    r0 = lu_solve(a, np.eye(n, dtype=a.dtype))
    _, rho = _near_identity(r0, a)
    colmax = np.abs(r0).max(axis=0)
    tail = _up(rho / (1.0 - rho), 6)
    delta = _up(np.broadcast_to(colmax * tail, (n, n)), 2)
    return IMatrix(r0, delta)
