"""Dense reference lane on the vectorized normal form, plus the audit layer.

Stacking columns turns the two-sided equation into an ordinary interval
linear system ``Q vec(X) = vec(F)`` with

    Q = transpose(B) kron A + transpose(D) kron C,

built entrywise from disk products, so no structure is exploited and the
memory cost is ``(m n)^2`` intervals.  On this form the module offers a
verified full-size Krawczyk solve (method id ``ver``) used to cross check
the structured solver on small problems; it refuses problems above a
configurable ``m * n`` cap since the explicit Kronecker matrix grows with
the fourth power of the dimension.

The audit layer checks enclosures against members of the interval system:

* floating-point solutions of member point systems (``point_solve``,
  ``sample_solutions``): on the Kronecker form for small ``m n`` only, and
  above that by the QZ-based generalized Bartels-Stewart method in cubic
  time and quadratic memory, and
* a certified necessary condition for membership of a point matrix in the
  united solution set (``residual_membership``).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrtrs as _trtrs

from .errors import IntervalOverflowError, SingularMatrixError, SizeCapError
from .intervals import (
    IMatrix,
    RoundingPolicy,
    _pol,
    as_imatrix,
    im_matmul,
    posmm,
)
from .krawczyk import FAILURE_MESSAGE, Enclosure, verification_loop
from .linalg import ikron, iunvec, ivec, kron, lu_solve, unvec, vec
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
# point_solve: Kronecker LU up to this many unknowns m n, QZ recurrence above;
# the two cost the same near m n = 225 (m = n = 15) on one BLAS thread
_KRON_MAX_UNKNOWNS = 225
VERTEX_ENUM_LIMIT = 12


@dataclass(frozen=True)
class KronSystem:
    """Vectorized form ``Q vec(X) = f`` plus an approximate inverse of mid Q."""

    Q: IMatrix
    f: IMatrix
    R: np.ndarray
    m: int
    n: int


def _check_cap(sys: SylvesterSystem, cap: int | None) -> None:
    if cap is not None and sys.m * sys.n > cap:
        raise SizeCapError("baseline size cap")


def build_Q_kron(
    sys: SylvesterSystem,
    policy: RoundingPolicy | None = None,
    cap: int | None = BASELINE_CAP,
) -> KronSystem:
    """Assemble the explicit interval Kronecker system for ``sys``."""
    pol = _pol(policy)
    _check_cap(sys, cap)
    Q = ikron(sys.B.T, sys.A, pol) + ikron(sys.D.T, sys.C, pol)
    f = ivec(sys.F)
    R = lu_solve(Q.mid, np.eye(Q.rows, dtype=Q.mid.dtype))
    return KronSystem(Q=Q, f=f, R=R, m=sys.m, n=sys.n)


def full_krawczyk_solve(
    sys: SylvesterSystem,
    kmax: int = 15,
    policy: RoundingPolicy | None = None,
    cap: int | None = BASELINE_CAP,
) -> Enclosure:
    """Verified enclosure by a Krawczyk iteration on the full ``m n`` system.

    ``R`` is a floating inverse of the midpoint matrix; the candidate image is
    ``M + (I - R Q) Z`` for symmetric boxes ``Z``, checked for strict interior
    containment exactly as in the structured solver.
    """
    pol = _pol(policy)
    ks = build_Q_kron(sys, pol, cap)
    m, n = ks.m, ks.n
    rbox = as_imatrix(ks.R)
    xcol = ks.R @ ks.f.mid
    # one step of iterative refinement on the midpoint solution
    xcol = xcol + ks.R @ (ks.f.mid - ks.Q.mid @ xcol)
    M = im_matmul(rbox, ks.f - im_matmul(ks.Q, as_imatrix(xcol), pol), pol)
    W = as_imatrix(np.eye(m * n, dtype=ks.Q.mid.dtype)) - im_matmul(rbox, ks.Q, pol)
    wmag = W.mag(pol)

    def n_of(xrad: np.ndarray) -> IMatrix:
        return IMatrix(np.zeros_like(M.mid), posmm(wmag, xrad, pol))

    verified, X, H, iters = verification_loop(M, n_of, kmax, pol)
    if verified:
        evaluated = iunvec(as_imatrix(xcol) + H, m, n)
        message = ""
    else:
        evaluated = None
        message = FAILURE_MESSAGE
    return Enclosure(
        Xtilde=unvec(xcol, m, n),
        Xbox=iunvec(X, m, n),
        U=np.eye(m),
        Vinv=np.eye(n),
        evaluated=evaluated,
        verified=verified,
        iterations=iters,
        method="ver",
        message=message,
        Hbox=iunvec(H, m, n),
        precond=None,
        resid_box=iunvec(M, m, n),
    )


def point_solve(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    F: np.ndarray,
) -> np.ndarray:
    """Floating solution of a point equation ``A X B + C X D = F``.

    Up to ``m n = 225`` unknowns it solves the vectorized Kronecker system by
    LU; above, where that ``(m n)^2`` matrix costs more than the QZ
    factorizations, by the generalized Bartels-Stewart method in
    ``O(m^3 + n^3)`` time and ``O(m^2 + n^2)`` memory.  Either way one step
    of iterative refinement follows.  Real input gives a real result.  A
    singular member (an exactly zero pivot, or a non-finite result) raises
    :class:`SingularMatrixError`.
    """
    A, B, C, D, F = (np.atleast_2d(np.asarray(t)) for t in (A, B, C, D, F))
    m, n = F.shape
    if A.shape != (m, m) or C.shape != (m, m) or B.shape != (n, n) or D.shape != (n, n):
        raise ValueError("dimension mismatch")
    solve = _kron_point_solve if m * n <= _KRON_MAX_UNKNOWNS else _qz_point_solve
    X = solve(A, B, C, D, F)
    if not np.isfinite(X).all():
        raise SingularMatrixError("singular matrix: non-finite member solution")
    return X


def _kron_point_solve(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """LU on ``(B^T kron A + D^T kron C) vec(X) = vec(F)``, one refinement step.

    The refinement step reuses the factorization.
    """
    m, n = F.shape
    Q = kron(B.T, A) + kron(D.T, C)
    f = vec(F)
    getrf, getrs = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs"), (Q, f))
    lu, piv, info = getrf(Q)
    if info > 0:
        raise SingularMatrixError("singular matrix")
    x = getrs(lu, piv, f)[0]
    x = x + getrs(lu, piv, f - Q @ x)[0]
    return unvec(x, m, n)


def _qz_point_solve(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """Generalized Bartels-Stewart solve (Gardiner, Laub, Amato and Moler, 1992).

    Complex QZ gives ``A = Q1 S1 Z1^H, C = Q1 T1 Z1^H`` and
    ``B^T = Q2 S2 Z2^H, D^T = Q2 T2 Z2^H`` with ``S*, T*`` upper triangular,
    so ``Y = Z1^H X conj(Z2)`` solves ``S1 Y S2^T + T1 Y T2^T = Q1^H F conj(Q2)``.
    Column ``k`` of that equation involves only columns ``k..n-1`` of ``Y``:
    from the last column to the first, each is one triangular solve with
    ``S2[k, k] S1 + T2[k, k] T1``.  The refinement step reuses the factors.
    """
    S1, T1, Q1, Z1 = _complex_qz(A, C)
    S2, T2, Q2, Z2 = _complex_qz(B.T, D.T)
    q1h, q2c, z2t = Q1.conj().T, Q2.conj(), Z2.T
    real = not any(np.iscomplexobj(t) for t in (A, B, C, D, F))

    def solve(rhs: np.ndarray) -> np.ndarray:
        Y = _triangular_pencil_solve(S1, T1, S2, T2, q1h @ rhs @ q2c)
        X = Z1 @ Y @ z2t
        return X.real if real else X

    X = solve(F)
    return X + solve(F - A @ X @ B - C @ X @ D)


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
    """Solve ``S1 Y S2^T + T1 Y T2^T = G`` for upper triangular ``S1, T1, S2, T2``."""
    m, n = G.shape
    Y = np.empty((m, n), dtype=np.complex128, order="F")
    # S1 Y and T1 Y, column by column as Y fills in
    SY = np.empty_like(Y)
    TY = np.empty_like(Y)
    for k in range(n - 1, -1, -1):
        rhs = G[:, k] - SY[:, k + 1 :] @ S2[k, k + 1 :] - TY[:, k + 1 :] @ T2[k, k + 1 :]
        y, info = _trtrs(S2[k, k] * S1 + T2[k, k] * T1, rhs)
        if info != 0:
            raise SingularMatrixError("singular matrix: zero pivot of the member pencil")
        Y[:, k] = y
        SY[:, k] = S1 @ y
        TY[:, k] = T1 @ y
    return Y


def _draw_member(mat: IMatrix, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from each entry's disk (interval for real data)."""
    if mat.is_real:
        return mat.mid + mat.rad * rng.uniform(-1.0, 1.0, size=mat.shape)
    radius = mat.rad * np.sqrt(rng.uniform(0.0, 1.0, size=mat.shape))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=mat.shape)
    return mat.mid + radius * np.exp(1j * angle)


def _vertex_member(mat: IMatrix, signs: np.ndarray) -> np.ndarray:
    return mat.mid + signs * mat.rad


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
    when there are at most 12 of them, random patterns otherwise.  Member
    systems that :func:`point_solve` finds singular are skipped with a
    warning.
    """
    if mode not in ("random", "vertex"):
        raise ValueError("mode must be 'random' or 'vertex'")
    rng = np.random.Generator(np.random.Philox(seed))
    mats = (sys.A, sys.B, sys.C, sys.D, sys.F)
    sign_sets: list[tuple[np.ndarray, ...]] = []
    if mode == "vertex":
        masks = [m.rad > 0 for m in mats]
        k = int(sum(m.sum() for m in masks))
        if k <= VERTEX_ENUM_LIMIT:
            patterns = itertools.product((-1.0, 1.0), repeat=k)
        else:
            patterns = (tuple(rng.choice((-1.0, 1.0), size=k)) for _ in range(n_samples))
        for pat in patterns:
            signs, pos = [], 0
            for mat, mask in zip(mats, masks):
                s = np.zeros(mat.shape)
                cnt = int(mask.sum())
                s[mask] = pat[pos : pos + cnt]
                pos += cnt
                signs.append(s)
            sign_sets.append(tuple(signs))

    out: list[np.ndarray] = []
    trials = sign_sets if mode == "vertex" else range(n_samples)
    for trial in trials:
        if mode == "vertex":
            members = [_vertex_member(m, s) for m, s in zip(mats, trial)]
        else:
            members = [_draw_member(m, rng) for m in mats]
        try:
            out.append(point_solve(*members))
        except SingularMatrixError:
            warnings.warn("skipping singular member system", RuntimeWarning, stacklevel=2)
    return out


def residual_membership(
    sys: SylvesterSystem,
    X: np.ndarray,
    policy: RoundingPolicy | None = None,
) -> bool:
    """Certified necessary condition for ``X`` to solve some member system.

    Evaluates ``F - A X B - C X D`` over all four association orders of the
    two products; a genuine member solution passes every variant, so a False
    answer rigorously excludes ``X`` from the united solution set.  The
    residual boxes are bit for bit those of interval subtraction
    ``F - left - right``; a non-finite one raises
    :class:`IntervalOverflowError`.
    """
    pol = _pol(policy)
    eta = pol.eta
    xb = as_imatrix(np.atleast_2d(np.asarray(X)))
    if xb.shape != (sys.m, sys.n):
        raise ValueError("dimension mismatch")
    axb_l = im_matmul(im_matmul(sys.A, xb, pol), sys.B, pol)
    axb_r = im_matmul(sys.A, im_matmul(xb, sys.B, pol), pol)
    cxd_l = im_matmul(im_matmul(sys.C, xb, pol), sys.D, pol)
    cxd_r = im_matmul(sys.C, im_matmul(xb, sys.D, pol), pol)
    # interval subtraction's operations and pads, F - left formed once per left
    # and no IMatrix per box; the product by -1.0 is the one subtraction uses,
    # so even the signs of zero midpoints match.  A (2, 2, m, n) broadcast of
    # the four boxes was slower at m = 400, where its temporaries leave cache.
    grow = 1.0 + 2.0 * eta
    neg_right = [(-1.0 * right.mid, right.rad) for right in (cxd_l, cxd_r)]
    for left in (axb_l, axb_r):
        lmid = sys.F.mid + -1.0 * left.mid
        lrad = (sys.F.rad + left.rad) * grow + 2.0 * eta * np.abs(lmid)
        for rmid, rrad in neg_right:
            mid = lmid + rmid
            amid = np.abs(mid)
            rad = (lrad + rrad) * grow + 2.0 * eta * amid
            # a non-finite midpoint makes its radius non-finite too
            if not np.isfinite(rad).all():
                raise IntervalOverflowError("interval overflow")
            # membership check biased toward acceptance: shrink |mid| before comparing
            if not (amid * (1.0 - 4.0 * eta) <= rad).all():
                return False
    return True
