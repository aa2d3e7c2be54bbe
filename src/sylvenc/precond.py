"""Spectral preconditioning of the interval equation A X B + C X D = F.

The midpoint pairs (mid A, mid C) and (mid B, mid D) are conjugated into
(approximately) diagonal form by shared eigenbases U and V.  Each distinct
midpoint is decomposed once per transform, and a scalar midpoint ``c I``
takes the exact basis ``I`` without an eigensolver call.  Off-diagonal
midpoint mass of the transformed coefficients is moved into the radii, so the
transformed midpoints are exactly diagonal; validity never depends on how well
the pair actually commutes, only tightness does.

The exact inverses of U and V are not representable in floating point, so
interval enclosures of them (point inverse plus a certified residual pad) are
used on the left of every transform product.  The entrywise denominators
S_ij = dA_i dB_j + dC_i dD_j of the diagonalized system are screened against
near-zero entries, and a rigorous bound on the relative defect between S and
the exact products of the stored transformed diagonals is kept for the
verification step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EigenDecompositionError, SingularMatrixError, SingularPreconditionerError
from .intervals import (
    DEFAULT_POLICY,
    IMatrix,
    RoundingPolicy,
    SINGULAR_REL,
    _diagonal,
    _pol,
    as_imatrix,
    im_matmul,
)
from .linalg import EigResult, eig_decompose, inverse_enclosure
from .system import SylvesterSystem

__all__ = [
    "SimDiagResult",
    "PrecondSystem",
    "simultaneous_diag",
    "transform_enclose",
    "build_S",
]

OFFDIAG_WARN = 1e-2


@dataclass(frozen=True)
class SimDiagResult:
    """Shared eigenbasis for a matrix pair.

    ``U`` diagonalizes the first matrix (eigenvalues ``dA``); the second is
    conjugated into the same basis and its diagonal is read off as ``dC``.
    ``offdiag_mass`` is the relative inf-norm of what the conjugation leaves
    off the diagonal of the second matrix; ``commutator`` is the Frobenius
    norm of the pair's commutator, computed on first access because no
    solver reads it.
    """

    U: np.ndarray
    Uinv: np.ndarray
    dA: np.ndarray
    dC: np.ndarray
    offdiag_mass: float
    pair: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def commutator(self) -> float:
        a, c = self.pair
        return float(np.linalg.norm(a @ c - c @ a))


def _offdiag_rel(conj: np.ndarray, ref: np.ndarray) -> float:
    ref_norm = float(np.abs(ref).sum(axis=1).max()) if ref.size else 0.0
    if ref_norm == 0.0:
        return 0.0
    off = conj - np.diag(np.diag(conj))
    return float(np.abs(off).sum(axis=1).max()) / ref_norm


def _eigen(a: np.ndarray) -> EigResult:
    """``eig_decompose(a)``, or the exact basis ``I`` when ``a`` is a scalar matrix ``c I``."""
    d = _diagonal(a)
    if d is not None and d.size and (d == d[0]).all():
        n = a.shape[0]
        return EigResult(d.copy(), np.eye(n, dtype=a.dtype), np.eye(n, dtype=a.dtype), a)
    return eig_decompose(a)


def _eig_memo():
    """:func:`_eigen` that decomposes each distinct matrix once over the memo's lifetime."""
    seen: list[tuple[np.ndarray, EigResult]] = []

    def eig_of(a: np.ndarray) -> EigResult:
        for b, res in seen:
            if b.dtype == a.dtype and np.array_equal(a, b):
                return res
        res = _eigen(a)
        seen.append((a, res))
        return res

    return eig_of


def simultaneous_diag(
    Ac: np.ndarray, Cc: np.ndarray, eig: EigResult | None = None
) -> SimDiagResult:
    """Diagonalize ``Ac`` and conjugate ``Cc`` into the same eigenbasis.

    ``eig`` passes an eigendecomposition of ``Ac`` already at hand.
    """
    Ac = np.atleast_2d(np.asarray(Ac))
    Cc = np.atleast_2d(np.asarray(Cc))
    if Ac.shape != Cc.shape or Ac.shape[0] != Ac.shape[1]:
        raise ValueError("dimension mismatch")
    if eig is None:
        eig = _eigen(Ac)
    conj = eig.inv_vectors @ Cc @ eig.vectors
    mass = _offdiag_rel(conj, Cc)
    if mass > OFFDIAG_WARN:
        warnings.warn(
            f"pair is far from commuting: off-diagonal mass {mass:.2e} "
            "will be absorbed into radii",
            stacklevel=2,
        )
    dC = np.diag(conj).copy()
    return SimDiagResult(eig.vectors, eig.inv_vectors, eig.values, dC, mass, (Ac, Cc))


def build_S(dA, dB, dC, dD) -> np.ndarray:
    """Entrywise denominators ``S_ij = dB_j dA_i + dD_j dC_i`` with screening."""
    dA, dB, dC, dD = (np.asarray(v).ravel() for v in (dA, dB, dC, dD))
    if dA.shape != dC.shape or dB.shape != dD.shape:
        raise ValueError("dimension mismatch")
    S = np.outer(dA, dB) + np.outer(dC, dD)
    absS = np.abs(S)
    smax = absS.max() if absS.size else 0.0
    if smax == 0.0 or (absS < SINGULAR_REL * smax).any():
        raise SingularPreconditionerError("singular preconditioner entry")
    return S


@dataclass(frozen=True)
class PrecondSystem:
    """Transformed interval system with exactly diagonal midpoints."""

    Ap: IMatrix
    Bp: IMatrix
    Cp: IMatrix
    Dp: IMatrix
    Fp: IMatrix
    U: np.ndarray
    Uinv: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    dA: np.ndarray
    dB: np.ndarray
    dC: np.ndarray
    dD: np.ndarray
    S: np.ndarray
    offdiag_mass: dict = field(default_factory=dict)
    uinv_box: IMatrix | None = None
    vinv_box: IMatrix | None = None
    sdefect: np.ndarray | None = None
    policy: RoundingPolicy = DEFAULT_POLICY

    @property
    def m(self) -> int:
        return self.Ap.rows

    @property
    def n(self) -> int:
        return self.Bp.rows


def _sandwich(left_box: IMatrix, mid: IMatrix, right: np.ndarray, policy) -> IMatrix:
    """Enclosure of ``left * M * right`` for exact ``left`` in its box."""
    return im_matmul(im_matmul(left_box, mid, policy), as_imatrix(right), policy)


def _symmetrize_diag(x: IMatrix, policy) -> IMatrix:
    """Move off-diagonal midpoint mass into the radii; midpoint becomes diagonal."""
    eta = _pol(policy).eta
    d = np.diag(np.diag(x.mid))
    off = x.mid - d
    rad = x.rad + np.abs(off) * (1.0 + 2.0 * eta)
    return IMatrix(d, rad)


def _pick_side(
    first: np.ndarray, second: np.ndarray, eig_of
) -> tuple[SimDiagResult, bool, tuple[float, float]]:
    """Choose which member of a midpoint pair donates the eigenbasis.

    Scores each candidate basis by the larger relative off-diagonal mass it
    leaves on either conjugated midpoint; smaller is better, ties keep the
    first member.  ``eig_of`` supplies the eigendecompositions.  Returns the
    decomposition of the winning donor, whether the pair was swapped, and the
    off-diagonal masses the winning basis leaves on ``first`` and ``second``.
    """
    candidates: list[tuple[float, bool, SimDiagResult, float]] = []
    for swapped, (p, q) in ((False, (first, second)), (True, (second, first))):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = simultaneous_diag(p, q, eig_of(p))
        except (EigenDecompositionError, SingularMatrixError):
            continue
        own = _offdiag_rel(res.Uinv @ p @ res.U, p)
        score = max(own, res.offdiag_mass)
        candidates.append((score, swapped, res, own))
    if not candidates:
        raise EigenDecompositionError("eigendecomposition failed")
    candidates.sort(key=lambda t: (t[0], t[1]))
    _, swapped, res, own = candidates[0]
    if res.offdiag_mass > OFFDIAG_WARN:
        warnings.warn(
            f"pair is far from commuting: off-diagonal mass {res.offdiag_mass:.2e} "
            "will be absorbed into radii",
            stacklevel=3,
        )
    masses = (res.offdiag_mass, own) if swapped else (own, res.offdiag_mass)
    return res, swapped, masses


def _diag_defect(a, b, c, d, S, policy) -> np.ndarray:
    """Upper bound of ``|1 - (a_i b_j + c_i d_j) / S_ij|`` for stored floats."""
    eta = _pol(policy).eta
    t_mid = np.outer(a, b) + np.outer(c, d)
    t_mag = np.outer(np.abs(a), np.abs(b)) + np.outer(np.abs(c), np.abs(d))
    t_rad = 12.0 * eta * t_mag
    absS = np.abs(S) * (1.0 - 2.0 * eta)
    q_mid = t_mid / S
    q_rad = (t_rad / absS) * (1.0 + 2.0 * eta) + 6.0 * eta * np.abs(q_mid)
    return (np.abs(1.0 - q_mid) + q_rad) * (1.0 + 4.0 * eta)


def transform_enclose(sys: SylvesterSystem, policy: RoundingPolicy | None = None) -> PrecondSystem:
    """Build the diagonalized interval system for ``sys``.

    Raises the underlying eigendecomposition/singularity errors when no usable
    basis exists; large non-commutativity only widens radii and warns.
    """
    pol = _pol(policy)
    eig_of = _eig_memo()
    left, lswap, (mass_a, mass_c) = _pick_side(sys.A.mid, sys.C.mid, eig_of)
    right, rswap, (mass_b, mass_d) = _pick_side(sys.B.mid, sys.D.mid, eig_of)

    U, V = left.U, right.U
    uinv_box = inverse_enclosure(U, pol, r0=left.Uinv)
    vinv_box = inverse_enclosure(V, pol, r0=right.Uinv)

    Ap = _symmetrize_diag(_sandwich(uinv_box, sys.A, U, pol), pol)
    Cp = _symmetrize_diag(_sandwich(uinv_box, sys.C, U, pol), pol)
    Bp = _symmetrize_diag(_sandwich(vinv_box, sys.B, V, pol), pol)
    Dp = _symmetrize_diag(_sandwich(vinv_box, sys.D, V, pol), pol)
    Fp = _sandwich(uinv_box, sys.F, V, pol)

    dA, dC = (left.dC, left.dA) if lswap else (left.dA, left.dC)
    dB, dD = (right.dC, right.dA) if rswap else (right.dA, right.dC)
    S = build_S(dA, dB, dC, dD)

    a, c = np.diag(Ap.mid), np.diag(Cp.mid)
    b, d = np.diag(Bp.mid), np.diag(Dp.mid)
    sdefect = _diag_defect(a, b, c, d, S, pol)

    mass = {"A": mass_a, "C": mass_c, "B": mass_b, "D": mass_d}

    return PrecondSystem(
        Ap=Ap, Bp=Bp, Cp=Cp, Dp=Dp, Fp=Fp,
        U=U, Uinv=left.Uinv, V=V, Vinv=right.Uinv,
        dA=dA, dB=dB, dC=dC, dD=dD, S=S,
        offdiag_mass=mass,
        uinv_box=uinv_box, vinv_box=vinv_box,
        sdefect=sdefect, policy=pol,
    )
