"""Spectral preconditioning of the interval equation A X B + C X D = F.

The midpoint pairs (mid A, mid C) and (mid B, mid D) are conjugated into
(approximately) diagonal form by shared eigenbases U and V.  Each distinct
midpoint is decomposed once per transform, and a scalar midpoint ``c I``
takes the exact basis ``I`` without an eigensolver call.  Off-diagonal
midpoint mass of the transformed coefficients is moved into the radii, so the
transformed midpoints are exactly diagonal; validity never depends on how well
the pair actually commutes, only tightness does.

Which member of a pair donates its basis is decided by the off-diagonal mass
each candidate basis leaves.  A distinct non-scalar pair is scored by point
products before conjugating.  Equal midpoints need no scoring (the first
donates), and a pair with a scalar member is scored from the sandwich
midpoints ``(Uinv @ mid) @ U`` that the transform forms anyway, the same
float products, unless the other member's eigenbasis has no certified
inverse; then both bases are scored by point products.  The diagonals of the
non-donor and the reported masses are read from the sandwich midpoints.

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
from typing import NamedTuple

import numpy as np

from .errors import EigenDecompositionError, SingularMatrixError, SingularPreconditionerError
from .intervals import (
    IMatrix,
    SINGULAR_REL,
    _diagonal,
    _quot_rad,
    _slack,
    _up,
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


def _scalar(a: np.ndarray) -> bool:
    """Whether ``a`` is a scalar matrix ``c I``."""
    d = _diagonal(a)
    return d is not None and d.size > 0 and bool((d == d[0]).all())


def _eigen(a: np.ndarray) -> EigResult:
    """``eig_decompose(a)``, or the exact basis ``I`` when ``a`` is a scalar matrix ``c I``."""
    if _scalar(a):
        d = np.diagonal(a)
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

    @property
    def m(self) -> int:
        return self.Ap.rows

    @property
    def n(self) -> int:
        return self.Bp.rows


def _sandwich(left_box: IMatrix, mid: IMatrix, right: np.ndarray) -> IMatrix:
    """Enclosure of ``left * M * right`` for exact ``left`` in its box.

    Each of the two interval products takes a midpoint product and two real
    radius products.
    """
    return im_matmul(im_matmul(left_box, mid), as_imatrix(right))


def _project_pattern(x: IMatrix, mask: np.ndarray) -> IMatrix:
    """Move the midpoint mass of ``x`` off the pattern ``mask`` into its radii.

    The radius sum ``rad + |off|`` is padded, so off-pattern mass far below an
    ulp of the radius still widens it.  mkw projects on the diagonal, blk on
    its block pattern.
    """
    off = np.where(mask, 0.0, x.mid)
    mid = np.where(mask, x.mid, 0.0)
    return IMatrix(mid, _up(x.rad + np.abs(off), 2))


def _pick_side(first: np.ndarray, second: np.ndarray, eig_of) -> tuple[EigResult, bool]:
    """Choose which member of a midpoint pair donates the eigenbasis.

    Scores each candidate basis by the larger relative off-diagonal mass it
    leaves on either conjugated midpoint; smaller is better, ties keep the
    first member.  ``eig_of`` supplies the eigendecompositions.  Returns the
    decomposition of the winning donor and whether the pair was swapped.
    """
    candidates: list[tuple[float, bool, EigResult]] = []
    for swapped, (p, q) in ((False, (first, second)), (True, (second, first))):
        try:
            eig = eig_of(p)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = simultaneous_diag(p, q, eig)
        except (EigenDecompositionError, SingularMatrixError):
            continue
        own = _offdiag_rel(res.Uinv @ p @ res.U, p)
        candidates.append((max(own, res.offdiag_mass), swapped, eig))
    if not candidates:
        raise EigenDecompositionError("eigendecomposition failed")
    _, swapped, eig = min(candidates, key=lambda t: (t[0], t[1]))
    return eig, swapped


class _Side(NamedTuple):
    """One side of the transform: a shared basis and both conjugated members."""

    U: np.ndarray
    Uinv: np.ndarray
    inv_box: IMatrix
    donor: int
    conj: tuple[IMatrix, IMatrix]
    d: tuple[np.ndarray, np.ndarray]
    mass: tuple[float, float]


def _conjugate(pair: tuple[IMatrix, IMatrix], eig: EigResult, swapped: bool) -> _Side:
    """Both members of ``pair`` in the basis of the donor ``pair[swapped]``.

    The donor's diagonal is its eigenvalues; the other member's diagonal and
    both off-diagonal masses are read from the sandwich midpoints
    ``(Uinv @ mid) @ U``, the products the scoring forms.
    """
    U, Uinv, donor = eig.vectors, eig.inv_vectors, int(swapped)
    inv_box = inverse_enclosure(U, r0=Uinv)
    raw = tuple(_sandwich(inv_box, x, U) for x in pair)
    d = tuple(eig.values if i == donor else np.diag(r.mid).copy() for i, r in enumerate(raw))
    mass = tuple(_offdiag_rel(r.mid, x.mid) for r, x in zip(raw, pair))
    diagonal = np.eye(U.shape[0], dtype=bool)
    conj = tuple(_project_pattern(r, diagonal) for r in raw)
    return _Side(U, Uinv, inv_box, donor, conj, d, mass)


def _pair_kind(first: np.ndarray, second: np.ndarray) -> str:
    """``"equal"``, ``"scalar"`` (a member is ``c I``) or ``"general"``."""
    if first.dtype == second.dtype and np.array_equal(first, second):
        return "equal"
    if _scalar(first) or _scalar(second):
        return "scalar"
    return "general"


def _transform_side(pair: tuple[IMatrix, IMatrix], eig_of) -> _Side:
    """The transformed side of ``pair``, with the donor the scoring would choose.

    Equal midpoints score equal candidates, so the first member donates.  A
    scalar member ``c I`` is diagonal in every basis: its own basis ``I``
    scores the other member's relative off-diagonal mass, which needs no
    product, and the other member's eigenbasis scores the masses its
    sandwich midpoints leave.  So that basis is tried first and kept when it
    wins.  A distinct non-scalar pair is scored before conjugating, and so is
    a scalar pair whose other member has no eigenbasis with a certified
    inverse: the scoring then raises the certificate's error when that basis
    wins, and conjugates with ``I`` when it loses.
    """
    first, second = (x.mid for x in pair)
    kind = _pair_kind(first, second)
    if kind == "equal":
        try:
            eig = eig_of(first)
        except SingularMatrixError as exc:
            raise EigenDecompositionError("eigendecomposition failed") from exc
        return _conjugate(pair, eig, False)
    if kind == "general":
        return _conjugate(pair, *_pick_side(first, second, eig_of))
    s = 0 if _scalar(first) else 1
    other = pair[1 - s].mid
    try:
        side = _conjugate(pair, eig_of(other), s == 0)
    except (EigenDecompositionError, SingularMatrixError):
        # no eigenbasis, or no certified inverse of it: score both bases by
        # their point products, which raises the certificate's error again
        # exactly when that basis wins
        return _conjugate(pair, *_pick_side(first, second, eig_of))
    # as in the scoring, a tie goes to the first member's basis
    scalar_score = _offdiag_rel(other, other)
    if max(side.mass) < scalar_score or (max(side.mass) == scalar_score and s == 1):
        return side
    return _conjugate(pair, eig_of(pair[s].mid), s == 1)


def _diag_defect(a, b, c, d, S) -> np.ndarray:
    """Upper bound of ``|1 - (a_i b_j + c_i d_j) / S_ij|`` for stored floats."""
    t_mid = np.outer(a, b) + np.outer(c, d)
    t_mag = np.outer(np.abs(a), np.abs(b)) + np.outer(np.abs(c), np.abs(d))
    q_mid = t_mid / S
    q_rad = _quot_rad(_slack(t_mag, 12), np.abs(S))
    q_rad += _slack(np.abs(q_mid), 6)
    return _up(np.abs(1.0 - q_mid) + q_rad, 4)


def transform_enclose(sys: SylvesterSystem) -> PrecondSystem:
    """Build the diagonalized interval system for ``sys``.

    Raises the underlying eigendecomposition/singularity errors when no usable
    basis exists; large non-commutativity only widens radii and warns.
    """
    eig_of = _eig_memo()
    left = _transform_side((sys.A, sys.C), eig_of)
    right = _transform_side((sys.B, sys.D), eig_of)
    for side in (left, right):
        other_mass = side.mass[1 - side.donor]
        if other_mass > OFFDIAG_WARN:
            warnings.warn(
                f"pair is far from commuting: off-diagonal mass {other_mass:.2e} "
                "will be absorbed into radii",
                stacklevel=2,
            )
    Ap, Cp = left.conj
    Bp, Dp = right.conj
    Fp = _sandwich(left.inv_box, sys.F, right.U)
    dA, dC = left.d
    dB, dD = right.d
    S = build_S(dA, dB, dC, dD)

    a, c = np.diag(Ap.mid), np.diag(Cp.mid)
    b, d = np.diag(Bp.mid), np.diag(Dp.mid)
    sdefect = _diag_defect(a, b, c, d, S)

    mass = {"A": left.mass[0], "C": left.mass[1], "B": right.mass[0], "D": right.mass[1]}

    return PrecondSystem(
        Ap=Ap, Bp=Bp, Cp=Cp, Dp=Dp, Fp=Fp,
        U=left.U, Uinv=left.Uinv, V=right.U, Vinv=right.Uinv,
        dA=dA, dB=dB, dC=dC, dD=dD, S=S,
        offdiag_mass=mass,
        uinv_box=left.inv_box, vinv_box=right.inv_box,
        sdefect=sdefect,
    )
