"""Spectral preconditioning of the interval equation A X B + C X D = F.

The midpoint pairs (mid A, mid C) and (mid B, mid D) are conjugated into
(approximately) diagonal form by shared eigenbases U and V.  Each distinct
midpoint is decomposed once per transform, and a scalar midpoint ``c I``
takes the exact basis ``I`` without an eigensolver call.  Off-diagonal
midpoint mass of the transformed coefficients is moved into the radii, so the
transformed midpoints are exactly diagonal; validity never depends on how well
the pair actually commutes, only tightness does.

One rule, :func:`choose_donor`, picks the member of each pair that donates
the shared basis, here and in :mod:`.blockdiag`.  Each distinct member offers
its basis.  A non-scalar one is conjugated once, by the certified sandwich the
transform uses, and scores the larger mass either sandwich midpoint keeps off
the pattern; a scalar member ``c I`` offers ``I``, scores the other member's
own mass and is conjugated only when it wins.  A basis whose certificate fails
drops out; the lowest score wins, a tie keeps the first member.  Here mass is
the relative inf-norm off the diagonal, against the member.

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
from typing import Any, NamedTuple

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
    "PrecondSystem",
    "simultaneous_diag",
    "transform_enclose",
    "build_S",
]

OFFDIAG_WARN = 1e-2


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
        return EigResult(d.copy(), np.eye(n, dtype=a.dtype), np.eye(n, dtype=a.dtype))
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
    rad = np.abs(x.mid)
    rad[mask] = 0.0
    rad += x.rad
    return IMatrix(np.where(mask, x.mid, 0.0), _up(rad, 2, out=rad))


class Donor(NamedTuple):
    """Member ``index`` of a pair donates its basis ``U``, whose inverse
    ``inv_box`` certifies; ``form`` is what the preconditioner keeps of it,
    ``raw`` both members' sandwiches and ``mass`` their masses."""

    U: np.ndarray
    form: Any
    index: int
    inv_box: IMatrix
    raw: tuple[IMatrix, IMatrix]
    mass: tuple[float, float]


def simultaneous_diag(pair, U: np.ndarray, Uinv: np.ndarray) -> tuple[IMatrix, tuple]:
    """The certified box of ``U``'s inverse around ``Uinv`` (or :class:`SingularMatrixError`)
    and both members of ``pair`` conjugated into the basis ``U``."""
    inv_box = inverse_enclosure(U, r0=Uinv)
    return inv_box, tuple(_sandwich(inv_box, x, U) for x in pair)


def choose_donor(pair, offer, mass, own_mass) -> Donor:
    """The donor of ``pair`` by the module's rule; :class:`EigenDecompositionError` if none.

    ``offer(mid)`` is a member's ``(U, Uinv, form)`` or raises; ``mass(form,
    conj, mid)`` is the mass of member ``mid`` in its sandwich midpoint ``conj``,
    ``own_mass(mid)`` its mass in the basis ``I``.
    """
    mids = tuple(x.mid for x in pair)

    def conjugate(i: int) -> Donor:
        U, Uinv, form = offer(mids[i])
        inv_box, raw = simultaneous_diag(pair, U, Uinv)
        masses = tuple(mass(form, r.mid, x) for r, x in zip(raw, mids))
        return Donor(U, form, i, inv_box, raw, masses)

    scored = []
    for i in range(1 if mids[0].dtype == mids[1].dtype and np.array_equal(*mids) else 2):
        if _scalar(mids[i]):
            scored.append((max(map(own_mass, mids)), i, None))
            continue
        try:
            donor = conjugate(i)
        except (EigenDecompositionError, SingularMatrixError):
            continue
        scored.append((max(donor.mass), i, donor))
    if not scored:
        raise EigenDecompositionError("no basis of the pair has a certified inverse")
    _, i, donor = min(scored, key=lambda t: t[:2])
    return conjugate(i) if donor is None else donor


def _diag_defect(a, b, c, d, S) -> np.ndarray:
    """Upper bound of ``|1 - (a_i b_j + c_i d_j) / S_ij|`` for stored floats."""
    t_mag = np.outer(np.abs(a), np.abs(b))
    t_mag += np.outer(np.abs(c), np.abs(d))
    q_mid = (np.outer(a, b) + np.outer(c, d)) / S
    q_rad = _quot_rad(_slack(t_mag, 12, out=t_mag), np.abs(S))
    q_mag = np.abs(q_mid)
    q_rad += _slack(q_mag, 6, out=q_mag)
    out = np.abs(np.subtract(1.0, q_mid, out=q_mid))
    out += q_rad
    return _up(out, 4, out=out)


def _eigen_donor(pair: tuple[IMatrix, IMatrix], eig_of) -> Donor:
    """:func:`choose_donor` over eigenbases, whose ``form`` is the eigenvalues."""

    def offer(mid: np.ndarray):
        eig = eig_of(mid)
        return eig.vectors, eig.inv_vectors, eig.values

    return choose_donor(
        pair, offer, lambda _, conj, mid: _offdiag_rel(conj, mid), lambda x: _offdiag_rel(x, x)
    )


def transform_enclose(sys: SylvesterSystem) -> PrecondSystem:
    """Build the diagonalized interval system for ``sys``.

    Raises :class:`EigenDecompositionError` when neither member of a pair
    offers a basis with a certified inverse, and the screening's error on a
    singular denominator; large non-commutativity only widens radii and warns.
    """
    eig_of = _eig_memo()
    left, right = (_eigen_donor(pair, eig_of) for pair in ((sys.A, sys.C), (sys.B, sys.D)))
    for side in (left, right):
        other_mass = side.mass[1 - side.index]
        if other_mass > OFFDIAG_WARN:
            warnings.warn(
                f"pair is far from commuting: off-diagonal mass {other_mass:.2e} "
                "will be absorbed into radii",
                stacklevel=2,
            )
    Ap, Cp = (_project_pattern(r, np.eye(sys.m, dtype=bool)) for r in left.raw)
    Bp, Dp = (_project_pattern(r, np.eye(sys.n, dtype=bool)) for r in right.raw)
    Fp = _sandwich(left.inv_box, sys.F, right.U)
    dA, dC, dB, dD = (
        side.form if i == side.index else np.diag(side.raw[i].mid).copy()
        for side in (left, right)
        for i in (0, 1)
    )
    S = build_S(dA, dB, dC, dD)

    a, c = np.diag(Ap.mid), np.diag(Cp.mid)
    b, d = np.diag(Bp.mid), np.diag(Dp.mid)
    sdefect = _diag_defect(a, b, c, d, S)

    mass = {"A": left.mass[0], "C": left.mass[1], "B": right.mass[0], "D": right.mass[1]}

    return PrecondSystem(
        Ap=Ap, Bp=Bp, Cp=Cp, Dp=Dp, Fp=Fp,
        U=left.U, Uinv=left.inv_box.mid, V=right.U, Vinv=right.inv_box.mid,
        dA=dA, dB=dB, dC=dC, dD=dD, S=S,
        offdiag_mass=mass,
        uinv_box=left.inv_box, vinv_box=right.inv_box,
        sdefect=sdefect,
    )
