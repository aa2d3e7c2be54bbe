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
``a_i b_j + c_i d_j`` of the stored diagonals ``a, b, c, d`` of the
transformed midpoints are formed once, as screened disks that contain the
exact products, with disks containing their reciprocals
(:func:`.intervals._denominators`).  Every member shares those exact
products, so dividing by them is a preconditioner of its own, and mkw, itr
and blk all divide through these disks.

:class:`PrecondSystem` is the one preconditioned form of mkw, itr and blk;
its row and column partitions are all ones for eigenbases and blk's
triangular blocks otherwise.  One builder, :func:`precondition`, fills it
from a side rule: the eigen donor here, ``blockdiag._block_side`` for blk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EigenDecompositionError, SingularMatrixError
from .intervals import (
    IMatrix,
    _Denominators,
    _denominators,
    _diagonal,
    _up,
    as_imatrix,
    im_matmul,
)
from .linalg import EigResult, eig_decompose, inverse_enclosure
from .system import SylvesterSystem

__all__ = [
    "PrecondSystem",
    "precondition",
    "simultaneous_diag",
    "transform_enclose",
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


def block_mask(sizes: tuple[int, ...], lower: bool = False) -> np.ndarray:
    """Boolean mask of a block-diagonal pattern with triangular blocks."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    tri = (np.tril if lower else np.triu)(np.ones((block.size, block.size), dtype=bool))
    return tri & (block[:, None] == block[None, :])


class Pattern(NamedTuple):
    """What a side's basis keeps: the block ``sizes``, their ``mask`` and a bound
    ``cond_bound`` on the condition of the basis (None for an eigenbasis)."""

    sizes: tuple[int, ...]
    mask: np.ndarray
    cond_bound: float | None = None


@dataclass(frozen=True)
class PrecondSystem:
    """Transformed interval system whose midpoints keep a block pattern.

    ``mid Ap`` and ``mid Cp`` are block diagonal with upper-triangular
    blocks of the partition ``row_sizes``, ``mid Bp`` and ``mid Dp`` with
    lower-triangular blocks of ``col_sizes``; both are all ones, so the
    midpoints are exactly diagonal, for mkw and itr.  ``uinv_box`` and
    ``vinv_box`` are the certified inverses of the bases ``U`` and ``V``;
    ``den`` holds the disk denominators ``a_i b_j + c_i d_j`` of the
    diagonals of ``mid Ap .. mid Dp`` and their reciprocals.  ``cond_bound``
    bounds the condition of blk's block bases, ``offdiag_mass`` is each
    coefficient's relative midpoint mass off its pattern in the donor's basis.
    """

    Ap: IMatrix
    Bp: IMatrix
    Cp: IMatrix
    Dp: IMatrix
    Fp: IMatrix
    U: np.ndarray
    V: np.ndarray
    uinv_box: IMatrix
    vinv_box: IMatrix
    den: _Denominators
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]
    cond_bound: float | None = None
    offdiag_mass: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        m, n = sum(self.row_sizes), sum(self.col_sizes)
        shapes = tuple(x.shape for x in (self.Ap, self.Cp, self.Bp, self.Dp, self.Fp))
        if shapes != ((m, m), (m, m), (n, n), (n, n), (m, n)):
            raise ValueError("block sizes do not sum to the matrix dimension")
        # the division solves each tile of this pattern on its own
        off_a, off_b = ~block_mask(self.row_sizes), ~block_mask(self.col_sizes, lower=True)
        pairs = ((self.Ap, off_a), (self.Cp, off_a), (self.Bp, off_b), (self.Dp, off_b))
        if any(np.any(x.mid, where=off) for x, off in pairs):
            raise ValueError("preconditioned midpoint has entries outside its block pattern")

    @property
    def m(self) -> int:
        return self.Ap.rows

    @property
    def n(self) -> int:
        return self.Bp.rows

    @property
    def diagonal(self) -> bool:
        """Whether every block is 1 x 1, so the midpoints are exactly diagonal."""
        return max(self.row_sizes + self.col_sizes) == 1


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
    ``inv_box`` certifies; ``form`` is the :class:`Pattern` the preconditioner
    keeps of it, ``raw`` both members' sandwiches and ``mass`` their masses."""

    U: np.ndarray
    form: Pattern
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


def _eigen_donor(pair: tuple[IMatrix, IMatrix], eig_of) -> Donor:
    """:func:`choose_donor` over eigenbases, which keep the diagonal pattern."""

    def offer(mid: np.ndarray):
        eig = eig_of(mid)
        n = len(mid)
        return eig.vectors, eig.inv_vectors, Pattern((1,) * n, np.eye(n, dtype=bool))

    return choose_donor(
        pair, offer, lambda _, conj, mid: _offdiag_rel(conj, mid), lambda x: _offdiag_rel(x, x)
    )


def precondition(sys: SylvesterSystem, side) -> PrecondSystem:
    """The preconditioned system of ``sys`` over the donors that ``side`` picks.

    ``side(pair, lower)`` is the :class:`Donor` of the pair ``(A, C)``, or of
    ``(B, D)`` with ``lower`` set; both members are projected on its pattern.
    Raises :class:`EigenDecompositionError` when a pair has no certified
    basis, and the error of :func:`.intervals._denominators` on a singular or
    out-of-range denominator; large non-commutativity only widens radii and
    warns.
    """
    left, right = side((sys.A, sys.C), False), side((sys.B, sys.D), True)
    for donor in (left, right):
        other_mass = donor.mass[1 - donor.index]
        if other_mass > OFFDIAG_WARN:
            warnings.warn(
                f"pair is far from commuting: mass {other_mass:.2e} off the pattern "
                "will be absorbed into radii",
                stacklevel=3,
            )
    Ap, Cp = (_project_pattern(r, left.form.mask) for r in left.raw)
    Bp, Dp = (_project_pattern(r, right.form.mask) for r in right.raw)
    conds = [d.form.cond_bound for d in (left, right) if d.form.cond_bound is not None]
    return PrecondSystem(
        Ap=Ap, Bp=Bp, Cp=Cp, Dp=Dp,
        Fp=_sandwich(left.inv_box, sys.F, right.U),
        U=left.U, V=right.U,
        uinv_box=left.inv_box, vinv_box=right.inv_box,
        den=_denominators(*(np.diag(x.mid) for x in (Ap, Bp, Cp, Dp))),
        row_sizes=left.form.sizes, col_sizes=right.form.sizes,
        cond_bound=max(conds) if conds else None,
        offdiag_mass={"A": left.mass[0], "C": left.mass[1], "B": right.mass[0], "D": right.mass[1]},
    )


def transform_enclose(sys: SylvesterSystem) -> PrecondSystem:
    """The diagonalized interval system of ``sys``: :func:`precondition` over eigenbases."""
    eig_of = _eig_memo()
    return precondition(sys, lambda pair, lower: _eigen_donor(pair, eig_of))
