"""Spectral preconditioning of the interval equation A X B + C X D = F.

The midpoint pairs (mid A, mid C) and (mid B, mid D) are conjugated into
(approximately) diagonal form by shared eigenbases U and V.  Each distinct
midpoint is decomposed once per transform.  Off-diagonal midpoint mass of the
transformed coefficients is moved into the radii, so the transformed
midpoints are exactly diagonal; validity never depends on how well the pair
actually commutes, only tightness does.

The inverses of U and V are never formed exactly: point factors ``P ~
U^-1`` and ``W ~ V^-1`` stand in for them.  With ``X = U Y W`` each member
``(A, B, C, D, F)`` becomes the member ``(P A U, W B V, P C U, W D V, P F
V)`` of the boxes the sandwiches enclose, and a Krawczyk test that passes
on those boxes proves every transformed operator nonsingular, and with it
P, U, W and V; each member's solution is then ``U Y W``.  So no inverse
needs a certificate: P and W only keep the transformed midpoints nearly
diagonal.  Three properties of the input make a transform exact instead:

* a member whose midpoint is exactly diagonal donates the basis ``I``,
  without an eigensolver call (a scalar midpoint ``c I`` is one such);
* a permutation basis ``U = I[:, perm]`` (``I``, and in :mod:`.blockdiag`
  its column-reversed and cluster-sorted forms) has the exact inverse
  ``P = U^T``, so every product with ``U`` or ``U^T`` is a reindexing and
  a point scalar member ``c I`` stays exactly ``<c I, 0>``;
* elsewhere a point scalar member ``c I`` takes the box ``<c I, 0> G`` of
  the one interval product ``G = P U`` of its side, with no sandwich.

One rule, :func:`choose_donor`, picks the member of each pair that donates
the shared basis, here and in :mod:`.blockdiag`.  Each distinct member offers
its basis and is conjugated once, with both members, by
:func:`simultaneous_diag`; it scores the larger mass either member keeps off
the pattern, each member by the midpoint of its own box.  A basis whose
product ``G = P U`` fails ``rho(|I - G|) < 1`` drops out; the lowest score
wins, a tie keeps the first member.  Here mass is the relative inf-norm off
the diagonal, against the member.

:func:`precondition` settles one side at a time: once a side's donor is
chosen, its members' boxes shrink to their pattern entries and radii and
``F`` takes the side's factor of its sandwich, before the other side's
donor is sought.  So the dense boxes of one side at most are alive at a
time, and of a pair's two candidates only the better one's while the
second is scored.

The entrywise denominators ``a_i b_j + c_i d_j`` of the stored diagonals
``a, b, c, d`` of the transformed midpoints are formed once, as screened
disks that contain the exact products, with disks containing their
reciprocals (:func:`.intervals._denominators`).  Every member shares those
exact products, so dividing by them is a preconditioner of its own, and mkw,
itr and blk all divide through these disks.  The system keeps the
reciprocal disks only, the one part a division reads.

:class:`PrecondSystem` is the one preconditioned form of mkw, itr and blk;
its row and column partitions are all ones for eigenbases and blk's
triangular blocks otherwise.  One builder, :func:`precondition`, fills it
from a side rule: the eigen donor here, ``blockdiag._block_side`` for blk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EigenDecompositionError, SingularMatrixError
from .intervals import (
    IMatrix,
    _Operand,
    _Reciprocals,
    _den_mid,
    _denominators,
    _diagonal,
    _scalar_of,
    _up,
    im_matmul,
)
from .linalg import EigResult, _near_identity, eig_decompose
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


def _point_scalar(x: IMatrix) -> bool:
    """Whether ``x`` is a point scalar matrix ``<c I, 0>``, for any ``c``."""
    return _scalar_of(_diagonal(x.mid)) is not None and not np.count_nonzero(x.rad)


def _eig_memo():
    """``eig_decompose`` that decomposes each distinct matrix once over the memo's lifetime."""
    seen: list[tuple[np.ndarray, EigResult]] = []

    def eig_of(a: np.ndarray) -> EigResult:
        for b, res in seen:
            if b.dtype == a.dtype and np.array_equal(a, b):
                return res
        res = eig_decompose(a)
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


class _Side(NamedTuple):
    """Where a side's pattern entries sit, row-major over the pattern: its block
    ``mask`` and the positions ``diag`` of the diagonal among the entries,
    both None when every block is 1 x 1 and the entries are the diagonal."""

    k: int
    mask: np.ndarray | None = None
    diag: np.ndarray | None = None

    @classmethod
    def of(cls, sizes: tuple[int, ...], lower: bool) -> "_Side":
        k = sum(sizes)
        if max(sizes, default=1) == 1:
            return cls(k)
        mask = block_mask(sizes, lower)
        return cls(k, mask, np.flatnonzero(np.eye(k, dtype=bool)[mask]))

    def full_mask(self) -> np.ndarray:
        return np.eye(self.k, dtype=bool) if self.mask is None else self.mask

    def dense(self, entries: np.ndarray) -> np.ndarray:
        """The dense ``k x k`` matrix of the pattern ``entries``, zero off the pattern."""
        if self.mask is None:
            return np.diag(entries)
        out = np.zeros((self.k, self.k), dtype=entries.dtype)
        out[self.mask] = entries
        return out

    def diagonal(self, entries: np.ndarray) -> np.ndarray:
        return entries if self.diag is None else entries[self.diag]


@dataclass(frozen=True)
class PrecondSystem:
    """Transformed interval system whose midpoints keep a block pattern.

    ``mid Ap`` and ``mid Cp`` are block diagonal with upper-triangular
    blocks of the partition ``row_sizes``, ``mid Bp`` and ``mid Dp`` with
    lower-triangular blocks of ``col_sizes``; both are all ones, so the
    midpoints are exactly diagonal, for mkw and itr.  ``U`` and ``V`` are
    the bases and ``Vinv`` the point factor ``W ~ V^-1``: a member's
    solution is ``U Y W``.  ``cond_bound`` bounds the condition of blk's
    block bases, ``offdiag_mass`` is each coefficient's relative midpoint
    mass off its pattern in the donor's basis.  ``u_perm`` (``v_perm``) is
    set when ``U = I[:, u_perm]`` is a permutation, whose point factor is its
    exact inverse ``U^T``.

    What the system retains is what its readers need.  ``mids`` holds the
    midpoints of ``Ap, Bp, Cp, Dp`` (in that order) by their pattern
    entries alone, row-major over the pattern: the diagonal for mkw, the
    entries of the triangular blocks for blk.  ``rads`` holds their dense
    radii.  ``rec`` holds the disks that contain the reciprocals of the
    denominators ``a_i b_j + c_i d_j`` of the stored diagonals ``a, b, c,
    d``, the only part of :func:`.intervals._denominators` a division
    reads; :meth:`den_mid` forms the denominators' midpoints again, with
    the same bits.  The dense boxes ``Ap .. Dp`` are formed on each access,
    bit for bit the projected boxes the system was built from: a kernel
    that reads one holds it for its own call only.  Build a system from
    dense boxes with :meth:`from_boxes`.
    """

    mids: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    rads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    Fp: IMatrix
    U: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    rec: _Reciprocals
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]
    cond_bound: float | None = None
    offdiag_mass: dict = field(default_factory=dict)
    u_perm: np.ndarray | None = None
    v_perm: np.ndarray | None = None

    def __post_init__(self) -> None:
        m, n = sum(self.row_sizes), sum(self.col_sizes)
        shapes = tuple(r.shape for r in self.rads) + (self.Fp.shape,)
        if shapes != ((m, m), (n, n), (m, m), (n, n), (m, n)):
            raise ValueError("block sizes do not sum to the matrix dimension")
        counts = [sum(s * (s + 1) // 2 for s in x) for x in (self.row_sizes, self.col_sizes)]
        if tuple(x.shape for x in self.mids) != tuple((counts[i % 2],) for i in range(4)):
            raise ValueError("pattern entries do not match the block pattern")

    @classmethod
    def from_boxes(
        cls, Ap: IMatrix, Bp: IMatrix, Cp: IMatrix, Dp: IMatrix, Fp: IMatrix,
        row_sizes: tuple[int, ...], col_sizes: tuple[int, ...], **fields,
    ) -> "PrecondSystem":
        """The system of dense boxes ``Ap .. Dp``, midpoints on the pattern of the partitions.

        Raises ``ValueError`` when a midpoint has an entry outside its
        pattern, which no division would read, and the error of
        :func:`.intervals._denominators` on a singular or out-of-range
        denominator.  ``fields`` are the other fields (``U``, ``V``,
        ``Vinv``, ...).
        """
        if (Ap.rows, Bp.rows) != (sum(row_sizes), sum(col_sizes)):
            raise ValueError("block sizes do not sum to the matrix dimension")
        masks = _Side.of(row_sizes, False).full_mask(), _Side.of(col_sizes, True).full_mask()
        parts = [_pattern_entries(x, masks[i % 2]) for i, x in enumerate((Ap, Bp, Cp, Dp))]
        return cls._of_entries(parts, Fp, row_sizes, col_sizes, **fields)

    @classmethod
    def _of_entries(
        cls, parts, Fp: IMatrix, row_sizes: tuple[int, ...], col_sizes: tuple[int, ...], **fields,
    ) -> "PrecondSystem":
        """The system of the ``(entries, rad)`` parts of ``Ap .. Dp`` (:func:`_pattern_entries`)."""
        sides = [_Side.of(row_sizes, False), _Side.of(col_sizes, True)] * 2
        mids = tuple(e for e, _ in parts)
        diags = (side.diagonal(e) for side, e in zip(sides, mids))
        ps = cls(
            mids=mids, rads=tuple(r for _, r in parts), Fp=Fp, rec=_denominators(*diags).rec,
            row_sizes=row_sizes, col_sizes=col_sizes, **fields,
        )
        vars(ps)["_sides"] = sides  # the cached layout, formed once
        return ps

    @property
    def m(self) -> int:
        return sum(self.row_sizes)

    @property
    def n(self) -> int:
        return sum(self.col_sizes)

    @property
    def diagonal(self) -> bool:
        """Whether every block is 1 x 1, so the midpoints are exactly diagonal."""
        return max(self.row_sizes + self.col_sizes) == 1

    @cached_property
    def _sides(self) -> list[_Side]:
        # formed once per system, as blk's sweeps read them at every step
        return [_Side.of(self.row_sizes, False), _Side.of(self.col_sizes, True)] * 2

    def pattern_mid(self, i: int) -> np.ndarray:
        """The dense midpoint of coefficient ``i`` (0 .. 3 for ``Ap .. Dp``), formed anew."""
        return self._sides[i].dense(self.mids[i])

    def den_mid(self) -> np.ndarray:
        """The midpoints of the denominators ``a_i b_j + c_i d_j`` of the stored
        diagonals, bit for bit :func:`.intervals._denominators`' own."""
        return _den_mid(*(side.diagonal(e) for side, e in zip(self._sides, self.mids)))

    def box(self, i: int) -> IMatrix:
        """The dense box of coefficient ``i`` (0 .. 3 for ``Ap .. Dp``), formed anew."""
        return IMatrix._from_kernel(self.pattern_mid(i), self.rads[i])

    Ap = property(lambda self: self.box(0), doc="The dense box ``Ap``, formed on each access.")
    Bp = property(lambda self: self.box(1), doc="The dense box ``Bp``, formed on each access.")
    Cp = property(lambda self: self.box(2), doc="The dense box ``Cp``, formed on each access.")
    Dp = property(lambda self: self.box(3), doc="The dense box ``Dp``, formed on each access.")


class Basis(NamedTuple):
    """A side's basis ``U`` and the point factor ``P ~ U^-1`` that multiplies on the left.

    ``perm`` is set when ``U = I[:, perm]`` is a permutation: ``P`` is then
    its exact inverse ``U^T``, and a product with either is a reindexing.
    Otherwise ``p_op`` and ``u_op`` are ``P`` and ``U`` prepared as product
    operands, once for every sandwich of the side (both members and ``F``);
    :func:`precondition` drops them once the side's sandwiches are formed,
    and the preconditioned system keeps none.
    """

    U: np.ndarray
    P: np.ndarray
    perm: np.ndarray | None = None
    p_op: _Operand | None = None
    u_op: _Operand | None = None


def _take(x: IMatrix, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> IMatrix:
    """The entries ``x[rows][:, cols]``, exactly; ``None`` keeps every row (column).

    An identity index (mkw's diagonal donors) keeps ``x``'s arrays.  ``np.take``
    keeps the result C-ordered, as products return it; ``[:, cols]`` would not.
    """
    mid, rad = x.mid, x.rad
    for axis, index in enumerate((rows, cols)):
        if index is not None and (index != np.arange(len(index))).any():
            mid, rad = np.take(mid, index, axis=axis), np.take(rad, index, axis=axis)
    return x if mid is x.mid else IMatrix._from_kernel(mid, rad)


def _left(basis: Basis, x: IMatrix) -> IMatrix:
    """Enclosure of ``basis.P X``: a reindexing on a permutation basis, else a point x interval
    product by the prepared operand (a midpoint product and one radius product)."""
    return im_matmul(basis.p_op, x) if basis.perm is None else _take(x, rows=basis.perm)


def _right(x: IMatrix, basis: Basis) -> IMatrix:
    """Enclosure of ``X basis.U``, as :func:`_left`."""
    return im_matmul(x, basis.u_op) if basis.perm is None else _take(x, cols=basis.perm)


def _sandwich(left: Basis, x: IMatrix, right: Basis) -> IMatrix:
    """Enclosure of ``left.P X right.U``: :func:`_right` of :func:`_left`."""
    return _right(_left(left, x), right)


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


def _pattern_entries(x: IMatrix, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint entries of ``x`` on ``mask``, row-major, and its radii: a projected box
    as :class:`PrecondSystem` keeps it.

    Raises ``ValueError`` when the midpoint has an entry outside the pattern,
    which no division would read.
    """
    if np.any(x.mid, where=~mask):
        raise ValueError("preconditioned midpoint has entries outside its block pattern")
    return x.mid[mask], x.rad


class Donor(NamedTuple):
    """Member ``index`` of a pair donates its :class:`Basis` ``basis``; ``form``
    is the :class:`Pattern` the preconditioner keeps of it, ``raw`` both
    members conjugated into the basis and ``mass`` their masses."""

    basis: Basis
    form: Pattern
    index: int
    raw: tuple[IMatrix, IMatrix]
    mass: tuple[float, float]


def simultaneous_diag(pair, U: np.ndarray, P: np.ndarray, perm: np.ndarray | None = None):
    """The :class:`Basis` of ``U`` and ``P`` and both members of ``pair`` conjugated into it.

    A permutation basis ``U = I[:, perm]``, with ``P = U^T``, conjugates by
    reindexing.  Otherwise the interval product ``G = P U`` must pass
    ``rho(|I - G|) < 1`` (or :class:`SingularMatrixError`); a point scalar
    member ``c I`` then takes the box ``<c I, 0> G`` and every other member
    its sandwich.
    """
    if perm is not None:
        return Basis(U, P, perm), tuple(_take(x, perm, perm) for x in pair)
    basis = Basis(U, P, None, _Operand(P), _Operand(U))
    G, _ = _near_identity(basis.p_op, basis.u_op)
    return basis, tuple(
        im_matmul(x, G) if _point_scalar(x) else _sandwich(basis, x, basis) for x in pair
    )


def choose_donor(pair, offer, mass) -> Donor:
    """The donor of ``pair`` by the module's rule; :class:`EigenDecompositionError` if none.

    ``offer(mid)`` is a member's ``(U, P, form, perm)`` (``P ~ U^-1``,
    ``perm`` None unless ``U`` is a permutation) or raises; ``mass(form,
    conj, mid)`` is the mass of member ``mid`` scored by the midpoint
    ``conj`` of its conjugated box.  Only the best candidate so far keeps its
    basis and conjugated boxes: while the second member is scored, the
    first one's are alive beside its own, and the loser's go when the rule
    has picked.
    """
    mids = tuple(x.mid for x in pair)
    best = None
    for i in range(1 if mids[0].dtype == mids[1].dtype and np.array_equal(*mids) else 2):
        try:
            U, P, form, perm = offer(mids[i])
            basis, raw = simultaneous_diag(pair, U, P, perm)
        except (EigenDecompositionError, SingularMatrixError):
            continue
        masses = tuple(mass(form, r.mid, x) for r, x in zip(raw, mids))
        # a tie keeps the first member
        if best is None or max(masses) < max(best.mass):
            best = Donor(basis, form, i, raw, masses)
    if best is None:
        raise EigenDecompositionError("no basis of the pair passes rho(|I - P U|) < 1")
    return best


def _eigen_donor(pair: tuple[IMatrix, IMatrix], eig_of) -> Donor:
    """:func:`choose_donor` over eigenbases, which keep the diagonal pattern.

    An exactly diagonal midpoint offers the permutation basis ``I`` without
    an eigensolver call.
    """

    def offer(mid: np.ndarray):
        n = len(mid)
        form = Pattern((1,) * n, np.eye(n, dtype=bool))
        if _diagonal(mid) is not None:
            eye = np.eye(n, dtype=mid.dtype)
            return eye, eye, form, np.arange(n)
        eig = eig_of(mid)
        return eig.vectors, eig.inv_vectors, form, None

    return choose_donor(pair, offer, lambda _, conj, mid: _offdiag_rel(conj, mid))


def precondition(sys: SylvesterSystem, side) -> PrecondSystem:
    """The preconditioned system of ``sys`` over the donors that ``side`` picks.

    ``side(pair, lower)`` is the :class:`Donor` of the pair ``(A, C)``, or of
    ``(B, D)`` with ``lower`` set; both members are projected on its pattern.
    Raises :class:`EigenDecompositionError` when no basis of a pair passes
    the test of :func:`simultaneous_diag`, and the error of
    :func:`.intervals._denominators` on a singular or out-of-range
    denominator; large non-commutativity only widens radii and warns.

    The sides are settled one after the other, so at most one side's dense
    boxes are alive at a time.  Once a side's donor is chosen, each member's
    conjugated box is projected on the pattern and reduced at once to its
    pattern entries and dense radii (:func:`_pattern_entries`, the step
    :meth:`PrecondSystem.from_boxes` takes), and ``F`` takes the side's
    factor of its sandwich (``P F`` on the left, then ``(P F) V`` on the
    right).  The side then keeps its basis without its prepared operands:
    while the right side's donor is chosen, the left side holds its radii,
    its pattern entries, ``U`` and ``P F``.  The denominators are formed
    last, from the stored diagonals.
    """
    f, donors, parts = sys.F, [], []
    for pair, lower in (((sys.A, sys.C), False), ((sys.B, sys.D), True)):
        donor = side(pair, lower)
        mask = donor.form.mask
        parts.append([_pattern_entries(_project_pattern(r, mask), mask) for r in donor.raw])
        f = _right(f, donor.basis) if lower else _left(donor.basis, f)
        # the side's boxes and prepared operands have no later reader
        donors.append(donor._replace(raw=None, basis=donor.basis._replace(p_op=None, u_op=None)))
        del donor
    left, right = donors
    for donor in donors:
        other_mass = donor.mass[1 - donor.index]
        if other_mass > OFFDIAG_WARN:
            warnings.warn(
                f"pair is far from commuting: mass {other_mass:.2e} off the pattern "
                "will be absorbed into radii",
                stacklevel=3,
            )
    conds = [d.form.cond_bound for d in donors if d.form.cond_bound is not None]
    (a, c), (b, d) = parts
    return PrecondSystem._of_entries(
        (a, b, c, d), f,
        row_sizes=left.form.sizes, col_sizes=right.form.sizes,
        U=left.basis.U, V=right.basis.U, Vinv=right.basis.P,
        cond_bound=max(conds) if conds else None,
        offdiag_mass={"A": left.mass[0], "C": left.mass[1], "B": right.mass[0], "D": right.mass[1]},
        u_perm=left.basis.perm,
        v_perm=right.basis.perm,
    )


def transform_enclose(sys: SylvesterSystem) -> PrecondSystem:
    """The diagonalized interval system of ``sys``: :func:`precondition` over eigenbases."""
    eig_of = _eig_memo()
    return precondition(sys, lambda pair, lower: _eigen_donor(pair, eig_of))
