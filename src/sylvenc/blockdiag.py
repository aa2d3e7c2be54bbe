"""Block-triangular fallback preconditioner.

When a midpoint pair has no well-conditioned eigenbasis (defective or nearly
defective matrices), the diagonal transform is unavailable.  This module
substitutes a coarser form: the donor midpoint is brought to complex Schur
form, eigenvalues closer than a separation threshold are clustered, the
Schur factor is reordered so clusters are contiguous, and the off-diagonal
coupling is annihilated one cluster column at a time, each column by one
triangular Sylvester solve against the whole leading triangle (LAPACK
``ztrsyl``).  Whenever a column of the similarity would exceed a norm cap,
or the equation is too close to singular for ``ztrsyl`` to solve unscaled,
the offending clusters are merged and the sweep restarts, trading a better
conditioned basis for larger diagonal blocks.  A scalar midpoint ``c I`` is
its own block form and needs no Schur form.

The donor of each pair follows the rule of :func:`.precond.choose_donor`,
with mass measured as the relative Frobenius norm off the block pattern.

With upper-triangular blocks for the row pair (DA, DC) and lower-triangular
blocks for the column pair (DB, DD), the operator

    Lambda = transpose(DB) kron DA + transpose(DD) kron DC

splits into independent upper-triangular systems, one per tile X[I, J] of a
row block I and a column block J (the block-triangular recurrences of
Bartels and Stewart).  The Hadamard division of the diagonal method becomes
an interval backward substitution, run on all tiles of one shape at once;
the same sweep on the point right-hand side gives the approximate solution.
Midpoint mass of the transformed matrices that falls outside the block
pattern is absorbed into radii, which keeps the method rigorous for any
inputs at the price of wider results when the pattern fits poorly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl as _trsyl

from .intervals import (
    IMatrix,
    _denominators,
    _dot_ops,
    _pad_rad,
    _slack,
    _up,
    as_imatrix,
    posmm,
)
from .krawczyk import KMAX_DEFAULT, Enclosure, back_transform, residual, verify
from .linalg import lu_solve
from .precond import Donor, _project_pattern, _sandwich, _scalar, choose_donor
from .system import SylvesterSystem

__all__ = [
    "BlockDiagForm",
    "block_diagonalize",
    "interval_back_substitute",
    "mkw_block_solve",
]

SEP_REL = 1e-4
MAX_COND_DEFAULT = 1e4


@dataclass(frozen=True)
class BlockHalf:
    """One-sided block form: donor Schur basis ``U``, its LU inverse and the
    donor's block form ``T``."""

    U: np.ndarray
    Uinv: np.ndarray
    T: np.ndarray
    sizes: tuple[int, ...]
    cond_bound: float


@dataclass(frozen=True)
class BlockDiagForm:
    """Two-sided block form driving the backward substitution.

    ``DA, DC`` are block diagonal with upper-triangular blocks (partition
    ``a_sizes``); ``DB, DD`` block diagonal with lower-triangular blocks and
    the shared partition ``b_sizes``.  ``Uinv``/``Vinv`` are floating
    approximations kept for diagnostics; certified inverse enclosures are
    used for the actual transforms.
    """

    U: np.ndarray
    Uinv: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    DA: np.ndarray
    DC: np.ndarray
    DB: np.ndarray
    DD: np.ndarray
    b_sizes: tuple[int, ...]
    a_sizes: tuple[int, ...]
    cond_bound: float

    def __post_init__(self) -> None:
        m, n = sum(self.a_sizes), sum(self.b_sizes)
        shapes = (self.DA.shape, self.DC.shape, self.DB.shape, self.DD.shape)
        if shapes != ((m, m), (m, m), (n, n), (n, n)):
            raise ValueError("block sizes do not sum to the matrix dimension")
        # the backward substitution solves each tile of this pattern on its own
        off_a, off_b = ~block_mask(self.a_sizes), ~block_mask(self.b_sizes, lower=True)
        if any(x.any() for x in (self.DA[off_a], self.DC[off_a], self.DB[off_b], self.DD[off_b])):
            raise ValueError("block factor has entries outside its block pattern")


# ---------------------------------------------------------------------------
# block pattern helpers
# ---------------------------------------------------------------------------


def block_mask(sizes: tuple[int, ...], lower: bool = False) -> np.ndarray:
    """Boolean mask of a block-diagonal pattern with triangular blocks."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    tri = (np.tril if lower else np.triu)(np.ones((block.size, block.size), dtype=bool))
    return tri & (block[:, None] == block[None, :])


def _offpattern_rel(conj: np.ndarray, mask: np.ndarray) -> float:
    total = np.linalg.norm(conj)
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(np.where(mask, 0.0, conj)) / total)


# ---------------------------------------------------------------------------
# Schur clustering and decoupling
# ---------------------------------------------------------------------------


def _clusters(lams: np.ndarray, sep: float) -> np.ndarray:
    """Cluster label of each eigenvalue: the smallest position of its cluster.

    Two eigenvalues closer than ``sep`` share a cluster, and so does any chain
    of such pairs: the clusters are the connected components of the
    closeness graph.  Each sweep gives every position the smallest label
    among its neighbours and then the label of that label; labels only fall
    and stay inside their component, so a sweep that changes nothing leaves
    each component labelled by its smallest position.
    """
    close = np.abs(lams[:, None] - lams[None, :]) <= sep
    labels = np.arange(len(lams))
    while True:
        new = np.where(close, labels, len(lams)).min(axis=1)
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def _swap_adjacent(T: np.ndarray, Z: np.ndarray, i: int) -> None:
    """Unitary similarity exchanging diagonal entries ``i`` and ``i+1``."""
    a, b, c = T[i, i], T[i, i + 1], T[i + 1, i + 1]
    v = np.array([b, c - a], dtype=np.complex128)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return
    q1 = v / nv
    q2 = np.array([-np.conj(q1[1]), np.conj(q1[0])])
    G = np.column_stack([q1, q2])
    T[:, i : i + 2] = T[:, i : i + 2] @ G
    T[i : i + 2, :] = G.conj().T @ T[i : i + 2, :]
    Z[:, i : i + 2] = Z[:, i : i + 2] @ G
    T[i + 1, i] = 0.0


def _reorder_contiguous(
    T: np.ndarray, Z: np.ndarray, labels: list[int]
) -> tuple[list[int], list[int]]:
    """Bubble same-cluster eigenvalues together, stable in first appearance.

    Returns the reordered per-position labels and the cluster id sequence.
    """
    rank: dict[int, int] = {}
    for lab in labels:
        rank.setdefault(lab, len(rank))
    lab = list(labels)
    changed = True
    while changed:
        changed = False
        for i in range(len(lab) - 1):
            if rank[lab[i]] > rank[lab[i + 1]]:
                _swap_adjacent(T, Z, i)
                lab[i], lab[i + 1] = lab[i + 1], lab[i]
                changed = True
    order = sorted(rank, key=rank.get)
    return lab, order


def _block_ranges(lab: list[int], order: list[int]) -> list[tuple[int, int]]:
    ranges = []
    pos = 0
    for cid in order:
        cnt = lab.count(cid)
        ranges.append((pos, pos + cnt))
        pos += cnt
    return ranges


def _decouple(t11: np.ndarray, t22: np.ndarray, t12: np.ndarray) -> np.ndarray | None:
    """``Y`` with ``t11 Y - Y t22 = -t12`` for upper triangular ``t11``, ``t22``.

    The blocks of a Schur form are triangular already, so LAPACK ``ztrsyl``
    solves directly; ``solve_sylvester`` would compute two more Schur forms.
    Returns None when ``ztrsyl`` reports close eigenvalues (``info != 0``) or
    had to scale the solution to avoid overflow.
    """
    Y, scale, info = _trsyl(t11, t22, -t12, isgn=-1)
    if info != 0 or scale < 1.0:
        return None
    return Y


def block_diagonalize(Ac: np.ndarray, max_cond: float = MAX_COND_DEFAULT) -> BlockHalf:
    """Similarity bringing ``Ac`` to block form with triangular blocks.

    The reordered Schur form ``T = Z^H Ac Z`` is decoupled one cluster column
    at a time (Bavely and Stewart).  The block diagonalizer ``S`` of ``T`` that
    is unit block upper triangular is unique: its block column ``j`` (rows
    ``j0:j1``) is ``[Y; I]`` with ``T[:j0, :j0] Y - Y T[j0:j1, j0:j1] =
    -T[:j0, j0:j1]``, one ``ztrsyl`` call on the whole leading triangle, and
    the block diagonal of ``T`` is the block form.  So ``U = Z S`` and the
    diagonal blocks equal those of a pairwise sweep up to rounding.

    ``Y`` is the block column of the final similarity, so ``max_cond`` caps
    what cond(U) depends on.  When ``||Y||_inf > max_cond`` the clusters
    from the block row of ``Y`` with the largest norm through ``j`` fuse and
    the sweep restarts.  When ``ztrsyl`` meets close eigenvalues or has to
    scale, which the clustering leaves only for solutions near overflow, all
    clusters through ``j`` fuse.  Each restart leaves fewer clusters, so in
    the worst case a single triangular block remains.

    A scalar ``Ac = c I`` is its own block form: ``U = I`` and one block,
    without a Schur form.  Raises :class:`SingularMatrixError` only when
    ``U`` has no LU inverse.
    """
    Ac = np.atleast_2d(np.asarray(Ac, dtype=np.complex128))
    m = Ac.shape[0]
    if _scalar(Ac):
        eye = np.eye(m, dtype=np.complex128)
        return BlockHalf(U=eye, Uinv=eye, T=Ac.copy(), sizes=(m,), cond_bound=1.0)
    T0, Z0 = scipy.linalg.schur(Ac, output="complex")
    lams = np.diag(T0)
    labels = _clusters(lams, SEP_REL * max(np.linalg.norm(Ac), 1e-300))

    while True:
        T = T0.copy()
        U = Z0.copy()
        lab, order = _reorder_contiguous(T, U, labels.tolist())
        ranges = _block_ranges(lab, order)
        fuse = None
        # right to left, so U[:, :j0] is still the Schur basis Z of column j
        for bj in range(len(ranges) - 1, 0, -1):
            j0, j1 = ranges[bj]
            T12 = T[:j0, j0:j1]
            if not T12.any():
                continue
            Y = _decouple(T[:j0, :j0], T[j0:j1, j0:j1], T12)
            if Y is not None and np.linalg.norm(Y, np.inf) <= max_cond:
                U[:, j0:j1] += U[:, :j0] @ Y
                continue
            # fuse the clusters from the one holding Y's largest row through
            # bj, all of them after a ztrsyl failure (cluster ids are
            # smallest original positions, ascending)
            row = 0 if Y is None else np.abs(Y).sum(axis=1).argmax()
            bi = next(b for b, (lo, hi) in enumerate(ranges) if lo <= row < hi)
            fuse = order[bi : bj + 1]
            break
        if fuse is not None:
            labels[np.isin(labels, fuse)] = fuse[0]
            continue
        sizes = tuple(hi - lo for lo, hi in ranges)
        Uinv = lu_solve(U, np.eye(m, dtype=np.complex128))
        cond = float(np.linalg.norm(U, np.inf) * np.linalg.norm(Uinv, np.inf))
        DA = np.where(block_mask(sizes), T, 0.0)
        return BlockHalf(U=U, Uinv=Uinv, T=DA, sizes=sizes, cond_bound=cond)


def _block_side(pair, max_cond: float, lower: bool) -> tuple[Donor, tuple[IMatrix, IMatrix]]:
    """The donor of one side, whose ``form`` is its block sizes, pattern and ``cond_bound``,
    and both members projected on the pattern.  The column side (``lower``) reverses
    the columns of the basis, turning upper-triangular blocks into lower ones."""
    flip = slice(None, None, -1 if lower else 1)

    def offer(mid: np.ndarray):
        half = block_diagonalize(mid, max_cond)
        sizes = half.sizes[flip]
        # reversing the columns of U reverses the rows of its inverse
        return half.U[:, flip], half.Uinv[flip], (sizes, block_mask(sizes, lower), half.cond_bound)

    donor = choose_donor(
        pair,
        offer,
        lambda form, conj, _: _offpattern_rel(conj, form[1]),
        lambda mid: _offpattern_rel(mid[flip, flip], block_mask((len(mid),), lower)),
    )
    return donor, tuple(_project_pattern(r, donor.form[1]) for r in donor.raw)


# ---------------------------------------------------------------------------
# backward substitution on the block-triangular operator
# ---------------------------------------------------------------------------


def _blocks(sizes: tuple[int, ...]) -> list[tuple[int, np.ndarray]]:
    """Each block size with the ``(count, size)`` indices of its blocks."""
    starts = np.cumsum((0,) + tuple(sizes[:-1]))
    return [(s, starts[np.equal(sizes, s)][:, None] + np.arange(s)) for s in sorted(set(sizes))]


def interval_back_substitute(
    form: BlockDiagForm,
    rhs: IMatrix,
) -> IMatrix:
    """Enclosure of ``unvec(Lambda^-1 vec(rhs))`` over the rhs enclosure.

    ``Lambda`` splits into independent upper-triangular systems
    ``DB_J^T kron DA_I + DD_J^T kron DC_I``, one per tile ``X[I, J]`` of
    blocks ``I``, ``J``.  Tiles of one shape are solved together by interval
    backward substitution.  Step ``p`` forms the tail of row ``p`` of every
    tile, each entry with a radius covering its floating formation error;
    that tail is never longer than the row of the whole column block, so
    neither is the inner-product pad ``2 kk + 8``.
    """
    m, n = form.DA.shape[0], form.DB.shape[0]
    rhs = as_imatrix(rhs)
    if rhs.shape != (m, n):
        raise ValueError("dimension mismatch")
    den = _denominators(*(np.diag(x) for x in (form.DA, form.DB, form.DC, form.DD)))
    out_mid = np.zeros((m, n), dtype=np.complex128)
    out_rad = np.zeros((m, n))
    for (a, rows), (b, cols) in itertools.product(_blocks(form.a_sizes), _blocks(form.b_sizes)):
        DA, DC = (x[rows[:, :, None], rows[:, None, :]] for x in (form.DA, form.DC))
        DB, DD = (x[cols[:, :, None], cols[:, None, :]] for x in (form.DB, form.DD))
        # unknown p = k a + r of tile (I, J) is X[rows[I, r], cols[J, k]]
        ix = (rows[:, None, None, :], cols[None, :, :, None])
        tiles = (len(rows), len(cols), a * b)
        f_mid, f_rad, rec_mid, rec_rad = (
            x[ix].reshape(tiles) for x in (rhs.mid, rhs.rad, den.rec_mid, den.rec_rad)
        )
        z_mid = np.zeros(tiles, dtype=np.complex128)
        z_rad = np.zeros(tiles)
        for p in range(a * b - 1, -1, -1):
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
            dot_rad = (at * zr).sum(axis=-1) + (t_rad * az).sum(axis=-1) + (t_rad * zr).sum(axis=-1)
            dot_rad = _pad_rad(dot_rad, (at * az).sum(axis=-1), _dot_ops(a * b - p - 1))
            num_mid = f_mid[..., p] - dot_mid
            num_rad = _pad_rad(f_rad[..., p] + dot_rad, np.abs(num_mid))
            rm, rr = rec_mid[..., p], rec_rad[..., p]
            z_mid[..., p] = num_mid * rm
            rad = _up(np.abs(num_mid) * rr + num_rad * np.abs(rm) + num_rad * rr, 5)
            z_rad[..., p] = rad + _slack(np.abs(z_mid[..., p]), 4)
        out_mid[ix] = z_mid.reshape(tiles[:2] + (b, a))
        out_rad[ix] = z_rad.reshape(tiles[:2] + (b, a))
    return IMatrix(out_mid, out_rad)


# ---------------------------------------------------------------------------
# the block variant of the verified solve
# ---------------------------------------------------------------------------


def mkw_block_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
    max_cond: float = MAX_COND_DEFAULT,
) -> Enclosure:
    """Verified enclosure with block-triangular preconditioning.

    Follows the diagonal solver with four substitutions: both sides are
    block diagonalized instead of eigen-diagonalized, the approximate
    solution and the residual enclosure come from backward substitution
    instead of Hadamard division, and so does the contraction term.
    """
    left, (Ap, Cp) = _block_side((sys.A, sys.C), max_cond, lower=False)
    right, (Bp, Dp) = _block_side((sys.B, sys.D), max_cond, lower=True)
    U, uinv_box, vinv_box = left.U, left.inv_box, right.inv_box
    (a_sizes, _, a_cond), (b_sizes, _, b_cond) = left.form, right.form
    Fp = _sandwich(uinv_box, sys.F, right.U)
    form = BlockDiagForm(
        U=U, Uinv=uinv_box.mid, V=right.U, Vinv=vinv_box.mid,
        DA=Ap.mid, DC=Cp.mid, DB=Bp.mid, DD=Dp.mid,
        b_sizes=b_sizes, a_sizes=a_sizes, cond_bound=max(a_cond, b_cond),
    )
    xtilde = interval_back_substitute(form, IMatrix(Fp.mid)).mid
    M = interval_back_substitute(form, residual(Fp, Ap, Bp, Cp, Dp, xtilde))
    abs_b, abs_d = np.abs(Bp.mid), np.abs(Dp.mid)

    def n_of(xrad: np.ndarray) -> IMatrix:
        w = _up(
            posmm(posmm(Ap.rad, xrad), abs_b)
            + posmm(posmm(Ap.mag(), xrad), Bp.rad)
            + posmm(posmm(Cp.rad, xrad), abs_d)
            + posmm(posmm(Cp.mag(), xrad), Dp.rad),
            4,
        )
        return interval_back_substitute(form, IMatrix(np.zeros_like(w, dtype=np.complex128), w))

    return verify(
        "blk",
        xtilde,
        M,
        n_of,
        lambda Z: back_transform(U, Z, vinv_box),
        kmax,
        U=U,
        Vinv=vinv_box.mid,
        blockform=form,
    )
