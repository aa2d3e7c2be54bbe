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
conditioned basis for larger diagonal blocks.  An exactly diagonal
midpoint (a scalar ``c I`` among them) is its own Schur form and takes none:
its clusters come from the same rule, and an exact permutation makes them
contiguous, so its basis is a permutation whose inverse is exactly its
transpose and every product with it a reindexing (see :mod:`.precond`).

The donor of each pair follows the rule of :func:`.precond.choose_donor`,
with mass measured as the relative Frobenius norm off the block pattern.

With upper-triangular blocks for the row pair (DA, DC) and lower-triangular
blocks for the column pair (DB, DD), the operator

    Lambda = transpose(DB) kron DA + transpose(DD) kron DC

splits into independent upper-triangular systems, one per tile X[I, J] of a
row block I and a column block J (the block-triangular recurrences of
Bartels and Stewart).  The Hadamard division of the diagonal method becomes
an interval backward substitution, run on all tiles of one shape at once;
the same sweep on midpoints alone, dividing by the denominator midpoints as
the diagonal method does, gives the approximate solution.
Midpoint mass of the transformed matrices that falls outside the block
pattern is absorbed into radii, which keeps the method rigorous for any
inputs at the price of wider results when the pattern fits poorly.

This module supplies only the side rule, :func:`_block_side`.  The
preconditioned system is the one of the diagonal method
(:func:`.precond.precondition`) with these partitions, and the solve is the
diagonal method's: it back-substitutes by
:func:`.krawczyk.interval_back_substitute`, exposed here too, whenever a
block is larger than 1 x 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl as _trsyl

from .krawczyk import KMAX_DEFAULT, Enclosure, _solve, interval_back_substitute
from .linalg import lu_solve
from .intervals import _diagonal
from .precond import Donor, Pattern, block_mask, choose_donor, precondition
from .system import SylvesterSystem

__all__ = [
    "block_diagonalize",
    "interval_back_substitute",
    "mkw_block_solve",
]

SEP_REL = 1e-4
MAX_COND_DEFAULT = 1e4


@dataclass(frozen=True)
class BlockHalf:
    """One-sided block form: donor Schur basis ``U``, its LU inverse and the
    donor's block form ``T``; ``perm`` is set when ``U = I[:, perm]`` is a
    permutation, whose inverse ``Uinv = U^T`` is exact."""

    U: np.ndarray
    Uinv: np.ndarray
    T: np.ndarray
    sizes: tuple[int, ...]
    cond_bound: float
    perm: np.ndarray | None = None


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

    An exactly diagonal ``Ac`` is its own Schur form, and its clusters need
    no swaps: the stable sort of their labels is a permutation ``perm`` that
    makes them contiguous in the Schur order, so ``U = I[:, perm]`` exactly,
    with ``Uinv = U^T`` and ``cond_bound = 1``.  A scalar ``c I`` is one
    block.  Raises :class:`SingularMatrixError` only when ``U`` has no LU
    inverse.
    """
    Ac = np.atleast_2d(np.asarray(Ac, dtype=np.complex128))
    m = Ac.shape[0]
    sep = SEP_REL * max(np.linalg.norm(Ac), 1e-300)
    d = _diagonal(Ac)
    if d is not None:
        labels = _clusters(d, sep)
        perm = np.argsort(labels, kind="stable")
        U = np.eye(m, dtype=np.complex128)[:, perm]
        sizes = tuple(int(c) for c in np.unique(labels, return_counts=True)[1])
        T = np.diag(d[perm])
        return BlockHalf(U=U, Uinv=U.T.copy(), T=T, sizes=sizes, cond_bound=1.0, perm=perm)
    T0, Z0 = scipy.linalg.schur(Ac, output="complex")
    labels = _clusters(np.diag(T0), sep)

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


def _block_side(pair, max_cond: float, lower: bool) -> Donor:
    """The donor of one side, whose ``form`` is its block :class:`.precond.Pattern`.

    The column side (``lower``) reverses the columns of the basis, turning
    upper-triangular blocks into lower ones.
    """
    flip = slice(None, None, -1 if lower else 1)

    def offer(mid: np.ndarray):
        half = block_diagonalize(mid, max_cond)
        sizes = half.sizes[flip]
        pattern = Pattern(sizes, block_mask(sizes, lower), half.cond_bound)
        perm = None if half.perm is None else half.perm[flip]
        # reversing the columns of U reverses the rows of its inverse
        return half.U[:, flip], half.Uinv[flip], pattern, perm

    return choose_donor(pair, offer, lambda form, conj, _: _offpattern_rel(conj, form.mask))


# ---------------------------------------------------------------------------
# the block variant of the verified solve
# ---------------------------------------------------------------------------


def mkw_block_solve(
    sys: SylvesterSystem,
    kmax: int = KMAX_DEFAULT,
    max_cond: float = MAX_COND_DEFAULT,
) -> Enclosure:
    """Verified enclosure with block-triangular preconditioning.

    The diagonal solver's steps over a preconditioned system whose donors
    are block diagonalized instead of eigen-diagonalized; on its block
    patterns the approximate solution, the residual enclosure and the
    contraction term divide by backward substitution.
    """
    ps = precondition(sys, lambda pair, lower: _block_side(pair, max_cond, lower))
    return _solve("blk", ps, kmax)
