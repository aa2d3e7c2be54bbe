"""The pairwise decoupling sweep, kept as a test oracle.

``sylvenc.blockdiag.block_diagonalize`` decouples one cluster column at a
time; this is the sweep it replaced, which decouples every pair of clusters
by superdiagonal span with one ``ztrsyl`` call per pair.  Both compute the
unique unit block-upper-triangular block diagonalizer of the reordered Schur
form, so whenever no cap binds they agree up to rounding.

It also keeps the reordering ``block_diagonalize`` replaced, which ranks the
clusters by first appearance in a table of its own, beside block ranges of
its own.
"""

import numpy as np
import scipy.linalg

from sylvenc.blockdiag import (
    MAX_COND_DEFAULT,
    SEP_REL,
    BlockHalf,
    _clusters,
    _decouple,
    _swap_adjacent,
)
from sylvenc.linalg import lu_solve
from sylvenc.precond import Pattern


def rank_reorder(T: np.ndarray, Z: np.ndarray, labels: list[int]) -> tuple[list[int], list[int]]:
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
    return lab, sorted(rank, key=rank.get)


def block_ranges(lab: list[int], order: list[int]) -> list[tuple[int, int]]:
    """The ``(start, stop)`` of each cluster of ``order`` in the reordered labels ``lab``."""
    ranges = []
    pos = 0
    for cid in order:
        cnt = lab.count(cid)
        ranges.append((pos, pos + cnt))
        pos += cnt
    return ranges


def pairwise_block_diagonalize(Ac: np.ndarray, max_cond: float = MAX_COND_DEFAULT) -> BlockHalf:
    """Block form of ``Ac`` by one ``ztrsyl`` decoupling per pair of clusters.

    When a pair's solution exceeds ``max_cond`` or ``ztrsyl`` fails, every
    cluster between the pair fuses and the sweep restarts.
    """
    Ac = np.atleast_2d(np.asarray(Ac, dtype=np.complex128))
    m = Ac.shape[0]
    T0, Z0 = scipy.linalg.schur(Ac, output="complex")
    lams = np.diag(T0)
    labels = _clusters(lams, SEP_REL * max(np.linalg.norm(Ac), 1e-300))

    while True:
        T = T0.copy()
        U = Z0.copy()
        lab, order = rank_reorder(T, U, labels.tolist())
        ranges = block_ranges(lab, order)
        merged = False
        # zero coupling blocks sweeping by superdiagonal span; wider spans
        # only touch blocks not yet processed, so finished zeros persist
        for span in range(1, len(ranges)):
            if merged:
                break
            for bi in range(len(ranges) - span):
                bj = bi + span
                i0, i1 = ranges[bi]
                j0, j1 = ranges[bj]
                T12 = T[i0:i1, j0:j1]
                if not T12.any():
                    continue
                Y = _decouple(T[i0:i1, i0:i1], T[j0:j1, j0:j1], T12)
                if Y is None or np.linalg.norm(Y, np.inf) > max_cond:
                    ids = order[bi : bj + 1]
                    labels[np.isin(labels, ids)] = ids[0]
                    merged = True
                    break
                T[:, j0:j1] += T[:, i0:i1] @ Y
                T[i0:i1, :] -= Y @ T[j0:j1, :]
                T[i0:i1, j0:j1] = 0.0
                U[:, j0:j1] += U[:, i0:i1] @ Y
        if merged:
            continue
        sizes = tuple(hi - lo for lo, hi in ranges)
        mask = Pattern(sizes).mask
        Uinv = lu_solve(U, np.eye(m, dtype=np.complex128))
        cond = float(np.linalg.norm(U, np.inf) * np.linalg.norm(Uinv, np.inf))
        DA = np.where(mask, T, 0.0)
        return BlockHalf(U=U, Uinv=Uinv, T=DA, sizes=sizes, cond_bound=cond)
