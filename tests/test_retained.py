"""What a result retains and what a solve peaks at: compact pattern midpoints, reciprocal
disks, broadcast zeros, and dense intermediates dropped after their last read."""

import tracemalloc

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    SylvesterSystem,
    full_krawczyk_solve,
    generate,
    itr_solve,
    mkw_block_solve,
    mkw_solve,
    transform_enclose,
)
from sylvenc.bench import retained_nbytes
from sylvenc.blockdiag import _block_side
from sylvenc.krawczyk import compute_N
from sylvenc.precond import _eig_memo, _eigen_donor, precondition
from sylvenc.serialize import (
    dump_json,
    enclosure_from_dict,
    enclosure_to_dict,
    imatrix_to_dict,
    load_json,
)


def _jordan_system(m, seed=0):
    """2x2 Jordan blocks in ``mid A``, a diagonal ``mid B`` and ``C = D = I``."""
    rng = np.random.default_rng(seed)
    J = np.zeros((m, m))
    idx = np.arange(m // 2)
    J[2 * idx, 2 * idx] = J[2 * idx + 1, 2 * idx + 1] = np.linspace(1.0, 3.0, m // 2)
    J[2 * idx, 2 * idx + 1] = 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    rad = np.full((m, m), 1e-8)
    eye = IMatrix(np.eye(m))
    return SylvesterSystem(
        A=IMatrix(Q @ J @ Q.T, rad),
        B=IMatrix(np.diag(rng.uniform(1.0, 2.0, m)), rad),
        C=eye,
        D=eye,
        F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
    )


def _units(nbytes, m, n):
    """``nbytes`` in complex m x n arrays."""
    return nbytes / (16 * m * n)


def test_mkw_and_itr_retain_at_most_seventeen_complex_arrays():
    # mkw: Fp, U, V, Vinv, Xtilde, Hbox, evaluated, the dense radii of Ap .. Dp,
    # the reciprocal disks and Xbox's radii: 12.5 complex m x m arrays; itr adds
    # its disks and its final rectangle, 3.5
    m = 64
    sys = generate(GenSpec(family="kyc31", m=m, alpha=1e-6, seed=0))
    mkw = mkw_solve(sys)
    itr = itr_solve(sys, initial=mkw)
    assert mkw.verified and itr.verified
    assert _units(retained_nbytes(mkw), m, m) <= 13.0
    assert _units(retained_nbytes(mkw, itr), m, m) <= 17.0


def test_blk_retains_no_dense_pattern_midpoint():
    m = 64
    blk = mkw_block_solve(_jordan_system(m))
    assert blk.verified and not blk.precond.diagonal
    assert _units(retained_nbytes(blk), m, m) <= 13.0


def _traced_peak(fn, *args, **kwargs):
    """``fn``'s result and its ``tracemalloc`` peak above the memory traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def warmed():
    # the first calls' one-time allocations stay out of the traced peaks
    small = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=0))
    itr_solve(small, initial=mkw_solve(small))
    mkw_block_solve(small)
    mkw_block_solve(_jordan_system(4))


@pytest.mark.parametrize("family", ["kyc31", "sylvester32"])
def test_solves_peak_at_a_few_complex_arrays_above_what_they_keep(warmed, family):
    # mkw and blk peak near 17.7 complex m x m arrays, itr near 10.1 above mkw's result;
    # a side's conjugated boxes alive beside the other side's, the four dense coefficient
    # boxes of the residual alive at once, or itr's start rectangle and complex quotient
    # midpoint kept beside their real parts, would each exceed a bound
    m = 64
    sys = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
    mkw, mkw_peak = _traced_peak(mkw_solve, sys)
    itr, itr_peak = _traced_peak(itr_solve, sys, initial=mkw)
    assert mkw.verified and itr.verified
    del mkw, itr
    blk, blk_peak = _traced_peak(mkw_block_solve, sys)
    assert blk.verified and blk.precond.diagonal
    assert _units(mkw_peak, m, m) <= 18.5
    assert _units(blk_peak, m, m) <= 18.5
    assert _units(itr_peak, m, m) <= 11.0


def test_blk_on_a_block_pattern_gathers_its_tile_blocks_one_coefficient_at_a_time(warmed):
    # about 20.85 arrays; 23.35 when the contraction term's tile sweep runs the midpoint
    # recurrence on its zero midpoint and returns a dense one, 24.2 when it also forms
    # dense complex pattern midpoints and gathers its zero midpoint into a dense stack,
    # 27.2 when the tile sweeps form all four dense pattern midpoints at once
    m = 64
    blk, peak = _traced_peak(mkw_block_solve, _jordan_system(m))
    assert blk.verified and not blk.precond.diagonal
    assert _units(peak, m, m) <= 21.35
    # the contraction term runs the radius sweep alone: its midpoint is a broadcast zero
    N = compute_N(blk.precond, blk.Xbox.rad)
    assert not any(N.mid.strides) and not N.mid.any()


def test_retained_bytes_count_each_buffer_once():
    a = np.ones((4, 4))
    box = IMatrix(a, a)
    assert retained_nbytes(box, (a[1:], {"k": a.T})) == a.nbytes
    zero = np.broadcast_to(np.zeros((), complex), (100, 100))
    assert retained_nbytes(zero) == 16


def _same(x: IMatrix, y: IMatrix) -> bool:
    return all(
        u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        for u, v in ((x.mid, y.mid), (x.rad, y.rad))
    )


@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
def test_dense_boxes_are_the_diagonal_projections(family):
    sys = generate(GenSpec(family=family, m=8, alpha=1e-6, seed=3))
    ps = transform_enclose(sys)
    eig_of = _eig_memo()
    left, right = _eigen_donor((sys.A, sys.C), eig_of), _eigen_donor((sys.B, sys.D), eig_of)
    Ap, Cp = (left.pattern.project(r) for r in left.raw)
    Bp, Dp = (right.pattern.project(r) for r in right.raw)
    for got, want in zip((ps.Ap, ps.Bp, ps.Cp, ps.Dp), (Ap, Bp, Cp, Dp)):
        assert _same(got, want)
    # only the diagonal is stored
    assert all(x.shape == (8,) for x in ps.mids)


def test_dense_boxes_are_the_block_projections():
    sys = _jordan_system(12)
    sides = [_block_side(pair, lower) for pair, lower in
             (((sys.A, sys.C), False), ((sys.B, sys.D), True))]
    ps = precondition(sys, lambda pair, lower: sides[lower])
    assert not ps.diagonal
    left, right = sides
    Ap, Cp = (left.pattern.project(r) for r in left.raw)
    Bp, Dp = (right.pattern.project(r) for r in right.raw)
    for got, want in zip((ps.Ap, ps.Bp, ps.Cp, ps.Dp), (Ap, Bp, Cp, Dp)):
        assert _same(got, want)
    # the entries of the triangular blocks are stored, row-major over the pattern
    assert ps.mids[0].tobytes() == Ap.mid[left.pattern.mask].tobytes()
    # the system keeps the donors' patterns
    assert ps.row_pattern is left.pattern and ps.col_pattern is right.pattern
    assert len(ps.mids[0]) == sum(s * (s + 1) // 2 for s in ps.row_sizes) < 12 * 12


@pytest.mark.parametrize("solver", ["mkw", "blk", "ver"])
def test_verification_box_has_a_broadcast_zero_midpoint(solver):
    sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=8))
    fn = {"mkw": mkw_solve, "blk": mkw_block_solve, "ver": full_krawczyk_solve}[solver]
    enc = fn(sys)
    assert enc.verified
    mid = enc.Xbox.mid
    assert not mid.flags.writeable and not mid.any() and mid.dtype == enc.Xtilde.dtype
    assert retained_nbytes(mid) == mid.itemsize
    doc = enclosure_to_dict(enc)
    # the document a dense zero midpoint writes
    dense = IMatrix(np.zeros(mid.shape, mid.dtype), enc.Xbox.rad)
    assert dump_json(doc["Xbox"]) == dump_json(imatrix_to_dict(dense))
    back = enclosure_from_dict(load_json(dump_json(doc)))
    assert _same(back.Xbox, enc.Xbox) and _same(back.evaluated, enc.evaluated)


def test_epsilon_inflation_midpoint_takes_no_memory():
    from sylvenc import epsilon_inflate

    e = epsilon_inflate(IMatrix(np.full((50, 50), 1.0 + 1.0j), np.ones((50, 50))))
    assert e.mid.dtype == np.complex128 and not e.mid.any() and not e.mid.flags.writeable
    assert retained_nbytes(e) == 16 + e.rad.nbytes
