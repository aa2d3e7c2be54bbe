"""Dense Kronecker reference solver and sampling oracles."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import sylvenc.baseline as baseline
import sylvenc.intervals as intervals
import sylvenc.linalg as linalg
from sylvenc import (
    GenSpec,
    IMatrix,
    IntervalOverflowError,
    SingularMatrixError,
    SizeCapError,
    SylvesterSystem,
    build_Q_kron,
    full_krawczyk_solve,
    generate,
    im_matmul,
    mkw_solve,
    point_solve,
    residual_membership,
    sample_solutions,
)
from sylvenc.baseline import (
    _draw_member,
    _kron_factor,
    _member_chunks,
    _midpoint_solver,
    _refine_members,
)
from sylvenc.intervals import _Operand

import ver_oracle
from disk_oracle import Disk, contraction_oracle, iv_mul
from exact_oracle import add as exact_add
from exact_oracle import exact, in_disk
from exact_oracle import mul as exact_mul


def _scalar_system():
    A = IMatrix(np.array([[2.0]]), np.array([[0.1]]))
    B = IMatrix(np.array([[3.0]]), np.array([[0.2]]))
    one = IMatrix(np.array([[1.0]]))
    F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
    return SylvesterSystem(A=A, B=B, C=one, D=one, F=F)


def _contraction_mag(sys):
    """ver's ``R`` and its bound on ``|I - R Q|`` for ``sys``, formed on a copy of ``R``."""
    ks = build_Q_kron(sys)
    return ks.R, baseline._contraction_mag(_with_copy(ks), sys)


def _with_copy(ks):
    """``ks`` with a copy of ``R``, for the contraction, which consumes ``R``."""
    return dataclasses.replace(ks, R=ks.R.copy())


def _well_posed_system(rng, m, n, cplx=False, alpha=1e-3, identity_pair=False):
    """Interval data ver verifies: dominant ``A`` and ``B``, small ``C`` and ``D``.

    Each radius is ``alpha`` times a uniform draw times the entry's modulus;
    ``identity_pair`` makes C and D point identities, as in kyc31.
    """

    def draw(r, c, scale):
        z = rng.normal(size=(r, c)) + (1j * rng.normal(size=(r, c)) if cplx else 0.0)
        return scale * z

    def box(mid):
        return IMatrix(mid, alpha * rng.uniform(size=mid.shape) * np.abs(mid))

    A = box(3.0 * np.eye(m) + draw(m, m, 0.3))
    B = box(2.0 * np.eye(n) + draw(n, n, 0.3))
    if identity_pair:
        C, D = IMatrix(np.eye(m)), IMatrix(np.eye(n))
    else:
        C, D = box(draw(m, m, 0.3)), box(draw(n, n, 0.3))
    return SylvesterSystem(A=A, B=B, C=C, D=D, F=box(draw(m, n, 1.0)))


class TestKroneckerAssembly:
    """ver's ``|I - R Q|``, built from the Kronecker factors, against the entrywise ``Q``."""

    def test_scalar_entry_matches_disk_product_sum(self):
        sys = _scalar_system()
        R, got = _contraction_mag(sys)
        first, second = (
            iv_mul(Disk(x.mid[0, 0], x.rad[0, 0]), Disk(y.mid[0, 0], y.rad[0, 0]))
            for x, y in ((sys.B, sys.A), (sys.D, sys.C))
        )
        assert R[0, 0] == 1.0 / (first.mid + second.mid)
        want = abs(1.0 - R[0, 0] * (first.mid + second.mid)) + abs(R[0, 0]) * (
            first.rad + second.rad
        )
        assert want <= got[0, 0] <= want * (1.0 + 1e-12) + 1e-15

    def test_radius_identity_of_the_kronecker_sum(self):
        # rad(R Q) >= |R| (|B^c|ox A^r + B^r ox Mag(A) + |D^c|ox C^r + D^r ox Mag(C))
        rng = np.random.default_rng(0)
        for _ in range(10):
            mats = []
            for _ in range(4):
                mats.append(
                    IMatrix(rng.normal(size=(2, 2)), np.abs(rng.normal(size=(2, 2))))
                )
            A, B, C, D = mats
            sys = SylvesterSystem(A=A, B=B, C=C, D=D, F=IMatrix(rng.normal(size=(2, 2))))
            ks = build_Q_kron(sys)
            magA = np.abs(A.mid) + A.rad
            magC = np.abs(C.mid) + C.rad
            expect = np.abs(ks.R) @ (
                np.kron(np.abs(B.mid.T), A.rad)
                + np.kron(B.rad.T, magA)
                + np.kron(np.abs(D.mid.T), C.rad)
                + np.kron(D.rad.T, magC)
            )
            got = ver_oracle.contraction(ks, sys).rad
            assert (got >= expect * (1.0 - 1e-12)).all()
            assert np.abs(got - expect).max() <= 1e-10 * max(1.0, expect.max())

    def test_point_system_collapses_radii(self):
        A = IMatrix(np.array([[2.0, 1.0], [0.0, 1.0]]))
        eye = IMatrix(np.eye(2))
        F = IMatrix(np.ones((2, 2)))
        sys = SylvesterSystem(A=A, B=eye, C=eye, D=eye, F=F)
        assert ver_oracle.contraction(build_Q_kron(sys), sys).rad.max() <= 1e-13
        assert _contraction_mag(sys)[1].max() <= 1e-13

    def test_size_cap(self):
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=1))
        with pytest.raises(SizeCapError, match="size cap"):
            build_Q_kron(sys, cap=10)

    @pytest.mark.parametrize("identity_pair", [False, True], ids=["dense", "C=D=I"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_contraction_bounds_the_entrywise_oracle(self, cplx, identity_pair):
        rng = np.random.default_rng(31 + 2 * cplx + identity_pair)
        for m, n in itertools.product(range(1, 5), repeat=2):
            sys = _well_posed_system(rng, m, n, cplx, identity_pair=identity_pair)
            R, got = _contraction_mag(sys)
            want, scale = contraction_oracle(R, sys)
            assert (got >= want).all(), (m, n)
            # and no looser than the oracle by more than the rounding pads
            assert (got - want <= 1e-12 * scale).all(), (m, n)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_one_sided_identity_bounds_the_entrywise_oracle(self, cplx):
        # sylvester32's pattern A X I + I X D: each pair has one point identity factor
        rng = np.random.default_rng(41 + cplx)
        for m, n in itertools.product(range(1, 5), repeat=2):
            sys = _well_posed_system(rng, m, n, cplx)
            sys = SylvesterSystem(
                A=sys.A, B=IMatrix(np.eye(n)), C=IMatrix(np.eye(m)), D=sys.B, F=sys.F
            )
            R, got = _contraction_mag(sys)
            want, scale = contraction_oracle(R, sys)
            assert (got >= want).all(), (m, n)
            assert (got - want <= 1e-12 * scale).all(), (m, n)

    def test_identity_factor_takes_one_product_and_its_pad(self):
        # the identity's side costs no product and no rounding count: each row
        # is im_matmul's one product with a row of R, up to the rounding of a
        # stacked product (the dropped count is 2m + 9 or 2n + 9 ETA, above 1e-14)
        sys = _well_posed_system(np.random.default_rng(5), 3, 4)
        ks = build_Q_kron(sys)
        r3 = ks.R.reshape(12, 4, 3)
        for x, y in ((sys.A, IMatrix(np.eye(4))), (IMatrix(np.eye(3)), sys.B)):
            mid, rad = baseline._kron_rows(_Operand(r3), x, y)
            for r in range(12):
                ref = im_matmul(IMatrix(r3[r]), x) if x is sys.A else im_matmul(y, IMatrix(r3[r]))
                np.testing.assert_allclose(mid[r], ref.mid, rtol=2e-15, atol=0)
                np.testing.assert_allclose(rad[r], ref.rad, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_power_of_two_scalar_factor_scales_exactly(self, cplx):
        # a point c I with c = +-2^e is as exact as the identity: the rows are c
        # times the identity's, bit for bit, and a pair of them is the point c R
        sys = _well_posed_system(np.random.default_rng(6), 3, 4, cplx)
        ks = build_Q_kron(sys)
        r3 = ks.R.reshape(12, 4, 3)
        r = _Operand(r3)
        dtype = sys.A.mid.dtype
        for c in (2.0**260, -0.5, 2.0**-3):
            eye_m, eye_n = IMatrix(np.eye(3, dtype=dtype)), IMatrix(np.eye(4, dtype=dtype))
            cm, cn = IMatrix(c * eye_m.mid), IMatrix(c * eye_n.mid)
            for x, y, sx, sy in ((sys.A, eye_n, sys.A, cn), (eye_m, sys.B, cm, sys.B)):
                mid, rad = baseline._kron_rows(r, x, y)
                smid, srad = baseline._kron_rows(r, sx, sy)
                assert np.array_equal(smid, c * mid) and np.array_equal(srad, abs(c) * rad)
            mid, rad = baseline._kron_rows(r, cm, cn)
            assert not rad.any() and np.array_equal(mid, c * c * r3)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_single_scalar_routes_keep_the_bits_of_the_point_product(self, cplx):
        # the reference is ver_oracle's own formula of one product of a point
        # stack and an interval factor, not _kron_rows: both routes of a pair
        # with one scalar factor, y (r x) and (y r) x, must keep its bits
        rng = np.random.default_rng(8 + cplx)
        for m, n in ((3, 4), (5, 3), (1, 2), (4, 4)):
            sys = _well_posed_system(rng, m, n, cplx)
            r3 = build_Q_kron(sys).R.reshape(m * n, n, m)
            r = _Operand(r3)
            for c in (1.0, -1.0, 0.25, 2.0**40, -(2.0**-7)):
                cm, cn = IMatrix(c * np.eye(m)), IMatrix(c * np.eye(n))
                for got, want in (
                    (baseline._kron_rows(r, sys.A, cn), ver_oracle.single_scalar_rows(r3, sys.A, c)),
                    (
                        baseline._kron_rows(r, cm, sys.B),
                        ver_oracle.single_scalar_rows(r3, sys.B, c, left=True),
                    ),
                ):
                    assert np.array_equal(got[0], want[0]), (m, n, c)
                    assert np.array_equal(got[1], want[1]), (m, n, c)

    def test_scalar_factor_leaving_the_normal_range_takes_the_general_product(self):
        sys = _well_posed_system(np.random.default_rng(7), 3, 3)
        r3 = build_Q_kron(sys).R.reshape(9, 3, 3)
        # 3 is no power of two: the pair takes the Kronecker radius identity
        cI = IMatrix(3.0 * np.eye(3))
        assert baseline._kron_rows(_Operand(r3), cI, cI)[1].min() > 0.0
        # with rows 0-3 of R times 2^1000, 2^-1060 scales the product r3[r] A
        # exactly on them and below the normal range on rows 4-8, which take
        # the general product by c I, each as on its own
        r3 = r3.copy()
        r3[:4] *= 2.0**1000
        c = 2.0**-1060
        cI = IMatrix(c * np.eye(3))
        mid, rad = baseline._kron_rows(_Operand(r3), sys.A, cI)
        imid, irad = intervals._general_product(_Operand(r3), _Operand(sys.A.mid, sys.A.rad))
        assert np.array_equal(mid[:4], c * imid[:4]) and np.array_equal(rad[:4], c * irad[:4])
        for i in range(4, 9):
            assert not intervals._scaled(c, imid[i], irad[i])[2]
            want = intervals._general_product(_Operand(cI.mid), _Operand(imid[i], irad[i]))
            assert np.array_equal(mid[i], want[0]) and np.array_equal(rad[i], want[1]), i
        assert baseline._Operand(np.eye(3) * 2.0**-1060).scale == 2.0**-1060
        assert baseline._Operand(np.eye(3) * 4.0, np.full((3, 3), 1e-9)).scale is None
        assert baseline._Operand(np.eye(3) * 2j).scale is None

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_scalar_pair_bounds_the_entrywise_oracle(self, cplx):
        rng = np.random.default_rng(51 + cplx)
        for m, n in itertools.product(range(1, 4), repeat=2):
            base = _well_posed_system(rng, m, n, cplx)
            for c in (0.25, 2.0**40):
                sys = SylvesterSystem(
                    A=base.A, B=base.B, C=IMatrix(c * np.eye(m)), D=IMatrix(c * np.eye(n)), F=base.F
                )
                R, got = _contraction_mag(sys)
                want, scale = contraction_oracle(R, sys)
                assert (got >= want).all(), (m, n, c)
                assert (got - want <= 1e-12 * scale).all(), (m, n, c)

    def test_ver_of_a_power_of_two_scaled_system_keeps_the_unscaled_bits(self):
        # A..D times 2^260 and F times 2^520 leave every member solution as it is
        sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-6, seed=0))
        s = 2.0**260
        scaled = SylvesterSystem(
            *(IMatrix(x.mid * s, x.rad * s) for x in (sys.A, sys.B, sys.C, sys.D)),
            F=IMatrix(sys.F.mid * s * s, sys.F.rad * s * s),
        )
        got, ref = full_krawczyk_solve(scaled), full_krawczyk_solve(sys)
        assert got.verified and ref.verified
        assert np.array_equal(got.evaluated.mid, ref.evaluated.mid)
        assert np.array_equal(got.evaluated.rad, ref.evaluated.rad)

    def test_R_is_c_ordered(self):
        sys = _well_posed_system(np.random.default_rng(2), 4, 3)
        R = build_Q_kron(sys).R
        assert R.flags.c_contiguous
        # so the rows reshape to the stack of the Kronecker rows without a copy
        assert np.shares_memory(R, R.reshape(12, 3, 4))
        qmid = np.kron(sys.B.mid.T, sys.A.mid) + np.kron(sys.D.mid.T, sys.C.mid)
        assert np.abs(R @ qmid - np.eye(12)).max() <= 1e-12


def _split_scaling_system():
    """C = c I, D = I with ``c = 2^-600``: ``c R`` is exact on the rows of ``R`` with j < 2 only.

    ``B = diag(c, c, b, b)`` with ``b = 3.1 2^500``, so ``R`` is block
    diagonal with blocks ``inv(b_j A + c I)``: ``inv(A + I) / c`` for ``j <
    2``, where ``c R`` is exact and of size 1, and about ``2^-500`` for ``j
    >= 2``, where ``c R`` loses bits below the normal range.
    """
    rng = np.random.default_rng(61)
    c, b = 2.0**-600, 3.1 * 2.0**500
    A = IMatrix(3.0 * np.eye(4) + 0.3 * rng.normal(size=(4, 4)), np.full((4, 4), 1e-6))
    B = IMatrix(np.diag([c, c, b, b]))
    C, D = IMatrix(c * np.eye(4)), IMatrix(np.eye(4))
    return SylvesterSystem(A=A, B=B, C=C, D=D, F=IMatrix(rng.normal(size=(4, 4))))


def _streamed_cases():
    rng = np.random.default_rng(60)
    kyc = generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0))
    s = 2.0**260
    return {
        "complex-5x3": _well_posed_system(rng, 5, 3, cplx=True),
        "complex-7x3": _well_posed_system(rng, 7, 3, cplx=True),
        "complex-C=D=I": _well_posed_system(rng, 7, 3, cplx=True, identity_pair=True),
        "kyc31-2^260": SylvesterSystem(
            *(IMatrix(x.mid * s, x.rad * s) for x in (kyc.A, kyc.B, kyc.C, kyc.D)),
            F=IMatrix(kyc.F.mid * s * s, kyc.F.rad * s * s),
        ),
        "split-scaling": _split_scaling_system(),
    }


def _traced_ver(sys):
    """ver's enclosure of ``sys`` and the ``tracemalloc`` peak of a second, traced run."""
    full_krawczyk_solve(sys)
    tracemalloc.start()
    try:
        enc = full_krawczyk_solve(sys)
        return enc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedContraction:
    """ver's ``|I - R Q|`` through row blocks of ``R``, against the unblocked formula."""

    CASES = _streamed_cases()

    @pytest.mark.parametrize("rows", [1, 4, None], ids=["rows=1", "rows=4", "default"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_equal_to_the_unblocked_formula(self, monkeypatch, name, rows):
        # mn = 15, 21, 21, 64 and 16: four-row blocks leave a short last block on the first three
        sys = self.CASES[name]
        ks = build_Q_kron(sys)
        mn, item = ks.R.shape[0], ks.R.itemsize
        if rows is not None:
            monkeypatch.setattr(baseline, "_VER_BLOCK_BYTES", rows * item * mn)
            assert baseline._block_rows(mn, item) == rows
        want = ver_oracle.contraction_mag(_with_copy(ks), sys)
        got = baseline._contraction_mag(ks, sys)
        assert np.array_equal(got, want)
        # written over R from its first byte, on complex data as float64 in its first half
        assert got.dtype == np.float64 and got.ctypes.data == ks.R.ctypes.data

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows=1", "rows=3", "default"])
    @pytest.mark.parametrize(
        "name", sorted(CASES) + ["gallery33-m16", "complex-16x16", "sylvester32-m32", "complex-32x32"]
    )
    def test_streamed_M_is_the_unblocked_product(self, monkeypatch, name, rows):
        # default blocks: one block up to m n = 64, then 128 rows of a real R at m n =
        # 256 and 32 at 1024, 64 and 16 rows of a complex one; blocks of fewer than
        # four rows of R (m n above 8192 on real data) take four
        if name in self.CASES:
            sys = self.CASES[name]
        elif name.startswith("complex"):
            m = int(name.split("x")[-1])
            sys = _well_posed_system(np.random.default_rng(63), m, m, cplx=True)
        else:
            family, m = name.split("-m")
            sys = generate(GenSpec(family=family, m=int(m), alpha=1e-6, seed=0))
        ks = build_Q_kron(sys)
        if rows is not None:
            monkeypatch.setattr(baseline, "_VER_BLOCK_BYTES", rows * ks.R.itemsize * ks.R.shape[0])
        X, M = baseline._ver_residual(ks, sys)
        want = ver_oracle.residual_product(ks, sys, X)
        assert np.array_equal(M.mid, want.mid) and np.array_equal(M.rad, want.rad)

    def test_scaling_is_decided_per_row_of_R(self, monkeypatch):
        # c R is exact on rows 0-7 of R and not on rows 8-15
        sys = _split_scaling_system()
        ks = build_Q_kron(sys)
        r3 = ks.R.reshape(16, 4, 4)
        c = 2.0**-600
        exact = [bool(intervals._scaled(c, r3[lo : lo + 4], None)[2].all()) for lo in (0, 4, 8, 12)]
        assert exact == [True, True, False, False]
        # rows 0-7 take the scaled form, with no radius from the pair (C, D);
        # rows 8-15 the core's general product r3[r] C, times D = I
        mid, rad = baseline._kron_rows(_Operand(r3), sys.C, sys.D)
        assert np.array_equal(mid[:8], c * r3[:8]) and not rad[:8].any()
        want = intervals._general_product(_Operand(r3[8:]), _Operand(sys.C.mid))
        assert np.array_equal(mid[8:], want[0]) and np.array_equal(rad[8:], want[1])
        # so the blocks decide alike whatever their height
        default = baseline._VER_BLOCK_BYTES
        got = []
        for block in (8 * 16, 4 * 8 * 16, default):
            monkeypatch.setattr(baseline, "_VER_BLOCK_BYTES", block)
            got.append(baseline._contraction_mag(_with_copy(ks), sys))
        assert all(np.array_equal(g, got[0]) for g in got[1:])
        assert np.array_equal(got[0], ver_oracle.contraction_mag(ks, sys))
        want, _ = contraction_oracle(ks.R, sys)
        assert (got[0] >= want).all()

    def test_overflow_raises(self, monkeypatch):
        # |R| has row sums 2, so |R| rad A overflows
        big = IMatrix(0.5 * (np.ones((2, 2)) - np.eye(2)), np.full((2, 2), 1e308))
        eye = IMatrix(np.eye(2))
        sys = SylvesterSystem(A=big, B=eye, C=eye, D=eye, F=IMatrix(np.ones((2, 2))))
        ks = build_Q_kron(sys)
        monkeypatch.setattr(baseline, "_VER_BLOCK_BYTES", 8 * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntervalOverflowError):
                ver_oracle.contraction(ks, sys)
            with pytest.raises(IntervalOverflowError):
                baseline._contraction_mag(ks, sys)

    def test_block_height_comes_from_the_byte_budget(self):
        assert baseline._block_rows(1024, 8) == 32
        assert baseline._block_rows(1024, 16) == 16
        assert baseline._block_rows(64, 8) == 512
        assert baseline._block_rows(10**6, 16) == 1

    @pytest.mark.parametrize(
        "m, cplx, family",
        [(16, False, None), (16, True, None), (32, False, "gallery33"), (32, False, "sylvester32")],
    )
    def test_peak_memory_is_R_wmag_and_one_block(self, m, cplx, family):
        # m n = 256 and 1024: R and |I - R Q| share one (m n)^2 array of R's
        # dtype, beside one block's working set; the unblocked formula held
        # nine.  sylvester32's one-sided identities take both routes of a pair
        # with a scalar factor
        if family is not None:
            sys = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
        else:
            sys = _well_posed_system(np.random.default_rng(62), m, m, cplx)
        item, mn = (16 if cplx else 8), m * m
        enc, peak = _traced_ver(sys)
        assert enc.verified
        mids, rads = baseline._VER_BLOCK_WORK
        block = (mids * item + rads * 8) * baseline._block_rows(mn, item) * mn
        assert peak <= item * mn**2 + block
        assert peak <= baseline._ver_bytes(sys)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("m", [16, 32])
    def test_budget_is_within_a_fifth_above_the_peak(self, m, cplx):
        # the size check refuses no more than a fifth beyond what ver holds
        sys = _well_posed_system(np.random.default_rng(64), m, m, cplx, alpha=1e-6)
        enc, peak = _traced_ver(sys)
        assert enc.verified
        assert 0.8 * baseline._ver_bytes(sys) <= peak <= baseline._ver_bytes(sys)

    def test_size_budget_refuses_before_allocating(self, monkeypatch):
        # m n = 1024: one (m n)^2 array is 8 MiB, the budget a tenth of that
        sys = generate(GenSpec(family="gallery33", m=32, alpha=1e-6, seed=0))
        need = baseline._ver_bytes(sys)
        assert need >= 8 * 1024**2
        monkeypatch.setattr(linalg, "KRON_BYTES", 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=f"about {need} bytes"):
                full_krawczyk_solve(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_uncapped_ver_above_the_default_budget_is_refused(self):
        # m n = 12,100: R alone would take 1.17 GB, above the 1 GiB budget
        sys = generate(GenSpec(family="kyc31", m=110, alpha=1e-6, seed=0))
        assert baseline._ver_bytes(sys) > linalg.KRON_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="budget"):
                full_krawczyk_solve(sys, cap=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_point_solve_recovers_planted_solution():
    rng = np.random.default_rng(2)
    m, n = 4, 3
    a = rng.normal(size=(m, m)) + 4.0 * np.eye(m)
    b = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
    c = np.eye(m)
    d = np.eye(n)
    x0 = rng.normal(size=(m, n))
    f = a @ x0 @ b + c @ x0 @ d
    got = point_solve(a, b, c, d, f)
    assert np.abs(got - x0).max() <= 1e-10 * max(1.0, np.abs(x0).max())


def _point_coefficients(rng, m, n, cplx=False):
    def draw(r, c):
        return rng.normal(size=(r, c)) + (1j * rng.normal(size=(r, c)) if cplx else 0.0)

    return draw(m, m), draw(n, n), draw(m, m), draw(n, n), draw(m, n)


def _rel_diff(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestKroneckerMidpoint:
    """``mid Q`` assembled in one array: the two whole ``kron`` terms, added, bit for bit."""

    @pytest.mark.parametrize("kinds", ["rrrr", "cccc", "rrcc", "ccrr", "crrc"])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (6, 1), (1, 6), (8, 8)])
    @pytest.mark.parametrize("rows", [1, 5, None], ids=["rows=1", "rows=5", "default"])
    def test_bit_equal_to_the_sum_of_two_krons(self, monkeypatch, m, n, kinds, rows):
        # kinds: real or complex A, B, C, D; blocks of one row take one row of C at a
        # time, five rows whole rows of D^T at m = 1 and pieces of C's rows above
        rng = np.random.default_rng(70)
        mats = [
            rng.normal(size=(k, k)) + (1j * rng.normal(size=(k, k)) if c == "c" else 0.0)
            for c, k in zip(kinds, (m, n, m, n))
        ]
        A, B, C, D = mats
        want = linalg.kron(B.T, A) + linalg.kron(D.T, C)
        if rows is not None:
            monkeypatch.setattr(baseline, "_VER_BLOCK_BYTES", rows * want.itemsize * m * n)
        got = baseline._kron_mid(A, B, C, D)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)
        # and from the transposed factors, the transpose: point_solve's Fortran-ordered Q
        qt = baseline._kron_mid(A.T, B.T, C.T, D.T)
        assert qt.flags.c_contiguous and np.array_equal(qt.T, want)

    def test_kron_factor_factors_Q_in_place(self):
        # m n = 225 complex: Q is two real (m n)^2 arrays, beside one block of its
        # second term; getrf copying Q made it four
        a, b, c, d, f = _point_coefficients(np.random.default_rng(71), 15, 15, cplx=True)
        want = linalg.kron(b.T, a) + linalg.kron(d.T, c)
        tracemalloc.start()
        try:
            solve = _kron_factor(a, b, c, d, np.complex128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 225**2
        # the LU of the same matrix as a factorization of a copy of it
        lu, piv = scipy.linalg.lu_factor(want)
        rhs = f.T.reshape(-1, 1)
        ref = scipy.linalg.lu_solve((lu, piv), rhs)
        assert np.array_equal(solve(f[None])[0], ref.reshape(15, 15).T)


def _kron_point_solve(a, b, c, d, f):
    """The Kronecker LU solve at any size, with one refinement step: the QZ path's reference."""
    solve = _kron_factor(a, b, c, d, np.result_type(a, b, c, d, f))
    x = solve(f[None])[0]
    return x + solve((f - a @ x @ b - c @ x @ d)[None])[0]


class TestPointSolve:
    """The QZ recurrence above the Kronecker threshold against the Kronecker LU."""

    @pytest.mark.parametrize("m, n", [(20, 14), (14, 20), (18, 18)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_matches_kronecker_reference(self, m, n, cplx):
        assert m * n > baseline._KRON_MAX_UNKNOWNS
        rng = np.random.default_rng(m + 10 * n + cplx)
        a, b, c, d, f = _point_coefficients(rng, m, n, cplx)
        got = point_solve(a, b, c, d, f)
        assert got.dtype == (np.complex128 if cplx else np.float64)
        assert _rel_diff(got, _kron_point_solve(a, b, c, d, f)) <= 1e-10

    @pytest.mark.parametrize("which", ["C=D=I", "B=C=I", "A=I"])
    def test_identity_sides_match_kronecker_reference(self, which):
        rng = np.random.default_rng(11)
        m, n = 16, 18
        a, b, c, d, f = _point_coefficients(rng, m, n)
        if which == "C=D=I":
            c, d = np.eye(m), np.eye(n)
        elif which == "B=C=I":
            b, c = np.eye(n), np.eye(m)
        else:
            a = np.eye(m)
        got = point_solve(a, b, c, d, f)
        assert _rel_diff(got, _kron_point_solve(a, b, c, d, f)) <= 1e-10

    def test_singular_c_with_regular_pencil(self):
        rng = np.random.default_rng(12)
        m, n = 18, 16
        a, b, c, d, f = _point_coefficients(rng, m, n)
        c[:, 3] = 0.0
        d[5, :] = 0.0
        got = point_solve(a, b, c, d, f)
        assert _rel_diff(got, _kron_point_solve(a, b, c, d, f)) <= 1e-10

    def test_singular_pencil_raises(self):
        rng = np.random.default_rng(13)
        m, n = 18, 16
        a, b, c, d, f = _point_coefficients(rng, m, n)
        a[:, 4] = 0.0
        c[:, 4] = 0.0
        with pytest.raises(SingularMatrixError):
            point_solve(a, b, c, d, f)

    def test_singular_pencil_member_skipped_with_warning(self):
        rng = np.random.default_rng(14)
        m = 20
        a, b, c, d, f = _point_coefficients(rng, m, m)
        a[:, 0] = 0.0
        c[:, 0] = 0.0
        rad = np.full((m, m), 1e-6)
        rad[:, 0] = 0.0  # every member keeps the shared zero column
        sys = SylvesterSystem(
            A=IMatrix(a, rad), B=IMatrix(b, rad), C=IMatrix(c, rad), D=IMatrix(d), F=IMatrix(f)
        )
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            sols = sample_solutions(sys, n_samples=3, seed=1)
        assert sols == []
        assert sum("singular member" in str(w.message) for w in rec) == 3

    def test_sampled_members_match_kronecker_solves(self):
        sys = generate(GenSpec(family="gallery33", m=20, alpha=1e-4, seed=2))
        got = sample_solutions(sys, n_samples=4, seed=5)
        # the same Philox stream, drawn member by member in coefficient order
        rng = np.random.Generator(np.random.Philox(5))
        for x in got:
            members = [_draw_member(mat, rng) for mat in (sys.A, sys.B, sys.C, sys.D, sys.F)]
            assert _rel_diff(x, _kron_point_solve(*members)) <= 1e-10

    def test_no_kronecker_product_above_threshold(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kron called")

        monkeypatch.setattr(baseline, "kron", refuse)
        rng = np.random.default_rng(15)
        m = 60
        a, b, c, d, f = _point_coefficients(rng, m, m)
        x = point_solve(a, b, c, d, f)
        resid = f - a @ x @ b - c @ x @ d
        scale = (np.abs(a) @ np.abs(x) @ np.abs(b) + np.abs(c) @ np.abs(x) @ np.abs(d)).max()
        assert np.abs(resid).max() <= 1e-12 * scale


class TestSampling:
    def test_vertex_mode_hits_scalar_endpoints(self):
        A = IMatrix(np.array([[2.0]]))
        one = IMatrix(np.array([[1.0]]))
        F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
        sys = SylvesterSystem(A=A, B=one, C=one, D=one, F=F)
        sols = sorted(float(x[0, 0]) for x in sample_solutions(sys, mode="vertex"))
        assert len(sols) == 2
        assert abs(sols[0] - 1.9) <= 1e-12 and abs(sols[1] - 2.1) <= 1e-12

    def test_random_mode_is_reproducible(self):
        sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-4, seed=3))
        a = sample_solutions(sys, n_samples=5, seed=9)
        b = sample_solutions(sys, n_samples=5, seed=9)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_singular_members_are_skipped_with_warning(self):
        # the lower endpoint of A is the zero matrix, a singular member
        A = IMatrix(np.array([[1.0]]), np.array([[1.0]]))
        one = IMatrix(np.array([[1.0]]))
        zero = IMatrix(np.array([[0.0]]))
        F = IMatrix(np.array([[1.0]]))
        sys = SylvesterSystem(A=A, B=one, C=zero, D=one, F=F)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            sols = sample_solutions(sys, mode="vertex")
        assert any("singular member" in str(w.message) for w in rec)
        assert len(sols) == 1  # two sign patterns, one skipped

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sample_solutions(_scalar_system(), mode="grid")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_solutions(_scalar_system(), n_samples=-5)
        assert sample_solutions(_scalar_system(), n_samples=0) == []


def _interval_system(rng, m, n, cplx=False, rad=1e-3):
    mids = _point_coefficients(rng, m, n, cplx)
    return SylvesterSystem(*(IMatrix(mid, rad * rng.uniform(size=mid.shape)) for mid in mids))


def _old_members(sys, n_samples, seed, mode):
    """Member coefficients drawn one member at a time, as sample_solutions did."""
    rng = np.random.Generator(np.random.Philox(seed))
    mats = (sys.A, sys.B, sys.C, sys.D, sys.F)
    if mode == "random":
        return [[_draw_member(mat, rng) for mat in mats] for _ in range(n_samples)]
    masks = [mat.rad > 0 for mat in mats]
    k = int(sum(mask.sum() for mask in masks))
    if k <= baseline.VERTEX_ENUM_LIMIT:
        patterns = itertools.product((-1.0, 1.0), repeat=k)
    else:
        patterns = (tuple(rng.choice((-1.0, 1.0), size=k)) for _ in range(n_samples))
    members = []
    for pat in patterns:
        member, pos = [], 0
        for mat, mask in zip(mats, masks):
            signs = np.zeros(mat.shape)
            cnt = int(mask.sum())
            signs[mask] = pat[pos : pos + cnt]
            pos += cnt
            member.append(mat.mid + signs * mat.rad)
        members.append(member)
    return members


def _count_point_solves(monkeypatch):
    calls = []
    solve = baseline.point_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(baseline, "point_solve", counted)
    return calls


class TestBatchedSampling:
    """Members solved together by sweeps on one midpoint factorization."""

    @pytest.mark.parametrize("mode", ["random", "vertex"])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("chunk_bytes", [None, 2**14])
    def test_members_bit_identical_to_per_member_draws(self, monkeypatch, mode, cplx, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(baseline, "_SAMPLE_BYTES", chunk_bytes)
        rng = np.random.default_rng(20 + cplx)
        sys = _interval_system(rng, 3, 2, cplx)
        if mode == "vertex" and not cplx:
            # at most VERTEX_ENUM_LIMIT radii: every sign pattern, in order
            rad = np.zeros((3, 3))
            rad[0, :2] = 1e-3
            points = (IMatrix(mat.mid) for mat in (sys.B, sys.C, sys.D, sys.F))
            sys = SylvesterSystem(IMatrix(sys.A.mid, rad), *points)
        old = _old_members(sys, 40, 7, mode)
        chunks = list(_member_chunks(sys, 40, np.random.Generator(np.random.Philox(7)), mode))
        if chunk_bytes is not None and len(old) > 10:
            assert len(chunks) > 1
        new = [[coef[i] for coef in chunk] for chunk in chunks for i in range(len(chunk[0]))]
        assert len(new) == len(old) == (4 if mode == "vertex" and not cplx else 40)
        for got, ref in zip(new, old):
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and (g == r).all()

    @pytest.mark.parametrize(
        "m, n, cplx",
        [(3, 5, False), (6, 4, True), (20, 14, False), (14, 20, True), (18, 18, False)],
    )
    def test_batched_solutions_match_point_solve(self, monkeypatch, m, n, cplx):
        sys = _interval_system(np.random.default_rng(m + n), m, n, cplx, rad=1e-5)
        ref = [baseline.point_solve(*member) for member in _old_members(sys, 12, 3, "random")]
        calls = _count_point_solves(monkeypatch)
        got = sample_solutions(sys, n_samples=12, seed=3)
        assert calls == []
        assert len(got) == len(ref)
        for x, r in zip(got, ref):
            assert x.dtype == r.dtype
            assert _rel_diff(x, r) <= 1e-10

    @pytest.mark.parametrize("m", [8, 18])
    @pytest.mark.parametrize("which", ["C=D=I", "B=C=I", "singular C"])
    def test_structured_sides_match_point_solve(self, monkeypatch, m, which):
        rng = np.random.default_rng(30 + m)
        a, b, c, d, f = _point_coefficients(rng, m, m + 2)
        rad_m = 1e-6 * rng.uniform(size=(m, m))
        rad_n = 1e-6 * rng.uniform(size=(m + 2, m + 2))
        eye_m, eye_n = IMatrix(np.eye(m)), IMatrix(np.eye(m + 2))
        A, B, D = IMatrix(a, rad_m), IMatrix(b, rad_n), IMatrix(d, rad_n)
        if which == "C=D=I":
            sys = SylvesterSystem(A, B, eye_m, eye_n, IMatrix(f, np.full(f.shape, 1e-6)))
        elif which == "B=C=I":
            sys = SylvesterSystem(A, eye_n, eye_m, D, IMatrix(f, np.full(f.shape, 1e-6)))
        else:
            # C singular in every member, the pencil (A, C) regular
            c[:, 3] = 0.0
            rad_c = rad_m.copy()
            rad_c[:, 3] = 0.0
            sys = SylvesterSystem(A, B, IMatrix(c, rad_c), D, IMatrix(f, np.full(f.shape, 1e-6)))
        ref = [baseline.point_solve(*member) for member in _old_members(sys, 6, 4, "random")]
        calls = _count_point_solves(monkeypatch)
        got = sample_solutions(sys, n_samples=6, seed=4)
        assert calls == []
        for x, r in zip(got, ref):
            assert _rel_diff(x, r) <= 1e-10

    @pytest.mark.parametrize("rad", [0.9, 1.8])
    def test_non_halving_members_fall_back(self, monkeypatch, rad):
        # a X = f with a in [1 - rad, 1 + rad]: a sweep on the midpoint a = 1
        # multiplies the error by 1 - a, of size rad at both vertices; at 1.8
        # the sweeps diverge
        A = IMatrix(np.array([[1.0]]), np.array([[rad]]))
        one = IMatrix(np.array([[1.0]]))
        zero = IMatrix(np.array([[0.0]]))
        sys = SylvesterSystem(A=A, B=one, C=zero, D=one, F=IMatrix(np.array([[2.0]])))
        X, ok, sweeps = _refine_members(
            _midpoint_solver(sys), *next(_member_chunks(sys, 0, None, "vertex"))
        )
        assert not ok.any() and sweeps == 1
        calls = _count_point_solves(monkeypatch)
        sols = sample_solutions(sys, mode="vertex")
        assert len(calls) == 2
        ref = [baseline.point_solve(*member) for member in _old_members(sys, 0, 0, "vertex")]
        assert [(x == r).all() for x, r in zip(sols, ref)] == [True, True]

    def test_fallbacks_keep_member_order(self, monkeypatch):
        # radius 0.8: members near the ends of [0.2, 1.8] fall back, the others converge
        A = IMatrix(np.array([[1.0]]), np.array([[0.8]]))
        one = IMatrix(np.array([[1.0]]))
        zero = IMatrix(np.array([[0.0]]))
        sys = SylvesterSystem(A=A, B=one, C=zero, D=one, F=IMatrix(np.array([[2.0]]), 0.5))
        ref = [baseline.point_solve(*member) for member in _old_members(sys, 50, 8, "random")]
        calls = _count_point_solves(monkeypatch)
        got = sample_solutions(sys, n_samples=50, seed=8)
        assert 0 < len(calls) < 50
        assert [_rel_diff(x, r) <= 1e-12 for x, r in zip(got, ref)] == [True] * 50

    def test_singular_midpoint_falls_back_for_every_member(self, monkeypatch):
        # mid A = 0: the midpoint operator is singular, no member is
        A = IMatrix(np.array([[0.0]]), np.array([[1.0]]))
        one = IMatrix(np.array([[1.0]]))
        zero = IMatrix(np.array([[0.0]]))
        sys = SylvesterSystem(A=A, B=one, C=zero, D=one, F=IMatrix(np.array([[1.0]])))
        assert _midpoint_solver(sys) is None
        calls = _count_point_solves(monkeypatch)
        sols = sorted(float(x[0, 0]) for x in sample_solutions(sys, mode="vertex"))
        assert len(calls) == 2 and sols == [-1.0, 1.0]

    def test_chunked_sampling_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(baseline, "_SAMPLE_BYTES", 2**20)
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=1))
        k = 20000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sols = sample_solutions(sys, n_samples=k, seed=2)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sols) == k
        # beyond the result, only a few chunk budgets' worth at any time; one
        # stack of all members would take k * 336 bytes of coefficients alone
        assert peak - kept <= 4 * 2**20
        assert kept - before >= k * 16 * 8


class TestResidualMembership:
    def test_interior_point_accepted(self):
        A = IMatrix(np.array([[2.0]]))
        one = IMatrix(np.array([[1.0]]))
        F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
        sys = SylvesterSystem(A=A, B=one, C=one, D=one, F=F)
        assert residual_membership(sys, np.array([[2.05]]))

    def test_outside_point_rigorously_excluded(self):
        A = IMatrix(np.array([[2.0]]))
        one = IMatrix(np.array([[1.0]]))
        F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
        sys = SylvesterSystem(A=A, B=one, C=one, D=one, F=F)
        assert not residual_membership(sys, np.array([[3.0]]))
        assert not residual_membership(sys, np.array([[1.8999]]))

    def test_overflowing_residual_raises(self):
        big = IMatrix(np.array([[1e308]]))
        one = IMatrix(np.array([[1.0]]))
        sys = SylvesterSystem(A=big, B=one, C=one, D=one, F=big)
        with np.errstate(over="ignore"), pytest.raises(IntervalOverflowError):
            residual_membership(sys, np.array([[-1.0]]))

    def test_answers_match_chained_subtraction(self):
        # complex data, points on both sides of the boundary
        rng = np.random.default_rng(16)
        m, n = 5, 4
        mats = [
            IMatrix(mid, 1e-3 * np.abs(rng.normal(size=mid.shape)))
            for mid in _point_coefficients(rng, m, n, cplx=True)
        ]
        sys = SylvesterSystem(*mats)
        eta = 2.0**-50
        answers = set()
        for x in sample_solutions(sys, n_samples=20, seed=3):
            for scale in (0.0, 1e-4, 1e-2):
                y = x + scale * rng.normal(size=x.shape)
                xb = IMatrix(y)
                lefts = (sys.A @ xb @ sys.B, sys.A @ (xb @ sys.B))
                rights = (sys.C @ xb @ sys.D, sys.C @ (xb @ sys.D))
                expect = all(
                    (np.abs(r.mid) * (1.0 - 4.0 * eta) <= r.rad).all()
                    for r in (sys.F - left - right for left in lefts for right in rights)
                )
                assert residual_membership(sys, y) == expect
                answers.add(expect)
        assert answers == {True, False}

    @pytest.mark.parametrize("cplx", [False, True])
    def test_stacked_answers_match_single_calls(self, cplx):
        rng = np.random.default_rng(17 + cplx)
        if cplx:
            sys = _interval_system(rng, 5, 4, cplx=True)
        else:
            sys = generate(GenSpec(family="gallery33", m=6, alpha=1e-4, seed=3))
        pts = []
        for x in sample_solutions(sys, n_samples=20, seed=3):
            for scale in (0.0, 1e-5, 1e-4, 1e-2):
                pts.append(x + scale * rng.normal(size=x.shape))
        stack = np.stack(pts)
        got = residual_membership(sys, stack)
        assert got.shape == (len(pts),) and got.dtype == bool
        assert got.tolist() == [residual_membership(sys, x) for x in pts]
        assert set(got.tolist()) == {True, False}
        with pytest.raises(ValueError):
            residual_membership(sys, stack[:, :, :-1])

    @pytest.mark.parametrize("cplx", [False, True])
    def test_residual_boxes_are_those_of_the_interval_subtraction(self, cplx):
        rng = np.random.default_rng(19 + cplx)
        m, n = 5, 4
        sys = _interval_system(rng, m, n, cplx=cplx)
        pts = rng.normal(size=(3, m, n))
        if cplx:
            pts = pts + 1j * rng.normal(size=pts.shape)

        def reference(x):
            xb = IMatrix(x)
            lefts = (sys.A @ xb @ sys.B, sys.A @ (xb @ sys.B))
            rights = (sys.C @ xb @ sys.D, sys.C @ (xb @ sys.D))
            return [sys.F - left - right for left in lefts for right in rights]

        def same(boxes, ref):
            return len(boxes) == len(ref) and all(
                np.array_equal(amid, np.abs(r.mid)) and np.array_equal(rad, r.rad)
                for (amid, rad), r in zip(boxes, ref)
            )

        def boxes_of(xb):
            return list(baseline._boxes(sys.F, baseline._residual_products(sys, xb)))

        for x in pts:
            assert same(boxes_of(IMatrix(x)), reference(x))
        stack = IMatrix._from_kernel(pts, np.zeros(pts.shape))
        boxes = boxes_of(stack)
        for i, x in enumerate(pts):
            assert same([(amid[i], rad[i]) for amid, rad in boxes], reference(x))

    def test_stack_raises_where_a_single_call_raises(self):
        big = IMatrix(np.array([[1e308]]))
        one = IMatrix(np.array([[1.0]]))
        sys = SylvesterSystem(A=big, B=one, C=one, D=one, F=big)
        assert residual_membership(sys, np.array([[[1.0]]])).tolist() == [True]
        with np.errstate(over="ignore"), pytest.raises(IntervalOverflowError):
            residual_membership(sys, np.array([[[1.0]], [[-1.0]]]))

    def test_sampled_solutions_always_pass(self):
        sys = generate(GenSpec(family="sylvester32", m=4, alpha=1e-4, seed=4))
        for x in sample_solutions(sys, n_samples=30, seed=5):
            assert residual_membership(sys, x)


def _membership_reference(sys, x):
    """``residual_membership`` of one point by interval operations: ``im_matmul``
    raises on a non-finite product, the subtraction on a non-finite box, and
    the boxes answer in order, the first rejection ending the call."""
    xb = IMatrix(x)
    lefts = (sys.A @ xb @ sys.B, sys.A @ (xb @ sys.B))
    rights = (sys.C @ xb @ sys.D, sys.C @ (xb @ sys.D))
    for left in lefts:
        for right in rights:
            box = sys.F - left - right
            if not (np.abs(box.mid) * (1.0 - 4 * 2.0**-50) <= box.rad).all():
                return False
    return True


def _outcome(call):
    try:
        return call()
    except IntervalOverflowError:
        return "overflow"


class TestResidualMembershipOnPreparedOperands:
    """One call prepares each operand once; it answers and raises as interval operations do."""

    def test_one_call_prepares_each_coefficient_once_and_makes_eight_products(self, monkeypatch):
        # no coefficient is an exact scalar, so both chains of both pairs are formed;
        # TestExactScalarResiduals counts the products of the scalar layouts
        sys = _interval_system(np.random.default_rng(3), 4, 3, cplx=True)
        x = sample_solutions(sys, n_samples=3, seed=4)
        prepared, products, core = [], [0], baseline._product

        class Counted(baseline._Operand):
            __slots__ = ()

            def __init__(self, mid, rad=None):
                prepared.append(mid)
                super().__init__(mid, rad)

        def product(a, b):
            products[0] += 1
            return core(a, b)

        # the module reaches im_matmul's kernel through the product core alone
        assert not hasattr(baseline, "im_matmul")
        monkeypatch.setattr(baseline, "_Operand", Counted)
        monkeypatch.setattr(baseline, "_product", product)
        for arg in (x[0], np.stack(x)):
            prepared.clear()
            products[0] = 0
            assert np.all(residual_membership(sys, arg))
            assert products[0] == 8
            # X, A, B, C and D once each, and the four inner products once each
            assert len(prepared) == 9
            for coeff in (sys.A, sys.B, sys.C, sys.D):
                assert sum(mid is coeff.mid for mid in prepared) == 1

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_answers_are_those_of_interval_operations(self, cplx):
        rng = np.random.default_rng(23 + cplx)
        for m, n in ((1, 1), (3, 2), (5, 4)):
            sys = _interval_system(rng, m, n, cplx=cplx, rad=1e-6)
            members = sample_solutions(sys, n_samples=6, seed=m)
            pts = members + [x + 1e-3 * rng.normal(size=x.shape) for x in members]
            want = [_membership_reference(sys, x) for x in pts]
            assert True in want and False in want
            assert [residual_membership(sys, x) for x in pts] == want
            assert residual_membership(sys, np.stack(pts)).tolist() == want

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "complex"])
    def test_raises_where_interval_operations_raise(self, unit):
        def system(a, b, f=0.0, c=1.0, d=1.0):
            return SylvesterSystem(*(IMatrix(np.array([[v]]) * unit) for v in (a, b, c, d, f)))

        one = np.array([[1.0]])
        cases = [
            # A X overflows and (A X) B = inf 0 is a NaN: every box is non-finite
            (system(1e200, 0.0), one * 1e200),
            # only A (X B) overflows; the first box, with (A X) B, rejects first
            (system(1e-200, 1e200), one * 1e200),
            # only (A X) B overflows; the boxes with it come first
            (system(1e200, 1e-200), one * 1e200),
            # finite products whose box sum overflows
            (system(1.0, 1.0, f=-1e308), one * 1e308),
            # a box that rejects before a later one could overflow: no error
            (system(1.0, 1.0, f=5.0), one),
            # a member: A X B + C X D = (2 3 + 1) unit^2 = F
            (system(2.0, 3.0, f=7.0 * unit), one),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = []
            for sys, x in cases:
                want = _outcome(lambda: _membership_reference(sys, x))
                assert _outcome(lambda: residual_membership(sys, x)) == want
                outcomes.append(want)
                # a stack raises when one of its samples raises alone
                stack = np.stack([x, one * 0.5])
                alone = [_outcome(lambda: _membership_reference(sys, y)) for y in stack]
                got = _outcome(lambda: residual_membership(sys, stack).tolist())
                assert got == ("overflow" if "overflow" in alone else alone), (sys, x)
        assert outcomes == ["overflow", "overflow", "overflow", "overflow", False, True]


def _chain_boxes(sys, x):
    """The four boxes ``F - left - right`` by interval operations, both chains of each pair.

    The residual boxes ``residual_membership`` formed before exact scalar
    coefficients skipped their products: ``|mid|`` and radius per box.
    """
    xb = IMatrix(x)
    lefts = (sys.A @ xb @ sys.B, sys.A @ (xb @ sys.B))
    rights = (sys.C @ xb @ sys.D, sys.C @ (xb @ sys.D))
    return [
        (np.abs(box.mid), box.rad)
        for box in (sys.F - left - right for left in lefts for right in rights)
    ]


# scalar coefficients: exact powers of two (the identity and its negative
# among them), one that is not a power of two, and a dense matrix (None)
_SCALARS = (1.0, 8.0, 0.125, -1.0, 3.0, None)


def _scalar_pair_system(rng, m, n, c, d, cplx=False, rad=1e-6, a=None, b=None):
    """An interval system whose C (D) is the point ``c I`` (``d I``), or random for None."""

    def draw(r, k):
        return rng.normal(size=(r, k)) + (1j * rng.normal(size=(r, k)) if cplx else 0.0)

    def box(mid):
        return IMatrix(mid, rad * rng.uniform(size=mid.shape) * np.abs(mid))

    def coeff(scalar, k):
        return box(draw(k, k)) if scalar is None else IMatrix(scalar * np.eye(k))

    A = coeff(a, m) if a is not None else box(3.0 * np.eye(m) + draw(m, m))
    B = coeff(b, n) if b is not None else box(2.0 * np.eye(n) + draw(n, n))
    return SylvesterSystem(A=A, B=B, C=coeff(c, m), D=coeff(d, n), F=box(draw(m, n)))


def _exact(s):
    return s is not None and s in (1.0, 8.0, 0.125, -1.0)


class TestExactScalarResiduals:
    """Point scalar coefficients ``c I``, ``c = +-2^e``, are exact scalings in the audit."""

    @staticmethod
    def _boxes(sys, x):
        products = baseline._residual_products(sys, IMatrix(x))
        return [(a.copy(), r.copy()) for a, r in baseline._boxes(sys.F, products)]

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_boxes_shrink_and_true_implies_the_chains_true(self, cplx):
        rng = np.random.default_rng(41 + cplx)
        seen = set()
        for trial in range(24):
            c, d = (_SCALARS[i] for i in rng.integers(len(_SCALARS), size=2))
            sys = _scalar_pair_system(rng, 4, 3, c, d, cplx=cplx, rad=1e-4)
            members = sample_solutions(sys, n_samples=4, seed=trial)
            pts = members + [x + 1e-4 * rng.normal(size=x.shape) for x in members]
            for x in pts:
                got, ref = self._boxes(sys, x), _chain_boxes(sys, x)
                # every chain box has a box of the same midpoint and no larger radius
                for amid, rad in ref:
                    assert any(
                        np.array_equal(g_amid, amid) and (g_rad <= rad).all()
                        for g_amid, g_rad in got
                    ), (c, d)
                if not (_exact(c) or _exact(d)):
                    assert all(
                        np.array_equal(ga, ra) and np.array_equal(gr, rr)
                        for (ga, gr), (ra, rr) in zip(got, ref)
                    ) and len(got) == 4
                answer = residual_membership(sys, x)
                want = _membership_reference(sys, x)
                assert not answer or want
                seen.add((answer, want))
            assert residual_membership(sys, np.stack(pts)).tolist() == [
                residual_membership(sys, x) for x in pts
            ]
        assert {(True, True), (False, False)} <= seen

    @pytest.mark.parametrize("layout, boxes", [
        ((None, None, None, None), 4),  # gallery33
        ((None, None, 1.0, 1.0), 2),  # kyc31: C = D = I
        ((None, 1.0, 1.0, None), 1),  # sylvester32: B = C = I
        ((0.5, 4.0, -1.0, 1.0), 1),
    ])
    def test_one_box_per_distinct_pair_of_products(self, layout, boxes):
        a, b, c, d = layout
        sys = _scalar_pair_system(np.random.default_rng(43), 3, 2, c, d, a=a, b=b)
        x = np.random.default_rng(44).normal(size=(3, 2))
        assert len(self._boxes(sys, x)) == boxes

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_exact_member_solutions_always_pass(self, cplx):
        # X and the member coefficients are chosen first and F_k = A_k X B_k + C_k X D_k
        # formed exactly, so X solves a member exactly; its F disk is widened to hold F_k
        rng = np.random.default_rng(45 + cplx)
        unit = 1j if cplx else 0.0
        for trial in range(40):
            m, n = (int(v) for v in rng.integers(1, 4, size=2))
            c, d = (_SCALARS[i] for i in rng.integers(len(_SCALARS), size=2))
            base = _scalar_pair_system(rng, m, n, c, d, cplx=cplx, rad=2.0**-10)
            x = np.round(rng.normal(size=(m, n)) * 64) / 64
            x = x + unit * np.round(rng.normal(size=(m, n)) * 64) / 64
            # a vertex member: mid + s rad for a real sign s, entry by entry and exactly
            A, B, C, D = (
                _exact_mat_add(
                    _exact_entries(mat.mid),
                    _exact_entries(rng.choice((-1.0, 1.0), size=mat.shape) * mat.rad),
                )
                for mat in (base.A, base.B, base.C, base.D)
            )
            xe = _exact_entries(x)
            f = _exact_mat_add(
                _exact_matmul(_exact_matmul(A, xe), B), _exact_matmul(_exact_matmul(C, xe), D)
            )
            fmid = np.array([[complex(float(v[0]), float(v[1])) for v in row] for row in f])
            if not cplx:
                fmid = fmid.real
            frad = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    r = float(base.F.rad[i, j])
                    while not in_disk(f[i][j], fmid[i, j], r):
                        r = math.nextafter(2.0 * r + 2.0**-1074, math.inf)
                    frad[i, j] = r
            sys = SylvesterSystem(A=base.A, B=base.B, C=base.C, D=base.D, F=IMatrix(fmid, frad))
            assert residual_membership(sys, x), (trial, c, d)
            assert residual_membership(sys, x[None]).tolist() == [True]

    @pytest.mark.parametrize("layout, products, prepared", [
        ((None, None, 1.0, 1.0), 4, 7),  # X, A..D and the two inner products of the (A, B) chains
        ((None, 1.0, 1.0, None), 2, 5),  # X and A..D: one general product per pair
        ((None, None, 8.0, -1.0), 4, 7),
        ((1.0, 1.0, 1.0, 1.0), 0, 5),  # X and A..D, and only exact scalings
    ])
    def test_scalar_pairs_make_no_product_or_one(self, monkeypatch, layout, products, prepared):
        # the products that reach BLAS are the core's general ones; an exact scaling is none
        a, b, c, d = layout
        sys = _scalar_pair_system(np.random.default_rng(47), 4, 3, c, d, a=a, b=b, rad=1e-4)
        x = sample_solutions(sys, n_samples=3, seed=4)
        want = [residual_membership(sys, y) for y in x]
        made, prep = [0], []
        general, operand = intervals._general_product, baseline._Operand

        class Counted(operand):
            __slots__ = ()

            def __init__(self, mid, rad=None):
                prep.append(mid)
                super().__init__(mid, rad)

        def product(u, v):
            made[0] += 1
            return general(u, v)

        monkeypatch.setattr(baseline, "_Operand", Counted)
        monkeypatch.setattr(intervals, "_general_product", product)
        for arg, single in ((x[0], True), (np.stack(x), False)):
            made[0], prep[:] = 0, []
            got = residual_membership(sys, arg)
            assert (got if single else got.tolist()) == (want[0] if single else want)
            assert made[0] == products and len(prep) == prepared

    @pytest.mark.parametrize("case", ["pair-overflows", "pair-underflows", "one-underflows"])
    def test_scalings_leaving_the_normal_range_take_the_chains(self, case):
        rng = np.random.default_rng(49)
        m, n = 3, 2
        if case == "one-underflows":
            # (A, 2^-600 I): A X near 2^-500 scales below the normal range
            sys = _scalar_pair_system(rng, m, n, None, None, b=2.0**-600)
            x = 2.0**-500 * rng.normal(size=(m, n))
        else:
            # c_C c_D = 2^(+-1200) leaves the range even where C X D does not
            e = 600 if case == "pair-overflows" else -600
            sys = _scalar_pair_system(rng, m, n, 2.0**e, 2.0**e)
            x = 2.0 ** (-e - 100 if e > 0 else -e + 100) * rng.normal(size=(m, n))
        # a scalar pair forms one association order, as im_matmul forms it: the
        # general product where a scaling leaves the normal range, else exact
        xb = IMatrix(x)
        lefts, rights = (sys.A @ xb @ sys.B, sys.A @ (xb @ sys.B)), (sys.C @ xb @ sys.D,)
        if case == "one-underflows":
            lefts, rights = lefts[:1], (rights[0], sys.C @ (xb @ sys.D))
            ax, b = intervals._prepare(sys.A @ xb), intervals._prepare(sys.B)
            general = intervals._general_product(ax, b)
            assert np.array_equal(lefts[0].mid, general[0])
            assert np.array_equal(lefts[0].rad, general[1])
        else:
            # each step scales exactly even where the pair's scalar leaves the range
            assert np.array_equal(rights[0].mid, 2.0**e * (2.0**e * x))
            assert not rights[0].rad.any()
        got = self._boxes(sys, x)
        boxes = (sys.F - left - right for left in lefts for right in rights)
        ref = [(np.abs(box.mid), box.rad) for box in boxes]
        assert len(got) == 2 and all(
            np.array_equal(ga, ra) and np.array_equal(gr, rr)
            for (ga, gr), (ra, rr) in zip(got, ref)
        )

    def test_stack_keeps_each_samples_route(self):
        # A X B + C X D = F with B = 2^-600 I and D, F scaled by 2^-600: the solutions
        # of B = I.  One sample's A X scales below the normal range, the others' do not:
        # each sample's products, and its answer, are those of the call on it alone
        rng = np.random.default_rng(51)
        base = _scalar_pair_system(rng, 3, 2, None, None, b=1.0)
        s = 2.0**-600
        sys = SylvesterSystem(
            A=base.A, B=IMatrix(s * base.B.mid), C=base.C,
            D=IMatrix(s * base.D.mid, s * base.D.rad), F=IMatrix(s * base.F.mid, s * base.F.rad),
        )
        member = sample_solutions(base, n_samples=1, seed=1)[0]
        pts = [member, 2.0**-500 * rng.normal(size=member.shape), member + 1e-3]
        stack = np.stack(pts)
        assert residual_membership(sys, stack).tolist() == [
            residual_membership(sys, x) for x in pts
        ] == [True, False, False]
        stacked = baseline._residual_products(sys, IMatrix._from_kernel(stack, np.zeros(stack.shape)))
        for i, x in enumerate(pts):
            alone = baseline._residual_products(sys, IMatrix(x))
            # one order for the scalar pair (A, B), the general product for sample 1
            assert len(alone[0]) == 1
            ax = sys.A @ IMatrix(x)
            assert bool(intervals._scaled(s, ax.mid, ax.rad)[2]) == (i != 1)
            for got, want in zip(stacked, alone):
                assert all(
                    any(np.array_equal(mid[i], wm) and np.array_equal(rad[i], wr) for wm, wr in want)
                    for mid, rad in got
                )


def _exact_entries(a):
    return [[exact(v) for v in row] for row in a]


def _exact_matmul(a, b):
    return [
        [
            functools.reduce(exact_add, (exact_mul(a[i][k], b[k][j]) for k in range(len(b))))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def _exact_mat_add(a, b):
    return [[exact_add(u, v) for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


class TestFullKrawczyk:
    def test_verifies_and_contains_samples(self):
        sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-6, seed=6))
        enc = full_krawczyk_solve(sys)
        assert enc.verified and enc.method == "ver"
        assert (enc.U == np.eye(3)).all() and (enc.Vinv == np.eye(3)).all()
        for x in sample_solutions(sys, n_samples=80, seed=7):
            assert enc.evaluated.contains_point(x)

    def test_sample_hull_inside_diagonal_solver_box(self):
        sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-5, seed=8))
        enc = mkw_solve(sys)
        sols = np.array(sample_solutions(sys, n_samples=100, seed=9))
        lo, hi = sols.min(axis=0), sols.max(axis=0)
        assert (enc.evaluated.mid - enc.evaluated.rad <= lo + 1e-14).all()
        assert (enc.evaluated.mid + enc.evaluated.rad >= hi - 1e-14).all()

    def test_singular_kronecker_midpoint_raises(self):
        # Q = I kron (A + I) with A + I = diag(2, 0): an exactly zero pivot
        eye = IMatrix(np.eye(2))
        A = IMatrix(np.diag([1.0, -1.0]), np.full((2, 2), 1e-3))
        sys = SylvesterSystem(A=A, B=eye, C=eye, D=eye, F=IMatrix(np.ones((2, 2))))
        with pytest.raises(SingularMatrixError):
            full_krawczyk_solve(sys)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_contraction_magnitude_is_that_of_the_subtraction(self, dtype):
        rng = np.random.default_rng(13)
        for n in (1, 5, 32):
            mid = rng.normal(size=(n, n))
            if dtype is np.complex128:
                mid = mid + 1j * rng.normal(size=(n, n))
            # a product P near the identity, as R Q is, with exact zeros as well
            mid = np.eye(n) - 1e-3 * mid * (rng.uniform(size=(n, n)) < 0.8)
            p = IMatrix(mid, 1e-9 * np.abs(rng.normal(size=(n, n))))
            want = (IMatrix(np.eye(n, dtype=dtype)) - p).mag()
            assert np.array_equal(ver_oracle.eye_minus_mag(p), want)
        # and ver's own product R Q, from the Kronecker factors
        for sys in (
            generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=6)),
            _well_posed_system(rng, 4, 3, cplx=dtype is np.complex128),
        ):
            ks = build_Q_kron(sys)
            p = ver_oracle.contraction(ks, sys)
            want = (IMatrix(np.eye(sys.m * sys.n, dtype=dtype)) - p).mag()
            assert np.array_equal(baseline._contraction_mag(ks, sys), want)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    def test_midpoint_product_is_R_times_the_kronecker_midpoint(self, alpha, cplx):
        rng = np.random.default_rng(40 + cplx)
        for m, n in ((3, 5), (5, 3), (4, 4), (7, 2)):
            sys = _well_posed_system(rng, m, n, cplx, alpha=alpha)
            ks = build_Q_kron(sys)
            p = ver_oracle.contraction(ks, sys)
            wide = np.clongdouble if cplx else np.longdouble
            mids = [x.mid.astype(wide) for x in (sys.A, sys.B, sys.C, sys.D)]
            qmid = np.kron(mids[1].T, mids[0]) + np.kron(mids[3].T, mids[2])
            ref = ks.R.astype(wide) @ qmid
            assert (np.abs(p.mid - ref) <= p.rad).all(), (m, n)
            if alpha == 0.0:
                # a point system's radius is the pad alone
                assert p.rad.max() <= 1e-12 * np.abs(ref).max(), (m, n)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3])
    @pytest.mark.parametrize(
        "m, n, cplx", [(3, 5, False), (5, 3, False), (7, 2, False), (3, 5, True), (4, 4, True)]
    )
    def test_members_inside_on_rectangular_and_complex_shapes(self, m, n, cplx, alpha):
        rng = np.random.default_rng(50 + m + 10 * n + cplx)
        for identity_pair in (False, True):
            sys = _well_posed_system(rng, m, n, cplx, alpha=alpha, identity_pair=identity_pair)
            enc = full_krawczyk_solve(sys)
            assert enc.verified and enc.evaluated.shape == (m, n)
            for mode in ("random", "vertex"):
                members = np.stack(sample_solutions(sys, n_samples=60, seed=m + n, mode=mode))
                assert enc.evaluated.contains_point(members).all(), mode

    def test_respects_size_cap(self):
        sys = generate(GenSpec(family="kyc31", m=40, alpha=1e-6, seed=10))
        with pytest.raises(SizeCapError):
            full_krawczyk_solve(sys)
