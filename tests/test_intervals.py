"""Interval core: arithmetic, outward rounding, soundness oracles."""

from fractions import Fraction

import numpy as np
import pytest

from sylvenc import (
    IMatrix,
    InconsistentEnclosureError,
    IntervalOverflowError,
    Rect,
    RoundingPolicy,
    as_imatrix,
    disks_to_rect,
    epsilon_inflate,
    hadamard_div_point,
    im_matmul,
    in_interior,
    rect_to_disks,
)
from sylvenc.intervals import iv_recip_arrays, posmm

from disk_oracle import Disk, iv_mul
from rect_oracle import rect_meet

SLACK = 1.0 + 1e-12


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk(1.0, -0.5)
    with pytest.raises(ValueError):
        Disk(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Disk(1.0, float("inf"))


def test_disk_product_known_values():
    p = iv_mul(Disk(2.0, 0.1), Disk(3.0, 0.2))
    # |2|*0.2 + 0.1*|3| + 0.1*0.2 = 0.72, plus a few ulps outward
    assert p.mid == 6.0
    assert 0.72 <= p.rad <= 0.72 * SLACK


def test_in_interior_requires_strictness():
    x = IMatrix(np.zeros((1, 1)), np.array([[1.0]]))
    assert in_interior(IMatrix(np.zeros((1, 1)), np.array([[0.5]])), x)
    # equal boxes are not strictly interior
    assert not in_interior(x, x)


def test_epsilon_inflate_strictly_widens():
    m = IMatrix(np.array([[1.0]]), np.array([[0.25]]))
    e = epsilon_inflate(m)
    assert (e.rad > 0).all()
    assert e.rad[0, 0] >= 0.1 * 0.25


class TestIMatrix:
    def test_from_infsup_round_trip(self):
        lo = np.array([[1.9, -2.0], [0.0, 0.5]])
        hi = np.array([[2.1, -1.0], [0.3, 0.5]])
        m = IMatrix.from_infsup(lo, hi)
        assert (m.mid - m.rad <= lo).all()
        assert (m.mid + m.rad >= hi).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            IMatrix(np.zeros((2, 2)), -np.ones((2, 2)))
        with pytest.raises(IntervalOverflowError):
            IMatrix(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            IMatrix(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_transpose(self):
        m = IMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.1, 0.2], [0.3, 0.4]]))
        t = m.T
        assert t.mid[0, 1] == 3.0 and t.rad[0, 1] == 0.3

    def test_contains(self):
        big = IMatrix(np.zeros((2, 2)), np.full((2, 2), 1.0))
        small = IMatrix(np.full((2, 2), 0.5), np.full((2, 2), 0.25))
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains_point(np.full((2, 2), 0.9))
        assert not big.contains_point(np.full((2, 2), 1.1))

    def test_contains_point_on_a_stack(self):
        box = IMatrix(np.zeros((2, 3)), np.full((2, 3), 1.0))
        pts = np.random.default_rng(3).uniform(-1.2, 1.2, size=(40, 2, 3))
        got = box.contains_point(pts)
        assert got.shape == (40,) and got.dtype == bool
        assert got.tolist() == [box.contains_point(x) for x in pts]
        assert set(got.tolist()) == {True, False}
        with pytest.raises(ValueError):
            box.contains_point(np.zeros((4, 3, 2)))
        with pytest.raises(ValueError):
            box.contains_point(np.zeros((1, 4, 2, 3)))

    def test_contains_honours_the_rounding_policy(self):
        big = IMatrix(np.zeros((1, 1)), np.ones((1, 1)))
        # 2**-40 short of the edge: inside under the default pad of 4 * 2**-50,
        # not certainly inside under a pad of 4 * 2**-30
        edge = IMatrix(np.zeros((1, 1)), np.full((1, 1), 1.0 - 2.0**-40))
        assert big.contains(edge)
        assert not big.contains(edge, RoundingPolicy(eta=2.0**-30))


def _exact_interval_dot(xm, xr, ym, yr):
    """Exact inf-sup bounds of a real interval dot product via Fractions."""
    lo = Fraction(0)
    hi = Fraction(0)
    for a_m, a_r, b_m, b_r in zip(xm, xr, ym, yr):
        cands = [
            (a_m + sa * a_r) * (b_m + sb * b_r)
            for sa in (-1, 1)
            for sb in (-1, 1)
        ]
        lo += min(cands)
        hi += max(cands)
    return lo, hi


def test_matmul_encloses_exact_interval_product():
    # dyadic inputs make Fraction arithmetic exact, so this is a true oracle
    rng = np.random.default_rng(42)
    for trial in range(50):
        m, k, n = rng.integers(1, 4, size=3)
        if trial % 2:
            # an exactly diagonal midpoint on one side takes the broadcast path
            m = k if trial % 4 == 1 else m
            n = k if trial % 4 == 3 else n
        xm = rng.integers(-8, 9, size=(m, k)) / 8.0
        xr = rng.integers(0, 5, size=(m, k)) / 16.0
        ym = rng.integers(-8, 9, size=(k, n)) / 8.0
        yr = rng.integers(0, 5, size=(k, n)) / 16.0
        if trial % 4 == 1:
            xm = np.diag(np.diag(xm))
        elif trial % 4 == 3:
            ym = np.diag(np.diag(ym))
        prod = im_matmul(IMatrix(xm, xr), IMatrix(ym, yr))
        for i in range(m):
            for j in range(n):
                lo, hi = _exact_interval_dot(
                    [Fraction(v) for v in xm[i]],
                    [Fraction(v) for v in xr[i]],
                    [Fraction(v) for v in ym[:, j]],
                    [Fraction(v) for v in yr[:, j]],
                )
                got_lo = Fraction(prod.mid[i, j]) - Fraction(prod.rad[i, j])
                got_hi = Fraction(prod.mid[i, j]) + Fraction(prod.rad[i, j])
                assert got_lo <= lo and hi <= got_hi


def test_matmul_isotonicity_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, k, n = rng.integers(1, 5, size=3)
        x = IMatrix(rng.normal(size=(m, k)), np.abs(rng.normal(size=(m, k))))
        y = IMatrix(rng.normal(size=(k, n)), np.abs(rng.normal(size=(k, n))))
        prod = im_matmul(x, y)
        a = x.mid + x.rad * rng.uniform(-1, 1, size=x.shape)
        b = y.mid + y.rad * rng.uniform(-1, 1, size=y.shape)
        assert prod.contains_point(a @ b)


def _generic_matmul(x, y, eta=RoundingPolicy().eta):
    """The four-product interval product, kept as the reference of the fast paths."""
    nops = 2 * x.cols + 8
    ax, ay = np.abs(x.mid), np.abs(y.mid)
    rad = ax @ y.rad + x.rad @ ay + x.rad @ y.rad
    return x.mid @ y.mid, rad * (1.0 + nops * eta) + (nops * eta) * (ax @ ay)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_point_factor_is_bit_identical_to_four_products(dtype):
    rng = np.random.default_rng(5)

    def mid(shape):
        z = rng.normal(size=shape)
        return z + 1j * rng.normal(size=shape) if dtype is np.complex128 else z

    # dense midpoints: a 1 x 1 or diagonal factor would take the broadcast path
    for m, k, n in ((1, 3, 2), (3, 5, 2), (8, 8, 8), (32, 32, 32)):
        x_pt = IMatrix(mid((m, k)))
        y_pt = IMatrix(mid((k, n)))
        x_iv = IMatrix(mid((m, k)), np.abs(rng.normal(size=(m, k))))
        y_iv = IMatrix(mid((k, n)), np.abs(rng.normal(size=(k, n))))
        for x, y in ((x_pt, y_iv), (x_iv, y_pt), (x_pt, y_pt)):
            got = im_matmul(x, y)
            ref_mid, ref_rad = _generic_matmul(x, y)
            assert np.array_equal(got.mid, ref_mid)
            assert np.array_equal(got.rad, ref_rad)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_of_a_stack_is_bit_identical_per_matrix(dtype):
    rng = np.random.default_rng(6)

    def mid(shape):
        z = rng.normal(size=shape)
        return z + 1j * rng.normal(size=shape) if dtype is np.complex128 else z

    for m, k, n in ((1, 3, 2), (3, 5, 2), (8, 8, 8), (20, 20, 14)):
        stack = mid((7, m, k))
        diag = IMatrix(np.diag(np.diag(mid((k, k)))), np.abs(rng.normal(size=(k, k))))
        for y in (IMatrix(mid((k, n)), np.abs(rng.normal(size=(k, n)))), diag):
            for xs in (stack, stack * 0.0):  # a zero stack takes no radius products
                got = im_matmul(IMatrix._from_kernel(xs, np.zeros(xs.shape)), y)
                for i, x in enumerate(xs):
                    ref = im_matmul(IMatrix(x), y)
                    assert np.array_equal(got.mid[i], ref.mid)
                    assert np.array_equal(got.rad[i], ref.rad)
        left = IMatrix(mid((m, m)), np.abs(rng.normal(size=(m, m))))
        boxes = IMatrix._from_kernel(stack, np.abs(rng.normal(size=stack.shape)))
        got = im_matmul(left, boxes)
        for i in range(len(stack)):
            ref = im_matmul(left, IMatrix(boxes.mid[i], boxes.rad[i]))
            assert np.array_equal(got.mid[i], ref.mid)
            assert np.array_equal(got.rad[i], ref.rad)


@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
@pytest.mark.parametrize("m", [8, 32])
def test_diagonal_midpoint_products_no_wider_than_generic(family, m):
    from sylvenc import GenSpec, generate, transform_enclose

    ps = transform_enclose(generate(GenSpec(family=family, m=m, alpha=1e-6, seed=1)))
    eta = ps.policy.eta
    dense = ps.Fp
    for x, y in ((ps.Ap, dense), (ps.Cp, dense), (dense, ps.Bp), (dense, ps.Dp),
                 (ps.Ap, as_imatrix(dense.mid)), (as_imatrix(dense.mid), ps.Dp)):
        got = im_matmul(x, y)
        ref_mid, ref_rad = _generic_matmul(x, y)
        assert (got.rad <= ref_rad).all()
        # the broadcast rounds each entry once; the dense product adds zeros
        assert (np.abs(got.mid - ref_mid) <= 4 * eta * np.abs(ref_mid)).all()
    w = ps.Ap.rad
    for diag in (np.abs(ps.Bp.mid), np.abs(ps.Dp.mid)):
        assert (posmm(w, diag) <= (w @ diag) * (1.0 + (2 * m + 8) * eta)).all()
        assert (posmm(w, diag) >= w @ diag).all()


def test_posmm_is_an_upper_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = np.abs(rng.normal(size=(4, 6)))
        b = np.abs(rng.normal(size=(6, 3)))
        assert (posmm(a, b) >= a @ b).all()


def test_reciprocal_disks_contain_member_reciprocals():
    rng = np.random.default_rng(11)
    mids = rng.normal(size=(40,)) + 1j * rng.normal(size=(40,))
    mids = mids * (1.0 + 1.0 / np.abs(mids))  # keep away from zero
    rads = np.abs(mids) * rng.uniform(0.0, 0.6, size=40)
    rmid, rrad = iv_recip_arrays(mids, rads)
    for i in range(40):
        for _ in range(25):
            z = mids[i] + rads[i] * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(1.0 / z - rmid[i]) <= rrad[i]


def test_reciprocal_rejects_zero_straddling():
    with pytest.raises(ZeroDivisionError):
        iv_recip_arrays(np.array([1.0]), np.array([1.0]))


def test_hadamard_div_point_scalar():
    got = hadamard_div_point(IMatrix(np.array([[6.0]]), np.array([[0.3]])), np.array([[3.0]]))
    assert abs(got.mid[0, 0] - 2.0) <= 1e-15
    assert 0.1 <= got.rad[0, 0] <= 0.1 * SLACK


class TestRect:
    def test_round_trip_contains_disks(self):
        m = IMatrix(
            np.array([[1.0 + 1.0j, -2.0]], dtype=complex), np.array([[0.5, 0.25]])
        )
        back = rect_to_disks(disks_to_rect(m))
        assert back.contains(m)

    def test_real_round_trip_is_tight(self):
        m = IMatrix(np.array([[1.0, -2.0]]), np.array([[0.5, 0.25]]))
        back = rect_to_disks(disks_to_rect(m))
        assert np.allclose(back.mid, m.mid)
        assert (back.rad <= m.rad * (1.0 + 1e-12)).all()

    def test_meet_is_exact_intersection(self):
        a = Rect(np.array([[0.0]]), np.array([[2.0]]))
        b = Rect(np.array([[1.0]]), np.array([[3.0]]))
        got = rect_meet(a, b)
        assert got.lo[0, 0] == 1.0 and got.hi[0, 0] == 2.0
        assert got.subset_of(a) and got.subset_of(b)

    def test_meet_empty_raises(self):
        a = Rect(np.array([[0.0]]), np.array([[1.0]]))
        b = Rect(np.array([[2.0]]), np.array([[3.0]]))
        with pytest.raises(InconsistentEnclosureError):
            rect_meet(a, b)


def test_rounding_policy_floor():
    with pytest.raises(ValueError):
        RoundingPolicy(eta=2.0**-60)
    assert RoundingPolicy().eta >= 2.0**-53


def test_as_imatrix_accepts_points():
    m = as_imatrix(np.eye(2))
    assert (m.rad == 0).all()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestKernelOutputs:
    """Kernel results skip the public constructor's coercions, not its overflow check."""

    def test_matmul_overflow_raises(self):
        big = IMatrix(np.full((2, 2), 1e200))
        with pytest.raises(IntervalOverflowError):
            im_matmul(big, big)
        with pytest.raises(IntervalOverflowError):
            im_matmul(IMatrix(np.ones((2, 2)), np.full((2, 2), 1e200)), big)

    def test_sum_overflow_raises(self):
        big = IMatrix(np.full((2, 2), 1.7e308))
        with pytest.raises(IntervalOverflowError):
            big + big
        with pytest.raises(IntervalOverflowError):
            IMatrix(np.zeros((2, 2)), np.full((2, 2), 1e308)) - IMatrix(np.ones((2, 2)), big.mid)

    def test_hadamard_division_overflow_raises(self):
        y = IMatrix(np.full((2, 2), 1e300), np.full((2, 2), 1.0))
        with pytest.raises(IntervalOverflowError):
            hadamard_div_point(y, np.full((2, 2), 1e-300))

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IMatrix(np.zeros((2, 2)), -np.ones((2, 2)))
        m = IMatrix([1.0, 2.0], [0.0, 0.5])
        assert m.shape == (1, 2) and m.mid.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_kernel_outputs_keep_the_public_form(self, dtype):
        rng = np.random.default_rng(2)
        x = IMatrix(rng.normal(size=(3, 4)).astype(dtype), rng.uniform(size=(3, 4)))
        y = IMatrix(rng.normal(size=(4, 2)).astype(dtype), rng.uniform(size=(4, 2)))
        for out in (im_matmul(x, y), x + x, hadamard_div_point(x, np.full((3, 4), 2.0))):
            again = IMatrix(out.mid, out.rad)
            assert out.mid.dtype == again.mid.dtype == dtype
            assert out.rad.dtype == np.float64 and out.mid.ndim == 2
            assert np.array_equal(out.mid, again.mid) and np.array_equal(out.rad, again.rad)
