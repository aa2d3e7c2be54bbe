"""Interval core: arithmetic, outward rounding, soundness oracles."""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sylvenc import (
    IMatrix,
    InconsistentEnclosureError,
    IntervalOverflowError,
    Rect,
    as_imatrix,
    disks_to_rect,
    epsilon_inflate,
    im_matmul,
    in_interior,
    rect_to_disks,
)
from sylvenc.errors import SingularPreconditionerError
from sylvenc.intervals import ETA, _denominators, _quot, iv_recip_arrays, posmm

from disk_oracle import Disk, iv_mul
from exact_oracle import add, disk_in_disk, exact, in_disk, mul, recip, recip_image
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
        # 2**-40 short of the edge: inside under the pad of 4 * 2**-50
        edge = IMatrix(np.zeros((1, 1)), np.full((1, 1), 1.0 - 2.0**-40))
        assert big.contains(edge)
        # one ulp short of the edge: within the pad, so not certainly inside
        edge = IMatrix(np.zeros((1, 1)), np.full((1, 1), 1.0 - 2.0**-52))
        assert not big.contains(edge)


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


# Nonzero entries have binary exponents within +-500, so no midpoint product can
# underflow or overflow: the range the relative pad model claims.  Zeros are drawn
# as well, and the radii of a point operand are all zero.
_MAG = st.floats(min_value=2.0**-500, max_value=2.0**500)
# the centre and rational points of the unit circle: complex members at the centre
# and on the edge of each disk
_UNIT = [(Fraction(a), Fraction(b)) for a, b in
         ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))] + [
    (Fraction(sa * a, 5), Fraction(sb * b, 5))
    for a, b in ((3, 4), (4, 3)) for sa in (1, -1) for sb in (1, -1)]
_KINDS = [("interval", "interval"), ("point", "interval"), ("interval", "point"),
          ("point", "point"), ("diagonal", "interval"), ("interval", "diagonal"),
          ("diagonal", "point"), ("point", "diagonal")]


def _draw_operand(data, shape, kind, is_complex, mag, exp):
    """Entries drawn from ``mag`` (with sign and zero) and scaled by ``2**exp``."""
    def part(elements):
        # ldexp rounds a scaled entry to the nearest float, a subnormal or zero included
        return np.ldexp(data.draw(hnp.arrays(np.float64, shape, elements=elements)), exp)

    signed = st.one_of(st.just(0.0), mag, mag.map(lambda v: -v))
    mid = part(signed)
    if is_complex:
        mid = mid + 1j * part(signed)
    if kind == "diagonal":
        mid = np.diag(np.diag(mid))
    rad = np.zeros(shape) if kind == "point" else part(st.one_of(st.just(0.0), mag))
    return IMatrix._from_kernel(mid, rad)


def _exact_member(data, mid, rad):
    """A member of each disk, ``mid + rad u`` with ``u`` a rational point of the unit disk."""
    out = np.empty(mid.shape, dtype=object)
    for idx in np.ndindex(mid.shape):
        u_re, u_im = data.draw(st.sampled_from(_UNIT))
        z = complex(mid[idx])
        r = Fraction(rad[idx])
        out[idx] = (Fraction(z.real) + r * u_re, Fraction(z.imag) + r * u_im)
    return out


def _check_contains_exact_products(data, mag=_MAG, exps=(0, 0), real_only=False):
    is_complex = not real_only and data.draw(st.booleans())
    kind_x, kind_y = data.draw(st.sampled_from(_KINDS))
    m, k, n = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
    m = k if kind_x == "diagonal" else m
    n = k if kind_y == "diagonal" else n
    # a stack of two matrices on a side without a diagonal midpoint
    stacked = data.draw(st.sampled_from(
        [None] + [side for side, kind in (("x", kind_x), ("y", kind_y)) if kind != "diagonal"]))
    x = _draw_operand(data, (2, m, k) if stacked == "x" else (m, k), kind_x, is_complex, mag,
                      exps[0])
    y = _draw_operand(data, (2, k, n) if stacked == "y" else (k, n), kind_y, is_complex, mag,
                      exps[1])
    prod = im_matmul(x, y)
    for s in range(2 if stacked else 1):
        xm, xr = (x.mid[s], x.rad[s]) if stacked == "x" else (x.mid, x.rad)
        ym, yr = (y.mid[s], y.rad[s]) if stacked == "y" else (y.mid, y.rad)
        pm, pr = (prod.mid[s], prod.rad[s]) if stacked else (prod.mid, prod.rad)
        if not is_complex:
            # the exact interval hull of every real member product
            for i, j in np.ndindex(m, n):
                lo, hi = _exact_interval_dot(*(
                    [Fraction(v) for v in vals] for vals in (xm[i], xr[i], ym[:, j], yr[:, j])))
                assert Fraction(pm[i, j]) - Fraction(pr[i, j]) <= lo
                assert hi <= Fraction(pm[i, j]) + Fraction(pr[i, j])
            continue
        a, b = _exact_member(data, xm, xr), _exact_member(data, ym, yr)
        for i, j in np.ndindex(m, n):
            re = sum(a[i, l][0] * b[l, j][0] - a[i, l][1] * b[l, j][1] for l in range(k))
            im = sum(a[i, l][0] * b[l, j][1] + a[i, l][1] * b[l, j][0] for l in range(k))
            d_re, d_im = re - Fraction(pm[i, j].real), im - Fraction(pm[i, j].imag)
            assert d_re * d_re + d_im * d_im <= Fraction(pr[i, j]) ** 2


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_matmul_contains_exact_products_hypothesis(data):
    _check_contains_exact_products(data)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_matmul_contains_exact_products_of_subnormal_and_large_factors(data):
    # One factor's nonzero entries lie within 2^-1100 .. 2^-960, subnormal, zero or
    # barely normal after rounding, the other's within 2^200 .. 2^1020; every product
    # of one's entry with the other's is normal, so the relative pad model holds,
    # while c |Ym| of a small y falls below the normal range.  Real data only: the
    # modulus of a complex subnormal rounds absolutely, the escape that
    # test_matmul_complex_subnormal_modulus_escape records.
    small, large = data.draw(st.integers(-1100, -1000)), data.draw(st.integers(200, 980))
    exps = data.draw(st.sampled_from([(small, large), (large, small)]))
    _check_contains_exact_products(
        data, st.floats(min_value=1.0, max_value=2.0**40), exps, real_only=True)


@pytest.mark.parametrize("unit", [1.0, 1j])
@pytest.mark.parametrize("xv, yv", [
    ([[3.3e99]], [[1e-310]]),
    ([[1e-310]], [[3.3e99]]),
    # a zero of y beside the subnormal: both fall below the normal range in c |Ym|
    ([[3.3e99, 1.0]], [[1e-310], [0.0]]),
])
def test_matmul_contains_normal_product_of_a_subnormal_factor(xv, yv, unit):
    # 3.3e99 x 1e-310 is a normal and inexact product, while c 1e-310 rounds to zero
    x, y = IMatrix(np.array(xv)), IMatrix(np.array(yv) * unit)
    prod = im_matmul(x, y)
    exact = sum(Fraction(a) * Fraction(b) for a, b in zip(x.mid[0], (y.mid[:, 0] / unit).real))
    got = complex(prod.mid[0, 0]) / unit
    assert got.imag == 0.0
    assert abs(exact - Fraction(got.real)) <= Fraction(prod.rad[0, 0])


@pytest.mark.xfail(strict=True, reason="every pad is relative: no absolute underflow term yet")
def test_matmul_underflow_escape():
    # the exact product 1e-400 lies below the smallest subnormal, and every pad is
    # relative to magnitudes whose product underflows too
    x = IMatrix([[1e-200]])
    prod = im_matmul(x, x)
    exact = Fraction(1e-200) ** 2
    assert abs(exact - Fraction(prod.mid[0, 0])) <= Fraction(prod.rad[0, 0])


@pytest.mark.xfail(strict=True, reason="the modulus of a complex subnormal rounds absolutely")
def test_matmul_complex_subnormal_modulus_escape():
    # |2^-1073 + 2^-1072 i| = sqrt(5) 2^-1073 rounds to 2^-1072, 10 % low, and the
    # radius 2^200 |Ym| of the normal product inherits the loss
    x = IMatrix(np.zeros((1, 1)), np.full((1, 1), 2.0**200))
    y = IMatrix([[complex(2.0**-1073, 2.0**-1072)]])
    prod = im_matmul(x, y)
    assert prod.mid[0, 0] == 0
    assert Fraction(prod.rad[0, 0]) ** 2 >= Fraction(2) ** 400 * 5 * Fraction(2) ** -2146


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


def _generic_matmul(x, y, eta=ETA):
    """The dense three-product interval product, kept as the reference of the fast paths."""
    pad = (2 * x.cols + 8) * eta
    c = math.nextafter(pad / (1.0 + pad), math.inf)
    ax, ay = np.abs(x.mid), np.abs(y.mid)
    rad = ax @ (y.rad + c * ay) + x.rad @ (ay + y.rad)
    return x.mid @ y.mid, rad * (1.0 + pad)


def _four_product_rad(x, y, eta=ETA):
    """The radius of the four-product form ``(|Xm| Yr + Xr |Ym| + Xr Yr)(1 + s) + s |Xm| |Ym|``."""
    pad = (2 * x.cols + 8) * eta
    ax, ay = np.abs(x.mid), np.abs(y.mid)
    rad = ax @ y.rad + x.rad @ ay + x.rad @ y.rad
    return rad * (1.0 + pad) + pad * (ax @ ay)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_point_factor_is_bit_identical_to_the_dense_form(dtype):
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


def _no_wider_than_four_products(x, y):
    got = im_matmul(x, y).rad
    return (got <= _four_product_rad(x, y) * (1.0 + 8.0 * ETA)).all()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_no_wider_than_four_products_on_random_operands(dtype):
    rng = np.random.default_rng(8)

    def mid(shape):
        z = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        return z + 1j * rng.normal(size=shape) if dtype is np.complex128 else z

    for m, k, n in ((1, 1, 1), (2, 7, 3), (8, 8, 8), (32, 32, 32), (40, 100, 30)):
        for rel in (0.0, 1e-12, 1e-6, 1.0):
            x = IMatrix(mid((m, k)), rel * np.abs(rng.normal(size=(m, k))))
            y = IMatrix(mid((k, n)), rel * np.abs(rng.normal(size=(k, n))))
            for a, b in ((x, y), (as_imatrix(x.mid), y), (x, as_imatrix(y.mid))):
                assert _no_wider_than_four_products(a, b)


@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
@pytest.mark.parametrize("m", [8, 32])
def test_matmul_no_wider_than_four_products_on_transform_operands(family, m):
    from sylvenc import GenSpec, generate, transform_enclose

    sys_ = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=1))
    ps = transform_enclose(sys_)
    # the sandwich products of the transform and its certified inverses
    for box, point, coeffs in ((ps.uinv_box, ps.U, (sys_.A, sys_.C, sys_.F)),
                               (ps.vinv_box, ps.V, (sys_.B, sys_.D))):
        assert _no_wider_than_four_products(as_imatrix(box.mid), as_imatrix(point))
        for coeff in coeffs:
            assert _no_wider_than_four_products(box, coeff)
            assert _no_wider_than_four_products(im_matmul(box, coeff), as_imatrix(point))


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
    eta = ETA
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


def _divide(y: IMatrix, s: np.ndarray) -> IMatrix:
    """``y ./ s`` for exact float divisors ``s``, by the quotient rule of the solvers."""
    return IMatrix._from_kernel(*_quot(y.mid, y.rad, *iv_recip_arrays(s, np.zeros(s.shape))))


def test_quotient_rule_scalar():
    got = _divide(IMatrix(np.array([[6.0]]), np.array([[0.3]])), np.array([[3.0]]))
    # the reciprocal's midpoint is 1 / lo for a lower bound lo of the divisor
    assert abs(got.mid[0, 0] - 2.0) <= 2.0 * 16 * ETA
    assert 0.1 <= got.rad[0, 0] <= 0.1 * SLACK


def test_quotient_rule_zero_midpoints_keep_the_bits():
    rng = np.random.default_rng(5)
    rad = rng.uniform(size=(3, 4))
    rec = iv_recip_arrays(rng.normal(size=(3, 4)) + 3.0j, rng.uniform(0.0, 0.1, size=(3, 4)))
    none_mid, got = _quot(None, rad, *rec)
    _, ref = _quot(np.zeros((3, 4), dtype=complex), rad, *rec)
    assert none_mid is None and np.array_equal(got, ref)


_RECIP_ERRORS = (ZeroDivisionError, SingularPreconditionerError, IntervalOverflowError)


@st.composite
def _centres(draw, lo=-1000, hi=1000):
    """A real or complex float of modulus ``2**e`` up to a factor in ``[0.5, 1]``."""
    e = draw(st.integers(lo, hi))
    m = draw(st.floats(0.5, 1.0))
    if draw(st.booleans()):
        return math.ldexp(m, e) * draw(st.sampled_from((1.0, -1.0)))
    th = draw(st.floats(0.0, 2.0 * math.pi))
    return complex(math.ldexp(m * math.cos(th), e), math.ldexp(m * math.sin(th), e))


@settings(max_examples=400, deadline=None)
@given(c=_centres(), t=st.floats(0.0, 0.99))
def test_reciprocal_contains_the_exact_image_over_the_double_range(c, t):
    r = t * abs(c)
    try:
        rmid, rrad = iv_recip_arrays(np.array([c]), np.array([r]))
    except _RECIP_ERRORS:
        return
    cmid, crad = recip_image(c, r)
    assert disk_in_disk(cmid, crad, rmid[0], rrad[0]), (c, r, rmid[0], rrad[0])


def test_reciprocal_below_the_normal_range_raises():
    for c in (2.0**-1030, 2.0**-1023 * (1 + 1j)):
        with pytest.raises(IntervalOverflowError):
            iv_recip_arrays(np.array([c]), np.array([0.0]))
    # a normal centre whose disk reaches so near zero that the lower bound is subnormal
    with pytest.raises(IntervalOverflowError):
        iv_recip_arrays(np.array([2.0**-1000]), np.array([2.0**-1000 * (1 - 2.0**-30)]))


@st.composite
def _diagonals(draw):
    """Four diagonals of two entries, each entry within ``2**±4`` of its diagonal's scale."""
    scales = [draw(st.integers(-520, 520)) for _ in range(4)]
    return [np.array([draw(_centres(e - 4, e + 4)) for _ in range(2)]) for e in scales]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(diags=_diagonals())
def test_denominators_contain_the_exact_products_and_reciprocals(diags):
    a, b, c, d = diags
    try:
        den = _denominators(a, b, c, d)
    except _RECIP_ERRORS:
        return
    for i in range(2):
        for j in range(2):
            p = add(mul(exact(a[i]), exact(b[j])), mul(exact(c[i]), exact(d[j])))
            assert in_disk(p, den.mid[i, j], den.rad[i, j])
            assert in_disk(recip(p), den.rec_mid[i, j], den.rec_rad[i, j])


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
    # every pad of the rounding model is strictly conservative only from one ulp up
    assert ETA >= 2.0**-53


def test_rounding_model_stays_in_intervals():
    """Only ``intervals`` names the pad constant: every other module pads through its rules."""
    src = Path(__file__).resolve().parents[1] / "src" / "sylvenc"
    word = re.compile(r"\beta\b|policy", re.IGNORECASE)
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "intervals.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if word.search(line)
    ]
    assert len(list(src.glob("*.py"))) > 1 and not hits, hits


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
            _divide(y, np.full((2, 2), 1e-300))

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
        for out in (im_matmul(x, y), x + x, _divide(x, np.full((3, 4), 2.0))):
            again = IMatrix(out.mid, out.rad)
            assert out.mid.dtype == again.mid.dtype == dtype
            assert out.rad.dtype == np.float64 and out.mid.ndim == 2
            assert np.array_equal(out.mid, again.mid) and np.array_equal(out.rad, again.rad)
