"""Dense point kernels and their certified interval wrappers."""

import tracemalloc

import numpy as np
import pytest

from sylvenc import (
    IMatrix,
    SingularMatrixError,
    SizeCapError,
    as_imatrix,
    eig_decompose,
    im_matmul,
    inverse_enclosure,
    kron,
    parter,
    unvec,
    vec,
)
from sylvenc.linalg import KRON_BYTES, iunvec, ivec, lu_inverse, lu_solve


def test_vec_column_stacking_order():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert (vec(x) == np.array([1.0, 2.0, 3.0, 4.0])).all()
    assert (unvec(vec(x), 2, 2) == x).all()


def test_vec_kron_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = rng.integers(1, 6, size=2)
        a = rng.normal(size=(m, m))
        b = rng.normal(size=(n, n))
        x = rng.normal(size=(m, n))
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_kron_is_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(3)
    for cplx in (False, True):
        for shape_a, shape_b in (((3, 5), (4, 2)), ((1, 1), (6, 6)), ((7, 7), (1, 3))):
            a = rng.normal(size=shape_a) + (1j * rng.normal(size=shape_a) if cplx else 0.0)
            b = rng.normal(size=shape_b)
            for x, y in ((a, b), (b, a)):
                assert kron(x, y).tobytes() == np.kron(x, y).tobytes()


def test_lu_solve_planted():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
    x = rng.normal(size=(8, 2))
    got = lu_solve(a, a @ x)
    assert np.abs(got - x).max() <= 1e-10


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((3, 3)), np.ones((3, 1)))


class TestEig:
    def test_residual_random(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        res = eig_decompose(a)
        resid = np.abs(a @ res.vectors - res.vectors @ np.diag(res.values)).max()
        assert resid <= 1e-10 * max(1.0, np.abs(a).max())

    def test_residual_structured(self):
        a = parter(4)
        res = eig_decompose(a)
        resid = np.abs(a @ res.vectors - res.vectors @ np.diag(res.values)).max()
        assert resid <= 1e-10 * np.abs(a).max()

    def test_even_power_of_two_multiples_share_the_eigenvectors(self):
        # LAPACK alone gives other vectors for this matrix at 2**-520, 2**-260 and 2**520
        a = np.random.default_rng(3).normal(size=(8, 8))
        ref = eig_decompose(a)
        for k in (-520, -260, -2, 2, 260, 520):
            res = eig_decompose(a * 2.0**k)
            assert np.array_equal(res.vectors, ref.vectors), k
            assert np.array_equal(res.inv_vectors, ref.inv_vectors), k
            assert np.array_equal(res.values, ref.values * 2.0**k), k


def test_ivec_iunvec_round_trip():
    x = IMatrix(np.arange(6.0).reshape(2, 3), np.full((2, 3), 0.5))
    back = iunvec(ivec(x), 2, 3)
    assert (back.mid == x.mid).all() and (back.rad == x.rad).all()


class TestInverseEnclosure:
    def test_contains_true_inverse(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        box = inverse_enclosure(a)
        # certified: A @ box must contain the identity
        prod = im_matmul(as_imatrix(a), box)
        assert prod.contains_point(np.eye(5))
        assert np.abs(box.mid - np.linalg.inv(a)).max() <= 1e-8

    def test_with_product_returns_the_certificate_product(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        box, prod = inverse_enclosure(a, with_product=True)
        assert box.mid.tobytes() == inverse_enclosure(a).mid.tobytes()
        assert prod.tobytes() == (box.mid @ a).tobytes()

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_enclosure(np.ones((3, 3)))


def test_kron_byte_budget_refuses_before_allocating():
    # 200x200 by 200x200 is 1.6e9 entries: 12.8 GB of float64
    a = np.zeros((200, 200))
    assert a.size**2 * a.itemsize > KRON_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="byte budget"):
            kron(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * a.nbytes  # operand-sized temporaries at most


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lu_inverse_inverts_and_raises_on_a_zero_pivot(dtype):
    rng = np.random.default_rng(14)
    a = rng.normal(size=(6, 6)).astype(dtype)
    if dtype is np.complex128:
        a = a + 1j * rng.normal(size=(6, 6))
    assert np.allclose(lu_inverse(a.copy()) @ a, np.eye(6), atol=1e-12)
    with pytest.raises(SingularMatrixError):
        lu_inverse(np.diag(np.array([2.0, 0.0], dtype=dtype)))
    with pytest.raises(ValueError):
        lu_inverse(np.ones((2, 3), dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lu_inverse_is_fortran_ordered(dtype):
    rng = np.random.default_rng(15)
    a = rng.normal(size=(6, 6)).astype(dtype)
    for x in (a, a.T, np.asfortranarray(a)):
        inv = lu_inverse(x.copy(order="K"))
        assert inv.flags.f_contiguous and not inv.flags.c_contiguous
    # the inverse of the transpose, transposed, is a C-ordered inverse in a's buffer
    b = a.copy()
    inv = lu_inverse(b.T).T
    assert inv.flags.c_contiguous and np.shares_memory(inv, b)
    assert np.allclose(inv @ a, np.eye(6), atol=1e-12)
