"""Schur-based block form and interval backward substitution."""

import dataclasses

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    SingularPreconditionerError,
    SylvesterSystem,
    block_diagonalize,
    generate,
    interval_back_substitute,
    mkw_block_solve,
    mkw_solve,
    sample_solutions,
)
from sylvenc.blockdiag import block_mask
from sylvenc.intervals import _denominators, _quot
from sylvenc.linalg import unvec, vec
from sylvenc.precond import PrecondSystem


def test_block_mask_patterns():
    upper = block_mask((2, 1))
    assert (
        upper
        == np.array([[True, True, False], [False, True, False], [False, False, True]])
    ).all()
    lower = block_mask((2, 1), lower=True)
    assert lower[1, 0] and not lower[0, 1]


class TestBlockDiagonalize:
    def test_clustered_eigenvalues_share_a_block(self):
        rng = np.random.default_rng(0)
        vals = np.array([1.0, 1.0 + 1e-12, 3.0])
        p = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        a = p @ np.diag(vals) @ np.linalg.inv(p)
        half = block_diagonalize(a)
        assert sorted(half.sizes, reverse=True)[0] >= 2
        # similarity residual: U T U^-1 must reproduce a
        uinv = np.linalg.inv(half.U)
        assert np.abs(half.U @ half.T @ uinv - a).max() <= 1e-8 * np.abs(a).max()
        # exact block pattern
        mask = block_mask(half.sizes)
        assert (half.T[~mask] == 0).all()

    def test_separated_eigenvalues_split_fully(self):
        rng = np.random.default_rng(1)
        vals = np.array([1.0, 2.0, 4.0, -3.0])
        p = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        a = p @ np.diag(vals) @ np.linalg.inv(p)
        half = block_diagonalize(a)
        assert half.sizes == (1, 1, 1, 1)
        assert half.cond_bound < 1e4

    def test_jordan_block_stays_whole(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        half = block_diagonalize(a)
        assert half.sizes == (2,)
        assert np.abs(half.T[1, 0]) == 0.0


def _system(DA, DC, DB, DD, row_sizes, col_sizes):
    """A preconditioned system with point pattern midpoints and identity bases."""
    m, n = len(DA), len(DB)
    return PrecondSystem(
        Ap=IMatrix(DA),
        Bp=IMatrix(DB),
        Cp=IMatrix(DC),
        Dp=IMatrix(DD),
        Fp=IMatrix(np.zeros((m, n))),
        U=np.eye(m),
        V=np.eye(n),
        uinv_box=IMatrix(np.eye(m)),
        vinv_box=IMatrix(np.eye(n)),
        den=_denominators(*(np.diag(x) for x in (DA, DB, DC, DD))),
        row_sizes=row_sizes,
        col_sizes=col_sizes,
    )


def _lam(ps):
    mids = [x.mid for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)]
    return np.kron(mids[1].T, mids[0]) + np.kron(mids[3].T, mids[2])


def test_form_validates_partition_sums():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="do not sum"):
        _system(eye, eye, eye, eye, row_sizes=(2,), col_sizes=(1,))


def test_form_rejects_off_pattern_entries():
    ps = _hand_form()
    # (2, 1) upper blocks on the left, one lower 2x2 block on the right
    outside = {"Ap": (0, 2), "Cp": (1, 0), "Bp": (0, 1), "Dp": (0, 1)}
    for name, (i, j) in outside.items():
        bad = getattr(ps, name).mid.copy()
        bad[i, j] = 1e-300
        with pytest.raises(ValueError, match="outside its block pattern"):
            dataclasses.replace(ps, **{name: IMatrix(bad)})


def _hand_form():
    # left side: one upper 2x2 block and one 1x1; right side: one lower 2x2
    DA = np.array([[2.0, 0.5, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    DC = np.array([[1.0, -0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    DB = np.array([[1.5, 0.0], [0.3, 2.0]])
    DD = np.array([[0.5, 0.0], [-0.2, 0.75]])
    return _system(DA, DC, DB, DD, row_sizes=(2, 1), col_sizes=(2,))


class TestIntervalBackSubstitute:
    def test_matches_dense_lu_on_point_rhs(self):
        ps = _hand_form()
        rhs = np.arange(1.0, 7.0).reshape(3, 2)
        expect = unvec(np.linalg.solve(_lam(ps), vec(rhs)), 3, 2)
        got = interval_back_substitute(ps, IMatrix(rhs))
        assert np.abs(got.mid - expect).max() <= 1e-12 * np.abs(expect).max()
        assert got.contains_point(expect)

    def test_contains_solutions_of_perturbed_rhs(self):
        ps = _hand_form()
        lam = _lam(ps)
        rhs = IMatrix(np.ones((3, 2)), np.full((3, 2), 0.05))
        got = interval_back_substitute(ps, rhs)
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rhs.mid + rhs.rad * rng.uniform(-1, 1, size=(3, 2))
            x = unvec(np.linalg.solve(lam, vec(f)), 3, 2)
            assert got.contains_point(x)

    def test_all_scalar_blocks_reduce_to_hadamard_division(self):
        DA, DC = np.diag([2.0, 3.0]), np.diag([1.0, 1.0])
        DB, DD = np.diag([1.0, 4.0]), np.diag([0.5, 0.5])
        ps = _system(DA, DC, DB, DD, row_sizes=(1, 1), col_sizes=(1, 1))
        rhs = IMatrix(np.ones((2, 2)), np.full((2, 2), 0.1))
        # each unknown has an empty tail: its numerator is the rhs entry as it is
        mid, rad = _quot(rhs.mid, rhs.rad, ps.den.rec_mid, ps.den.rec_rad)
        got = interval_back_substitute(ps, rhs)
        # bit for bit mkw's quotient rule
        assert np.array_equal(got.mid, mid) and np.array_equal(got.rad, rad)

    def test_singular_pivot_raises(self):
        ps = _hand_form()
        DA, DC = np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))
        with pytest.raises(SingularPreconditionerError, match="singular preconditioner entry"):
            _system(DA, DC, ps.Bp.mid, ps.Dp.mid, row_sizes=(1, 1, 1), col_sizes=(2,))


def _random_sizes(rng, total):
    sizes = []
    while sum(sizes) < total:
        sizes.append(int(min(rng.integers(1, 4), total - sum(sizes))))
    return tuple(sizes)


def _random_form(rng, a_sizes, b_sizes, complex_):
    def factor(sizes, lower):
        k = sum(sizes)
        x = rng.normal(size=(k, k)) + (1j * rng.normal(size=(k, k)) if complex_ else 0.0)
        x = 0.1 * x + np.diag(2.0 + rng.uniform(size=k))
        return np.where(block_mask(sizes, lower=lower), x, 0.0)

    DA, DC = factor(a_sizes, False), factor(a_sizes, False)
    DB, DD = factor(b_sizes, True), factor(b_sizes, True)
    return _system(DA, DC, DB, DD, row_sizes=a_sizes, col_sizes=b_sizes)


def _assert_matches_dense_solve(ps, rng, samples=20):
    m, n = ps.m, ps.n
    lam = _lam(ps)
    rhs = IMatrix(rng.normal(size=(m, n)), np.full((m, n), 1e-3))
    got = interval_back_substitute(ps, rhs)
    expect = unvec(np.linalg.solve(lam, vec(rhs.mid)), m, n)
    assert np.abs(got.mid - expect).max() <= 1e-12 * np.abs(expect).max()
    for _ in range(samples):
        f = rhs.mid + rhs.rad * rng.uniform(-1, 1, size=(m, n))
        assert got.contains_point(unvec(np.linalg.solve(lam, vec(f)), m, n))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_tiles_match_dense_solve_on_mixed_block_sizes(complex_):
    rng = np.random.default_rng(11 + complex_)
    for _ in range(10):
        m, n = rng.integers(2, 9, size=2)
        form = _random_form(rng, _random_sizes(rng, m), _random_sizes(rng, n), complex_)
        _assert_matches_dense_solve(form, rng)


def test_single_block_form_matches_dense_solve():
    rng = np.random.default_rng(13)
    _assert_matches_dense_solve(_random_form(rng, (7,), (5,), True), rng)


class TestBlockSolve:
    def test_diagonalizable_system_comparable_to_diagonal_solver(self):
        sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-6, seed=4))
        blk = mkw_block_solve(sys)
        ref = mkw_solve(sys)
        assert blk.verified and ref.verified
        assert blk.method == "blk"
        assert float(blk.evaluated.rad.sum()) <= 2.0 * float(ref.evaluated.rad.sum())
        for x in sample_solutions(sys, n_samples=40, seed=5):
            assert blk.evaluated.contains_point(x)

    def test_jordan_midpoint_rescued(self):
        A = IMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), np.full((2, 2), 1e-8))
        eye = IMatrix(np.eye(2))
        D = IMatrix(np.diag([2.0, 3.0]), np.full((2, 2), 1e-8))
        X0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        F = IMatrix(A.mid @ X0 + X0 @ D.mid, np.full((2, 2), 1e-8))
        sys = SylvesterSystem(A=A, B=eye, C=eye, D=D, F=F)
        assert not mkw_solve(sys).verified
        blk = mkw_block_solve(sys)
        assert blk.verified
        assert blk.precond is not None
        for x in sample_solutions(sys, n_samples=60, seed=6):
            assert blk.evaluated.contains_point(x)

    def test_jordan_block_on_the_column_side(self):
        # tiles with b = 2: the midpoint of B is a 2x2 Jordan block
        amid = np.array([[2.0, 0.5, 0.0], [0.1, 3.0, 0.2], [0.0, 0.3, 5.0]])
        A = IMatrix(amid, np.full((3, 3), 1e-8))
        B = IMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), np.full((2, 2), 1e-8))
        X0 = np.arange(1.0, 7.0).reshape(3, 2)
        F = IMatrix(A.mid @ X0 @ B.mid + X0, np.full((3, 2), 1e-8))
        sys = SylvesterSystem(A=A, B=B, C=IMatrix(np.eye(3)), D=IMatrix(np.eye(2)), F=F)
        assert not mkw_solve(sys).verified
        blk = mkw_block_solve(sys)
        assert blk.verified
        assert blk.precond.col_sizes == (2,)
        for x in sample_solutions(sys, n_samples=60, seed=7):
            assert blk.evaluated.contains_point(x)

    def test_enclosure_carries_its_preconditioned_system(self):
        # the Jordan block of A stays whole; the scalar B = I keeps the column side one block
        A = IMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), np.full((2, 2), 1e-8))
        eye = IMatrix(np.eye(2))
        D = IMatrix(np.diag([2.0, 3.0]), np.full((2, 2), 1e-8))
        F = IMatrix(np.ones((2, 2)), np.full((2, 2), 1e-8))
        blk = mkw_block_solve(SylvesterSystem(A=A, B=eye, C=eye, D=D, F=F))
        ps = blk.precond
        assert isinstance(ps, PrecondSystem) and not ps.diagonal
        assert (ps.row_sizes, ps.col_sizes) == ((2,), (2,))
        assert ps.cond_bound >= 1.0
        assert blk.U is ps.U and np.array_equal(blk.Vinv, ps.vinv_box.mid)
        # the denominators of the stored pattern diagonals, which every division reads
        expect = _denominators(*(np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)))
        assert all(np.array_equal(x, y) for x, y in zip(ps.den, expect))

    def test_diagonalizable_system_takes_the_diagonal_path(self):
        sys = generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0))
        blk = mkw_block_solve(sys)
        assert blk.verified and blk.precond.diagonal
        assert blk.precond.row_sizes == blk.precond.col_sizes == (1,) * 8


class TestBlockDonor:
    """blk takes its donors from the rule of ``precond``: one block form per candidate."""

    @staticmethod
    def _count_block_forms(monkeypatch):
        import sylvenc.blockdiag as bd

        seen = []
        orig = bd.block_diagonalize
        monkeypatch.setattr(
            bd, "block_diagonalize", lambda a, *args, **kw: seen.append(a) or orig(a, *args, **kw)
        )
        return seen

    def test_an_equal_pair_is_block_diagonalized_once(self, monkeypatch):
        sys = generate(GenSpec(family="gallery33", m=8, alpha=1e-6))
        seen = self._count_block_forms(monkeypatch)
        assert mkw_block_solve(sys).verified
        assert len(seen) == 2
        assert all(np.array_equal(x, sys.A.mid) for x in seen)

    def test_a_losing_scalar_member_is_never_block_diagonalized(self, monkeypatch):
        rng = np.random.default_rng(8)
        m = 16
        rad = np.full((m, m), 1e-8)
        eye = IMatrix(np.eye(m))
        sys = SylvesterSystem(
            A=IMatrix(_jordan(m, 8), rad),
            B=IMatrix(np.diag(rng.uniform(1.0, 2.0, m)), rad),
            C=eye,
            D=eye,
            F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
        )
        seen = self._count_block_forms(monkeypatch)
        blk = mkw_block_solve(sys)
        assert blk.verified and blk.precond.row_sizes == (2,) * (m // 2)
        assert len(seen) == 2
        assert seen[0] is sys.A.mid and seen[1] is sys.B.mid

    def test_a_winning_scalar_member_is_block_diagonalized_when_it_wins(self, monkeypatch):
        # an upper-triangular C sits on I's pattern already, so A = I scores 0
        # and, first in its pair, keeps the tie
        m = 6
        rng = np.random.default_rng(9)
        rad = np.full((m, m), 1e-8)
        c = np.triu(rng.uniform(0.1, 0.2, (m, m)), 1) + np.diag(np.linspace(2.0, 3.0, m))
        sys = SylvesterSystem(
            A=IMatrix(np.eye(m), rad),
            B=IMatrix(np.eye(m)),
            C=IMatrix(c, rad),
            D=IMatrix(np.diag(np.linspace(1.0, 2.0, m))),
            F=IMatrix(np.ones((m, m)), rad),
        )
        seen = self._count_block_forms(monkeypatch)
        blk = mkw_block_solve(sys)
        assert blk.verified
        assert np.array_equal(blk.precond.U, np.eye(m)) and blk.precond.row_sizes == (m,)
        # C's block form was scored; I's was formed only once it had won
        assert seen[0] is sys.C.mid and seen[1] is sys.A.mid

    def test_uncertified_block_basis_drops_out(self, monkeypatch):
        import sylvenc.precond as precond
        from sylvenc import EigenDecompositionError
        from sylvenc.errors import SingularMatrixError

        orig = precond.inverse_enclosure

        # the certified inverse of every basis but a permutation fails
        def certify(a, *args, **kwargs):
            if np.count_nonzero(a) > len(a):
                raise SingularMatrixError("singular matrix: inverse certificate failed")
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(precond, "inverse_enclosure", certify)
        m = 8
        rad = np.full((m, m), 1e-8)
        a = IMatrix(_jordan(m, 3), rad)
        eye = IMatrix(np.eye(m))
        F = IMatrix(np.ones((m, m)), rad)
        # I keeps all of A's Jordan mass off its pattern
        with pytest.warns(UserWarning, match="far from commuting"):
            blk = mkw_block_solve(SylvesterSystem(A=a, B=eye, C=eye, D=eye, F=F))
        assert np.array_equal(blk.precond.U, np.eye(m))
        with pytest.raises(EigenDecompositionError):
            mkw_block_solve(SylvesterSystem(A=a, B=eye, C=IMatrix(2.0 * a.mid), D=eye, F=F))


class TestDecouple:
    """The triangular Sylvester solve that decouples two clusters of a Schur form."""

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 3)])
    def test_matches_solve_sylvester_on_triangular_blocks(self, p, q):
        import scipy.linalg

        from sylvenc.blockdiag import _decouple

        rng = np.random.default_rng(10 * p + q)
        for _ in range(5):
            t11 = np.triu(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))
            t22 = np.triu(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) + 4.0 * np.eye(q)
            t12 = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
            got = _decouple(t11, t22, t12)
            ref = scipy.linalg.solve_sylvester(t11, -t22, -t12)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert np.abs(t11 @ got - got @ t22 + t12).max() <= 1e-12 * np.abs(t12).max() * 10

    def test_close_or_overflowing_equations_merge_instead(self):
        from sylvenc.blockdiag import _decouple

        one = np.array([[1.0 + 0j]])
        # a shared eigenvalue: ztrsyl reports info = 1
        assert _decouple(one, one, one) is None
        # a solution ztrsyl has to scale down: scale < 1
        assert _decouple(one, np.array([[1.0 + 1e-10j]]), np.array([[1e300 + 0j]])) is None

    def test_jordan_family_keeps_its_block_sizes(self):
        rng = np.random.default_rng(4)
        m = 16
        J = np.zeros((m, m))
        idx = np.arange(m // 2)
        J[2 * idx, 2 * idx] = J[2 * idx + 1, 2 * idx + 1] = np.linspace(1.0, 3.0, m // 2)
        J[2 * idx, 2 * idx + 1] = 1.0
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        half = block_diagonalize(Q @ J @ Q.T)
        assert half.sizes == (2,) * (m // 2)
        assert block_diagonalize(np.eye(m)).sizes == (m,)


def _union_find_labels(lams, sep):
    """Cluster labels by a union-find over every close pair: the roots are smallest positions."""
    parent = list(range(len(lams)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) <= sep:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(lams))]


class TestClusters:
    """Eigenvalue clustering by the connected components of the closeness graph."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_union_find_on_clustered_spectra(self, seed):
        from sylvenc.blockdiag import _clusters

        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 40))
        centers = rng.normal(size=4) + 1j * rng.normal(size=4)
        # chains of close values: clusters that only transitivity joins
        jitter = rng.normal(size=m) + 1j * rng.normal(size=m)
        lams = centers[rng.integers(0, 4, m)] + 1e-5 * jitter
        lams[rng.integers(0, m, m // 4)] = rng.normal(size=m // 4)
        sep = 2e-5
        got = _clusters(lams, sep)
        assert got.tolist() == _union_find_labels(lams, sep)

    @pytest.mark.parametrize("m", [2, 9, 64])
    def test_a_shuffled_chain_is_one_cluster(self, m):
        from sylvenc.blockdiag import _clusters

        # neighbours 1e-5 apart, ends (m - 1) * 1e-5 apart: only the chain joins them
        lams = 1.0 + 1e-5 * np.random.default_rng(m).permutation(m)
        sep = 1.5e-5
        assert _clusters(lams, sep).tolist() == _union_find_labels(lams, sep) == [0] * m

    def test_scalar_matrix_is_one_cluster(self):
        from sylvenc.blockdiag import _clusters

        lams = np.full(7, 2.5 + 0j)
        assert _clusters(lams, 0.0).tolist() == [0] * 7
        assert block_diagonalize(2.5 * np.eye(7)).sizes == (7,)


def _jordan(m, seed):
    """``Q J Q^T`` with ``J`` made of 2x2 Jordan blocks, eigenvalues spread over [1, 3]."""
    rng = np.random.default_rng(seed)
    J = np.zeros((m, m))
    idx = np.arange(m // 2)
    lam = np.linspace(1.0, 3.0, m // 2) + 0.01 * rng.uniform(-1.0, 1.0, m // 2)
    J[2 * idx, 2 * idx] = J[2 * idx + 1, 2 * idx + 1] = lam
    J[2 * idx, 2 * idx + 1] = 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ J @ Q.T


def _clustered(seed):
    """Orthogonally similar to a triangular matrix with clusters of close eigenvalues."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 30))
    centers = np.arange(4) + 1j * rng.uniform(-1.0, 1.0, 4)
    lams = centers[rng.integers(0, 4, m)] + 1e-9 * rng.standard_normal(m)
    T = np.diag(lams) + 0.3 * np.triu(rng.standard_normal((m, m)), 1)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ T @ Q.T


class TestColumnSweep:
    """The column sweep against the pairwise sweep of ``tests/blockdiag_oracle.py``."""

    @staticmethod
    def _assert_matches_oracle(a):
        from blockdiag_oracle import pairwise_block_diagonalize

        got = block_diagonalize(a)
        ref = pairwise_block_diagonalize(a)
        assert got.sizes == ref.sizes
        tol = 1e-12 * max(ref.cond_bound, 1.0)
        for x, y in ((got.U, ref.U), (got.T, ref.T)):
            assert np.abs(x - y).max() <= tol * max(np.abs(y).max(), 1.0)
        assert got.cond_bound == pytest.approx(ref.cond_bound, rel=1e-8)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_on_clustered_spectra(self, seed):
        a = _clustered(seed)
        half = self._assert_matches_oracle(a)
        assert len(half.sizes) < a.shape[0]

    @pytest.mark.parametrize("m", [16, 32, 48])
    def test_matches_pairwise_on_the_jordan_family(self, m):
        half = self._assert_matches_oracle(_jordan(m, m))
        assert half.sizes == (2,) * (m // 2)

    def test_matches_pairwise_on_diagonal_and_scalar_matrices(self):
        d = np.diag(np.random.default_rng(5).uniform(1.0, 2.0, 24))
        assert self._assert_matches_oracle(d).cond_bound == 1.0
        self._assert_matches_oracle(np.eye(24))

    def test_scalar_matrix_is_returned_without_a_schur_form(self):
        half = block_diagonalize(2.5 * np.eye(5))
        eye = np.eye(5)
        assert (half.U == eye).all() and (half.Uinv == eye).all()
        assert (half.T == 2.5 * eye).all()
        assert half.sizes == (5,) and half.cond_bound == 1.0

    def test_cap_fuses_from_the_largest_row_of_y_through_the_column(self):
        # a bidiagonal chain with eigenvalues 0.02 apart, too far apart to
        # cluster: the column of 1.06 needs Y of about 1 / (0.06 * 0.04 * 0.02)
        # in row 1, so clusters 1..4 fuse and the eigenvalue 5 stays alone
        a = np.diag([5.0, 1.0, 1.02, 1.04, 1.06])
        a[1, 2] = a[2, 3] = a[3, 4] = 1.0
        a[0, 1:] = 0.3
        half = block_diagonalize(a)
        assert half.sizes == (1, 4)
        assert (half.T[~block_mask(half.sizes)] == 0).all()
        resid = half.U @ half.T @ np.linalg.inv(half.U) - a
        assert np.abs(resid).max() <= 1e-8 * np.abs(a).max()
        # a cap below every decoupling fuses everything into one block
        assert block_diagonalize(a, max_cond=1e-6).sizes == (5,)

    def test_a_failed_decoupling_fuses_every_cluster_through_the_column(self, monkeypatch):
        import sylvenc.blockdiag as bd

        a = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1)
        assert block_diagonalize(a).sizes == (1, 1, 1, 1)
        monkeypatch.setattr(bd, "_decouple", lambda t11, t22, t12: None)
        half = block_diagonalize(a)
        assert half.sizes == (4,) and half.cond_bound < 10.0
