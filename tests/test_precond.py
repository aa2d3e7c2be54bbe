"""Spectral preconditioning of the interval system."""

import dataclasses
import warnings

import numpy as np
import pytest

from sylvenc import GenSpec, IMatrix, SylvesterSystem, generate, transform_enclose
from sylvenc.precond import build_S, simultaneous_diag


def _random_diagonalizable(m, rng, spread=2.0):
    vals = rng.uniform(1.0, 1.0 + spread, size=m) * rng.choice((-1.0, 1.0), size=m)
    p = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    return p @ np.diag(vals) @ np.linalg.inv(p)


class TestSimultaneousDiag:
    def test_commuting_pair_diagonalizes_both(self):
        rng = np.random.default_rng(0)
        a = _random_diagonalizable(5, rng)
        c = 0.5 * np.eye(5) + 0.25 * a + 0.125 * (a @ a)  # commutes with a
        res = simultaneous_diag(a, c)
        assert res.offdiag_mass <= 1e-8
        assert res.commutator <= 1e-10 * max(1.0, np.abs(a @ c).max())
        # U diagonalizes the first matrix
        back = res.Uinv @ a @ res.U
        off = back - np.diag(np.diag(back))
        assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(back)).max()
        assert np.abs(np.sort(res.dA) - np.sort(np.linalg.eigvals(a))).max() <= 1e-8

    def test_identity_second_matrix(self):
        rng = np.random.default_rng(1)
        a = _random_diagonalizable(4, rng)
        res = simultaneous_diag(a, np.eye(4))
        assert res.offdiag_mass <= 1e-10
        assert np.abs(res.dC - 1.0).max() <= 1e-10


def test_build_S_outer_product_structure():
    dA = np.array([2.0, 3.0])
    dB = np.array([1.0, 4.0, 5.0])
    dC = np.array([1.0, 1.0])
    dD = np.array([0.5, 0.5, 0.5])
    S = build_S(dA, dB, dC, dD)
    assert S.shape == (2, 3)
    expect = np.outer(dA, dB) + np.outer(dC, dD)
    assert np.abs(S - expect).max() <= 1e-14 * np.abs(expect).max()


class TestTransformEnclose:
    def test_midpoints_exactly_diagonal(self):
        sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-6, seed=2))
        ps = transform_enclose(sys)
        for mat in (ps.Ap, ps.Bp, ps.Cp, ps.Dp):
            off = mat.mid - np.diag(np.diag(mat.mid))
            assert np.abs(off).max() == 0.0

    def test_S_matches_kronecker_diagonal(self):
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        q = np.kron(np.diag(ps.dB).T, np.diag(ps.dA)) + np.kron(
            np.diag(ps.dD).T, np.diag(ps.dC)
        )
        from sylvenc import vec

        assert np.abs(vec(ps.S) - np.diag(q)).max() <= 1e-12 * np.abs(ps.S).max()

    def test_member_solutions_map_into_preconditioned_frame(self):
        # X0 solves a member system  =>  Uinv X0 V solves the transformed one,
        # so the transformed residual of Uinv X0 V must straddle zero.
        from sylvenc import as_imatrix, im_matmul, point_solve

        rng = np.random.default_rng(4)
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-4, seed=5))
        ps = transform_enclose(sys)
        for _ in range(10):
            mats = []
            for mat in (sys.A, sys.B, sys.C, sys.D, sys.F):
                mats.append(mat.mid + mat.rad * rng.uniform(-1, 1, size=mat.shape))
            x0 = point_solve(*mats)
            y0 = as_imatrix(np.linalg.solve(ps.U, x0) @ ps.V)
            resid = (
                ps.Fp
                - im_matmul(im_matmul(ps.Ap, y0), ps.Bp)
                - im_matmul(im_matmul(ps.Cp, y0), ps.Dp)
            )
            # tiny float slack on the oracle side only
            assert (np.abs(resid.mid) <= resid.rad * (1 + 1e-9) + 1e-10).all()

    def test_offdiag_mass_reported_per_coefficient(self):
        sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-6, seed=6))
        ps = transform_enclose(sys)
        assert set(ps.offdiag_mass) == {"A", "B", "C", "D"}
        assert all(v < 1e-8 for v in ps.offdiag_mass.values())

    def test_certified_inverse_boxes_present(self):
        sys = generate(GenSpec(family="sylvester32", m=4, alpha=1e-6, seed=7))
        ps = transform_enclose(sys)
        from sylvenc import as_imatrix, im_matmul

        prod = im_matmul(as_imatrix(ps.U), ps.uinv_box)
        assert prod.contains_point(np.eye(4))
        prod_v = im_matmul(as_imatrix(ps.V), ps.vinv_box)
        assert prod_v.contains_point(np.eye(4))


def test_degenerate_eigenbasis_raises():
    from sylvenc import EnclosureError, IMatrix, SylvesterSystem, mkw_solve

    # the midpoint of A is a Jordan block: no usable eigenvector basis
    A = IMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), np.full((2, 2), 1e-8))
    eye = IMatrix(np.eye(2))
    D = IMatrix(np.diag([2.0, 3.0]))
    F = IMatrix(np.ones((2, 2)), np.full((2, 2), 1e-8))
    sys = SylvesterSystem(A=A, B=eye, C=eye, D=D, F=F)
    try:
        enc = mkw_solve(sys)
        assert not enc.verified
    except EnclosureError:
        pass  # raising is the other acceptable contract


def _conj_offdiag_rel(uinv, a, u):
    """Relative inf-norm off-diagonal mass of ``uinv a u``: the reference for ``offdiag_mass``."""
    conj = uinv @ a @ u
    off = conj - np.diag(np.diag(conj))
    return float(np.abs(off).sum(axis=1).max()) / float(np.abs(a).sum(axis=1).max())


class TestEigPerDistinctMidpoint:
    @staticmethod
    def _count_eigs(monkeypatch, sys):
        import sylvenc.precond as precond

        seen = []
        orig = precond.eig_decompose

        def counting(a):
            seen.append(np.array(a))
            return orig(a)

        monkeypatch.setattr(precond, "eig_decompose", counting)
        return transform_enclose(sys), seen

    def test_kyc31_decomposes_its_two_random_midpoints(self, monkeypatch):
        sys = generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0))
        ps, seen = self._count_eigs(monkeypatch, sys)
        # C = D = I take the exact basis I without an eig call
        assert len(seen) == 2
        assert np.array_equal(seen[0], sys.A.mid) and np.array_equal(seen[1], sys.B.mid)
        assert ps.offdiag_mass["A"] < 1e-8 and ps.offdiag_mass["B"] < 1e-8

    def test_gallery33_decomposes_its_one_midpoint_once(self, monkeypatch):
        sys = generate(GenSpec(family="gallery33", m=8, alpha=1e-6))
        _, seen = self._count_eigs(monkeypatch, sys)
        assert len(seen) == 1

    def test_scalar_basis_is_what_eig_returns(self):
        from sylvenc.linalg import eig_decompose
        from sylvenc.precond import _eigen

        for m in (1, 8, 32):
            for c in (1.0, -2.5):
                a = c * np.eye(m)
                got, ref = _eigen(a), eig_decompose(a)
                for field in ("values", "vectors", "inv_vectors"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field))
                    assert getattr(got, field).dtype == getattr(ref, field).dtype


class TestDiagnosticsKeepTheirValues:
    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_offdiag_mass_matches_the_conjugated_midpoints(self, family):
        sys = generate(GenSpec(family=family, m=8, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        mids = {"A": sys.A.mid, "C": sys.C.mid, "B": sys.B.mid, "D": sys.D.mid}
        for key, mid in mids.items():
            uinv, u = (ps.Uinv, ps.U) if key in "AC" else (ps.Vinv, ps.V)
            assert ps.offdiag_mass[key] == _conj_offdiag_rel(uinv, mid, u)

    def test_lazy_commutator_and_residual(self):
        from sylvenc.linalg import eig_decompose

        rng = np.random.default_rng(8)
        a = _random_diagonalizable(6, rng)
        c = 0.5 * np.eye(6) + 0.25 * a + 0.125 * (a @ a)  # commutes: no warning
        res = simultaneous_diag(a, c)
        assert res.commutator == float(np.linalg.norm(a @ c - c @ a))
        eig = eig_decompose(a)
        expect = float(np.abs(a @ eig.vectors - eig.vectors * eig.values[None, :]).max())
        assert eig.residual == expect


def _same_precond(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, IMatrix):
            x, y = (x.mid, x.rad), (y.mid, y.rad)
        elif isinstance(x, np.ndarray):
            x, y = (x,), (y,)
        else:
            assert x == y, f.name
            continue
        for u, v in zip(x, y):
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), f.name


def _jordan_system(m=8, seed=0):
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


class TestForcedDonors:
    """Pairs whose donor needs no scoring give the system the scoring gives."""

    @staticmethod
    def _scored(monkeypatch, sys):
        import sylvenc.precond as precond

        with monkeypatch.context() as mp:
            mp.setattr(precond, "_pair_kind", lambda first, second: "general")
            return transform_enclose(sys)

    @staticmethod
    def _count_scorings(monkeypatch):
        import sylvenc.precond as precond

        calls = []
        orig = precond.simultaneous_diag
        monkeypatch.setattr(
            precond, "simultaneous_diag", lambda *a, **k: calls.append(1) or orig(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_families_match_the_scoring_path(self, monkeypatch, family, m):
        sys = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
        scored = self._scored(monkeypatch, sys)
        calls = self._count_scorings(monkeypatch)
        forced = transform_enclose(sys)
        assert calls == []
        _same_precond(forced, scored)

    @pytest.mark.parametrize("seed, scalar_wins", [(0, False), (2, True)])
    def test_defective_midpoint_matches_the_scoring_path(self, monkeypatch, seed, scalar_wins):
        # the eigenbasis of a defective midpoint may leave more off-diagonal
        # mass than the scalar member's basis I; then the scoring chose I
        sys = _jordan_system(seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = self._scored(monkeypatch, sys)
            forced = transform_enclose(sys)
        assert np.array_equal(forced.U, np.eye(8)) == scalar_wins
        _same_precond(forced, scored)

    @staticmethod
    def _fail_certificate(monkeypatch):
        # the certified inverse of every non-diagonal basis fails
        import sylvenc.precond as precond
        from sylvenc.errors import SingularMatrixError

        orig = precond.inverse_enclosure

        def certify(a, *args, **kwargs):
            if np.count_nonzero(a - np.diag(np.diagonal(a))):
                raise SingularMatrixError("singular matrix: inverse certificate failed")
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(precond, "inverse_enclosure", certify)

    @pytest.mark.parametrize(
        "make",
        [lambda: generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0)), _jordan_system],
        ids=["kyc31", "jordan"],
    )
    def test_uncertified_winning_eigenbasis_raises_as_scored(self, monkeypatch, make):
        from sylvenc.errors import SingularMatrixError

        sys = make()
        self._fail_certificate(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SingularMatrixError, match="certificate failed"):
                self._scored(monkeypatch, sys)
            with pytest.raises(SingularMatrixError, match="certificate failed"):
                transform_enclose(sys)

    def test_uncertified_losing_eigenbasis_gives_the_scalar_basis(self, monkeypatch):
        sys = _jordan_system(seed=2)
        self._fail_certificate(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = self._scored(monkeypatch, sys)
            forced = transform_enclose(sys)
        assert np.array_equal(forced.U, np.eye(8))
        _same_precond(forced, scored)

    def test_far_from_commuting_warning_kept(self):
        with pytest.warns(UserWarning, match="far from commuting"):
            transform_enclose(_jordan_system())

    def test_distinct_non_scalar_pair_scores_both_candidates(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = 6
        a = _random_diagonalizable(m, rng)
        c = 0.5 * np.eye(m) + 0.25 * a + 0.125 * (a @ a)
        b = _random_diagonalizable(m, rng)
        rad = np.full((m, m), 1e-8)
        sys = SylvesterSystem(
            A=IMatrix(a, rad), B=IMatrix(b, rad), C=IMatrix(c, rad), D=IMatrix(np.eye(m)),
            F=IMatrix(np.ones((m, m)), rad),
        )
        calls = self._count_scorings(monkeypatch)
        transform_enclose(sys)
        # (A, C) is scored over both candidates; (B, I) is not scored
        assert len(calls) == 2
