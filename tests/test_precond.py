"""Spectral preconditioning of the interval system."""

import dataclasses
import warnings

import numpy as np
import pytest

from sylvenc import GenSpec, IMatrix, SylvesterSystem, generate, transform_enclose
from sylvenc.intervals import _denominators
from sylvenc.precond import _project_pattern, simultaneous_diag

from exact_oracle import add, exact, in_disk, mul, recip


def _random_diagonalizable(m, rng, spread=2.0):
    vals = rng.uniform(1.0, 1.0 + spread, size=m) * rng.choice((-1.0, 1.0), size=m)
    p = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    return p @ np.diag(vals) @ np.linalg.inv(p)


class TestSimultaneousDiag:
    """The one conjugation of a pair into a donor's basis."""

    @staticmethod
    def _pair(a, c):
        rad = np.full(a.shape, 1e-10)
        return IMatrix(a, rad), IMatrix(c, rad)

    def test_commuting_pair_diagonalizes_both(self):
        from sylvenc.linalg import eig_decompose

        rng = np.random.default_rng(0)
        a = _random_diagonalizable(5, rng)
        c = 0.5 * np.eye(5) + 0.25 * a + 0.125 * (a @ a)  # commutes with a
        eig = eig_decompose(a)
        inv_box, raw = simultaneous_diag(self._pair(a, c), eig.vectors, eig.inv_vectors)
        assert inv_box.mid is eig.inv_vectors
        for r in raw:
            off = r.mid - np.diag(np.diag(r.mid))
            assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(r.mid)).max()
        assert np.abs(np.diag(raw[0].mid) - eig.values).max() <= 1e-8
        # the sandwich midpoints are the point products (Uinv @ mid) @ U
        for r, x in zip(raw, (a, c)):
            assert np.array_equal(r.mid, (eig.inv_vectors @ x) @ eig.vectors)

    def test_identity_second_matrix(self):
        from sylvenc.linalg import eig_decompose

        rng = np.random.default_rng(1)
        a = _random_diagonalizable(4, rng)
        eig = eig_decompose(a)
        _, raw = simultaneous_diag(self._pair(a, np.eye(4)), eig.vectors, eig.inv_vectors)
        assert raw[1].contains_point(np.eye(4))
        assert np.abs(raw[1].mid - np.eye(4)).max() <= 1e-10

    def test_failed_certificate_raises(self):
        from sylvenc.errors import SingularMatrixError

        a = np.eye(3)
        with pytest.raises(SingularMatrixError, match="certificate failed"):
            simultaneous_diag(self._pair(a, a), np.ones((3, 3)), np.eye(3))


def test_build_S_outer_product_structure():
    dA = np.array([2.0, 3.0])
    dB = np.array([1.0, 4.0, 5.0])
    dC = np.array([1.0, 1.0])
    dD = np.array([0.5, 0.5, 0.5])
    den = _denominators(dA, dB, dC, dD)
    assert den.mid.shape == den.rad.shape == (2, 3)
    expect = np.outer(dA, dB) + np.outer(dC, dD)
    assert np.abs(den.mid - expect).max() <= 1e-14 * np.abs(expect).max()
    assert (np.abs(den.mid - expect) <= den.rad).all()


def test_projection_pads_the_off_diagonal_radius_sum():
    # 1e-20 is far below half an ulp of the radius 1: an unpadded sum would drop it
    x = IMatrix(np.array([[1.0, 1e-20], [0.0, 1.0]]), np.ones((2, 2)))
    got = _project_pattern(x, np.eye(2, dtype=bool))
    assert np.array_equal(got.mid, np.eye(2))
    assert got.rad[0, 1] > 1.0
    assert (got.rad >= 1.0).all()


class TestTransformEnclose:
    def test_midpoints_exactly_diagonal(self):
        sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-6, seed=2))
        ps = transform_enclose(sys)
        for mat in (ps.Ap, ps.Bp, ps.Cp, ps.Dp):
            off = mat.mid - np.diag(np.diag(mat.mid))
            assert np.abs(off).max() == 0.0

    def test_S_matches_kronecker_diagonal(self):
        from sylvenc import vec

        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        dA, dB, dC, dD = (np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp))
        q = np.kron(np.diag(dB).T, np.diag(dA)) + np.kron(np.diag(dD).T, np.diag(dC))
        S = ps.den.mid
        assert np.abs(vec(S) - np.diag(q)).max() <= 1e-12 * np.abs(S).max()

    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_den_contains_the_exact_products(self, family):
        # a_i b_j + c_i d_j of the stored diagonals, and its reciprocal, in exact arithmetic
        sys = generate(GenSpec(family=family, m=4, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        a, b, c, d = (np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp))
        for i in range(ps.m):
            for j in range(ps.n):
                p = add(mul(exact(a[i]), exact(b[j])), mul(exact(c[i]), exact(d[j])))
                assert in_disk(p, ps.den.mid[i, j], ps.den.rad[i, j])
                assert in_disk(recip(p), ps.den.rec_mid[i, j], ps.den.rec_rad[i, j])

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
            uinv, u = (ps.uinv_box.mid, ps.U) if key in "AC" else (ps.vinv_box.mid, ps.V)
            assert ps.offdiag_mass[key] == _conj_offdiag_rel(uinv, mid, u)


def _same_precond(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, IMatrix):
            x, y = (x.mid, x.rad), (y.mid, y.rad)
        elif isinstance(x, np.ndarray):
            x, y = (x,), (y,)
        elif not (isinstance(x, tuple) and isinstance(x[0], np.ndarray)):
            # ``den`` is a tuple of arrays already; the partitions are tuples of ints
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


def _count_conjugations(monkeypatch):
    """Record each call of ``precond.simultaneous_diag``, the one conjugation of a pair."""
    import sylvenc.precond as precond

    calls = []
    orig = precond.simultaneous_diag
    monkeypatch.setattr(
        precond, "simultaneous_diag", lambda *a, **k: calls.append(1) or orig(*a, **k)
    )
    return calls


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


def _commuting_system(m=6, seed=3, d_scalar=True):
    """``(A, C)`` distinct, non-scalar and commuting; ``D = I`` or a polynomial in ``B``."""
    rng = np.random.default_rng(seed)
    a = _random_diagonalizable(m, rng)
    c = 0.5 * np.eye(m) + 0.25 * a + 0.125 * (a @ a)
    b = _random_diagonalizable(m, rng)
    d = np.eye(m) if d_scalar else 0.25 * np.eye(m) + 0.5 * b - 0.0625 * (b @ b)
    rad = np.full((m, m), 1e-8)
    return SylvesterSystem(
        A=IMatrix(a, rad), B=IMatrix(b, rad), C=IMatrix(c, rad), D=IMatrix(d, rad),
        F=IMatrix(np.ones((m, m)), rad),
    )


class TestForcedDonors:
    """The rule's shortcuts give the system that conjugating every candidate gives.

    A scalar member is scored without a conjugation, and conjugated only when
    it wins; scoring it from its sandwich instead (``_scalar`` reports no
    scalar matrix, so ``I`` comes from ``eig_decompose`` and is conjugated
    like any other basis) must change no bit.
    """

    @staticmethod
    def _scored(monkeypatch, sys):
        import sylvenc.precond as precond

        with monkeypatch.context() as mp:
            mp.setattr(precond, "_scalar", lambda a: False)
            return transform_enclose(sys)

    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_families_match_the_scoring_path(self, monkeypatch, family, m):
        sys = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
        scored = self._scored(monkeypatch, sys)
        calls = _count_conjugations(monkeypatch)
        forced = transform_enclose(sys)
        # scalar pairs whose eigenbasis wins and equal pairs: one conjugation a side
        assert len(calls) == 2
        _same_precond(forced, scored)

    @pytest.mark.parametrize("seed, scalar_wins", [(0, False), (2, True)])
    def test_defective_midpoint_matches_the_scoring_path(self, monkeypatch, seed, scalar_wins):
        # the eigenbasis of a defective midpoint may leave more off-diagonal
        # mass than the scalar member's basis I; then I wins and is conjugated too
        sys = _jordan_system(seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = self._scored(monkeypatch, sys)
            calls = _count_conjugations(monkeypatch)
            forced = transform_enclose(sys)
        assert np.array_equal(forced.U, np.eye(8)) == scalar_wins
        assert len(calls) == 2 + scalar_wins
        _same_precond(forced, scored)

    @pytest.mark.parametrize(
        "make, conjugations",
        [(lambda: generate(GenSpec(family="kyc31", m=8, alpha=1e-6)), 4), (_jordan_system, 3)],
        ids=["kyc31", "jordan"],
    )
    def test_uncertified_winning_eigenbasis_drops_out(self, monkeypatch, make, conjugations):
        sys = make()
        _fail_certificate(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            calls = _count_conjugations(monkeypatch)
            ps = transform_enclose(sys)
        # the eigenbasis of A fails its certificate and the scalar member's I is
        # conjugated; so is kyc31's B, while the Jordan family's diagonal B keeps I
        assert np.array_equal(ps.U, np.eye(8)) and np.array_equal(ps.V, np.eye(8))
        assert ps.offdiag_mass["A"] == _conj_offdiag_rel(np.eye(8), sys.A.mid, np.eye(8))
        assert len(calls) == conjugations

    def test_uncertified_losing_eigenbasis_gives_the_scalar_basis(self, monkeypatch):
        sys = _jordan_system(seed=2)
        _fail_certificate(monkeypatch)
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
        calls = _count_conjugations(monkeypatch)
        transform_enclose(_commuting_system())
        # (A, C) conjugates both candidates; (B, I) only B's eigenbasis
        assert len(calls) == 3


class TestDonorRule:
    """One rule picks the donor of a pair: each candidate is conjugated at most once."""

    @staticmethod
    def _side(pair):
        from sylvenc.precond import _eig_memo, _eigen_donor

        return _eigen_donor(pair, _eig_memo())

    @staticmethod
    def _pair(a, c):
        rad = np.full(a.shape, 1e-8)
        return IMatrix(a, rad), IMatrix(c, rad)

    def test_conjugations_per_kind_of_pair(self, monkeypatch):
        rng = np.random.default_rng(5)
        eye = np.eye(8)
        a = _random_diagonalizable(8, rng)
        c = 0.5 * eye + 0.25 * a + 0.125 * (a @ a)
        jordan = _jordan_system(seed=2).A.mid
        cases = [
            ((a, eye), 1, 0),  # scalar pair, the eigenbasis wins
            ((eye, a), 1, 1),
            ((jordan, eye), 2, 1),  # scalar pair, I wins
            ((a, a), 1, 0),  # equal pair: one candidate
            ((eye, eye), 1, 0),
            ((2.0 * eye, 3.0 * eye), 1, 0),  # both scalar: a tie keeps the first
            ((a, c), 2, None),  # distinct non-scalar pair
        ]
        calls = _count_conjugations(monkeypatch)
        for mids, conjugations, donor in cases:
            calls.clear()
            side = self._side(self._pair(*mids))
            assert len(calls) == conjugations, mids
            if donor is not None:
                assert side.index == donor

    def test_lowest_score_wins(self):
        rng = np.random.default_rng(6)
        a = _random_diagonalizable(6, rng)
        c = 0.5 * np.eye(6) + 0.25 * a + 0.125 * (a @ a)
        rad = np.full((6, 6), 1e-8)
        pair = (IMatrix(a, rad), IMatrix(c, rad))
        from sylvenc.linalg import eig_decompose

        scores = []
        for mid in (a, c):
            eig = eig_decompose(mid)
            _, raw = simultaneous_diag(pair, eig.vectors, eig.inv_vectors)
            scores.append(max(_conj_offdiag_rel(eig.inv_vectors, x, eig.vectors) for x in (a, c)))
            assert scores[-1] == max(
                float(np.abs(r.mid - np.diag(np.diag(r.mid))).sum(axis=1).max())
                / float(np.abs(x).sum(axis=1).max())
                for r, x in zip(raw, (a, c))
            )
        side = self._side(pair)
        assert side.index == int(scores[1] < scores[0])
        assert max(side.mass) == min(scores)

    def test_both_candidates_uncertified_raise(self, monkeypatch):
        from sylvenc.errors import EigenDecompositionError

        _fail_certificate(monkeypatch)
        with pytest.raises(EigenDecompositionError):
            transform_enclose(_commuting_system(d_scalar=False))

    def test_both_sides_of_a_general_system(self, monkeypatch):
        calls = _count_conjugations(monkeypatch)
        ps = transform_enclose(_commuting_system(d_scalar=False))
        assert len(calls) == 4
        assert all(v < 1e-8 for v in ps.offdiag_mass.values())
