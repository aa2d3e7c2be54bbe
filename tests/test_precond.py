"""Spectral preconditioning of the interval system."""

import dataclasses
import warnings

import numpy as np
import pytest

from sylvenc import GenSpec, IMatrix, SylvesterSystem, generate, transform_enclose
from sylvenc.intervals import _denominators
from sylvenc.linalg import lu_solve
from sylvenc.precond import Pattern, simultaneous_diag

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
        basis, raw = simultaneous_diag(self._pair(a, c), eig.vectors, eig.inv_vectors)
        assert basis.P is eig.inv_vectors and basis.perm is None
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

    def test_rho_not_below_one_raises(self):
        from sylvenc.errors import SingularMatrixError

        a = np.eye(3)
        with pytest.raises(SingularMatrixError, match="not below 1"):
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
    got = Pattern((1, 1)).project(x)
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
        S = ps.den_mid()
        assert np.abs(vec(S) - np.diag(q)).max() <= 1e-12 * np.abs(S).max()

    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_den_contains_the_exact_products(self, family):
        # a_i b_j + c_i d_j of the stored diagonals, and its reciprocal, in exact arithmetic
        sys = generate(GenSpec(family=family, m=4, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        a, b, c, d = (np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp))
        # the system keeps the reciprocal disks of these denominators and forms their
        # midpoints again
        den = _denominators(a, b, c, d)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(ps.rec, den.rec))
        assert ps.den_mid().tobytes() == den.mid.tobytes()
        for i in range(ps.m):
            for j in range(ps.n):
                p = add(mul(exact(a[i]), exact(b[j])), mul(exact(c[i]), exact(d[j])))
                assert in_disk(p, den.mid[i, j], den.rad[i, j])
                assert in_disk(recip(p), ps.rec.mid[i, j], ps.rec.rad[i, j])

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

    def test_vinv_is_the_point_factor_of_the_right_basis(self):
        # W = Vinv is the LU inverse of the right eigenbasis, a point; the
        # enclosure reports it as the back-transform's right factor
        from sylvenc import mkw_solve
        from sylvenc.linalg import _near_identity, eig_decompose

        sys = generate(GenSpec(family="sylvester32", m=4, alpha=1e-6, seed=7))
        enc = mkw_solve(sys)
        ps = enc.precond
        # sylvester32's right pair is (I, D): D donates
        eig = eig_decompose(sys.D.mid)
        assert np.array_equal(ps.V, eig.vectors) and np.array_equal(ps.Vinv, eig.inv_vectors)
        assert enc.Vinv is ps.Vinv
        # no interval inverse: the only box is Fp, beside the coefficients' pattern
        # entries and radii
        boxes = {f.name for f in dataclasses.fields(ps) if isinstance(getattr(ps, f.name), IMatrix)}
        assert boxes == {"Fp"}
        assert all(isinstance(x, np.ndarray) for x in ps.mids + ps.rads)
        _, rho = _near_identity(ps.Vinv, ps.V)
        assert rho < 1e-10


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
        # a scalar midpoint is diagonal: it offers the permutation basis I without
        # an eigensolver call, the basis eig_decompose returns for it
        from sylvenc.linalg import eig_decompose
        from sylvenc.precond import _eig_memo, _eigen_donor

        for m in (1, 8, 32):
            for c in (1.0, -2.5):
                a = c * np.eye(m)
                ref = eig_decompose(a)
                pair = (IMatrix(a, np.full((m, m), 1e-8)), IMatrix(a))
                basis = _eigen_donor(pair, _eig_memo()).basis
                assert np.array_equal(basis.perm, np.arange(m))
                for got, want in ((basis.U, ref.vectors), (basis.P, ref.inv_vectors)):
                    assert np.array_equal(got, want) and got.dtype == want.dtype


class TestDiagnosticsKeepTheirValues:
    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_offdiag_mass_matches_the_conjugated_midpoints(self, family):
        sys = generate(GenSpec(family=family, m=8, alpha=1e-6, seed=3))
        ps = transform_enclose(sys)
        mids = {"A": sys.A.mid, "C": sys.C.mid, "B": sys.B.mid, "D": sys.D.mid}
        # the left point factor is the LU inverse of U, as Vinv is of V
        uinv = lu_solve(ps.U, np.eye(ps.m, dtype=ps.U.dtype))
        assert np.array_equal(ps.Vinv, lu_solve(ps.V, np.eye(ps.n, dtype=ps.V.dtype)))
        for key, mid in mids.items():
            p, u = (uinv, ps.U) if key in "AC" else (ps.Vinv, ps.V)
            assert ps.offdiag_mass[key] == _conj_offdiag_rel(p, mid, u)


def _same_precond(forced, scored, sys):
    """``forced`` is ``scored`` but on permutation sides, and lies inside it there.

    ``scored`` conjugates every member by its sandwich in an eigenbasis.  In
    ``forced`` a permutation side transforms by reindexing, so the
    coefficients it gives (and ``Fp`` and the reciprocal disks ``rec``) lie inside ``scored``'s,
    or equal them bit for bit where the sandwich is exact too (a product by
    the point identity is), and a point scalar member there is exactly
    ``<c I, 0>``.  On any other side a point scalar member is an identity in
    these systems, whose box ``<I, 0> G`` is its sandwich ``(P I) U`` bit
    for bit; every other field is the same bit for bit.
    """
    from sylvenc.precond import _point_scalar

    exact = set()
    for perm, members in ((forced.u_perm, "AC"), (forced.v_perm, "BD")):
        for x in members:
            member = getattr(sys, x)
            if perm is not None:
                exact |= {"Fp", "rec", f"{x}p"}
                if _point_scalar(member):
                    got = getattr(forced, f"{x}p")
                    c = member.mid[0, 0]
                    assert np.array_equal(got.mid, c * np.eye(len(got.mid))), x
                    assert not got.rad.any(), x
            elif _point_scalar(member):
                assert np.array_equal(member.mid, np.eye(len(member.mid))), x
    # the coefficients are compared as the dense boxes the systems form of them
    names = ["Ap", "Bp", "Cp", "Dp"]
    names += [f.name for f in dataclasses.fields(forced) if f.name not in ("mids", "rads")]
    for name in names:
        x, y = getattr(forced, name), getattr(scored, name)
        if name in ("u_perm", "v_perm"):
            continue
        if name == "rec":
            if name not in exact:
                for u, v in zip(x, y):
                    assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name
            continue
        if isinstance(x, IMatrix):
            if name in exact:
                # contains is conservative: a box never contains itself
                same = np.array_equal(x.mid, y.mid) and np.array_equal(x.rad, y.rad)
                assert same or y.contains(x), name
                continue
            x, y = (x.mid, x.rad), (y.mid, y.rad)
        elif isinstance(x, np.ndarray):
            x, y = (x,), (y,)
        elif isinstance(x, Pattern):
            assert x.sizes == y.sizes, name
            continue
        else:
            assert x == y, name
            continue
        for u, v in zip(x, y):
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


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
    """Record each call of ``precond.simultaneous_diag``, the one conjugation of a
    candidate: True when it takes the rho test of ``G = P U``, False for a
    permutation basis."""
    import sylvenc.precond as precond

    calls = []
    orig = precond.simultaneous_diag

    def counting(pair, U, P, perm=None):
        calls.append(perm is None)
        return orig(pair, U, P, perm)

    monkeypatch.setattr(precond, "simultaneous_diag", counting)
    return calls


def _fail_rho_test(monkeypatch):
    # rho(|I - P U|) < 1 fails for every basis that is not diagonal
    import sylvenc.precond as precond
    from sylvenc.errors import SingularMatrixError

    orig = precond._near_identity

    def test(p, u):
        if np.count_nonzero(u.mid - np.diag(np.diagonal(u.mid))):
            raise SingularMatrixError("singular matrix: rho(|I - P A|) is not below 1")
        return orig(p, u)

    monkeypatch.setattr(precond, "_near_identity", test)


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


def _scored(monkeypatch, make):
    """``make()`` with every shortcut off: no member counts as diagonal or
    scalar, so every basis comes from ``eig_decompose`` and every member is
    conjugated by its sandwich."""
    import sylvenc.precond as precond

    with monkeypatch.context() as mp:
        mp.setattr(precond, "_point_scalar", lambda x: False)
        mp.setattr(precond, "_diagonal", lambda a: None)
        return make()


class TestForcedDonors:
    """The shortcuts choose the donors that conjugating every candidate chooses.

    With the shortcuts off (:func:`_scored`), every basis is an eigenbasis
    that takes the rho test and every member a sandwich.  With them on, a
    diagonal donor's basis is an exact permutation, where a point scalar
    member is exactly ``<c I, 0>``, and elsewhere a point scalar member
    takes the box ``<c I, 0> G``; the bases and masses must stay the same
    bit for bit, and the exact parts lie inside the sandwiches.
    """

    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
    def test_families_match_the_scoring_path(self, monkeypatch, family, m):
        sys = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
        scored = _scored(monkeypatch, lambda: transform_enclose(sys))
        calls = _count_conjugations(monkeypatch)
        forced = transform_enclose(sys)
        # every distinct candidate once; only the eigenbases take the rho test
        assert len(calls) == (2 if family == "gallery33" else 4)
        assert sum(calls) == 2
        _same_precond(forced, scored, sys)

    @pytest.mark.parametrize("seed, scalar_wins", [(0, False), (2, True)])
    def test_defective_midpoint_matches_the_scoring_path(self, monkeypatch, seed, scalar_wins):
        # the eigenbasis of a defective midpoint may leave more off-diagonal
        # mass than the scalar member's basis I; then I wins
        sys = _jordan_system(seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = _scored(monkeypatch, lambda: transform_enclose(sys))
            calls = _count_conjugations(monkeypatch)
            forced = transform_enclose(sys)
        assert np.array_equal(forced.U, np.eye(8)) == scalar_wins
        # only A's eigenbasis takes the rho test: I and the diagonal B are permutations
        assert calls == [True, False, False, False]
        _same_precond(forced, scored, sys)

    @pytest.mark.parametrize(
        "make, certified",
        [(lambda: generate(GenSpec(family="kyc31", m=8, alpha=1e-6)), 2), (_jordan_system, 1)],
        ids=["kyc31", "jordan"],
    )
    def test_winning_eigenbasis_failing_the_rho_test_drops_out(
        self, monkeypatch, make, certified
    ):
        sys = make()
        _fail_rho_test(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            calls = _count_conjugations(monkeypatch)
            ps = transform_enclose(sys)
        # the eigenbasis of A fails its rho test and the scalar member's I
        # wins; so does kyc31's on the right, while the Jordan family's diagonal
        # B offers I itself
        assert np.array_equal(ps.U, np.eye(8)) and np.array_equal(ps.V, np.eye(8))
        assert ps.offdiag_mass["A"] == _conj_offdiag_rel(np.eye(8), sys.A.mid, np.eye(8))
        assert len(calls) == 4 and sum(calls) == certified

    def test_losing_eigenbasis_failing_the_rho_test_gives_the_scalar_basis(self, monkeypatch):
        sys = _jordan_system(seed=2)
        _fail_rho_test(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = _scored(monkeypatch, lambda: transform_enclose(sys))
            forced = transform_enclose(sys)
        assert np.array_equal(forced.U, np.eye(8))
        _same_precond(forced, scored, sys)

    def test_far_from_commuting_warning_kept(self):
        with pytest.warns(UserWarning, match="far from commuting"):
            transform_enclose(_jordan_system())

    def test_distinct_non_scalar_pair_scores_both_candidates(self, monkeypatch):
        calls = _count_conjugations(monkeypatch)
        transform_enclose(_commuting_system())
        # (A, C) tests both candidates; (B, I) B's eigenbasis and I's permutation
        assert calls == [True, True, True, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_jordan_seeds_keep_the_bases_masses_and_outcome(self, monkeypatch, seed):
        # a point scalar member scores the midpoint of its box <c I, 0> (P U):
        # an ill-conditioned eigenbasis still loses to I, as it does with the
        # shortcuts off
        from sylvenc import mkw_solve

        sys = _jordan_system(seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = _scored(monkeypatch, lambda: mkw_solve(sys))
            enc = mkw_solve(sys)
        for f in ("U", "V"):
            assert np.array_equal(getattr(enc.precond, f), getattr(ref.precond, f)), f
        assert enc.precond.offdiag_mass == ref.precond.offdiag_mass
        assert (enc.verified, enc.iterations) == (ref.verified, ref.iterations)
        if enc.verified:
            assert enc.evaluated.rad.sum() <= ref.evaluated.rad.sum()
        if seed == 2:
            assert enc.verified and enc.iterations == 10
            assert np.array_equal(enc.precond.U, np.eye(8))


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
        # (midpoints, rho test per candidate, donor)
        cases = [
            ((a, eye), [True, False], 0),  # scalar pair, the eigenbasis wins
            ((eye, a), [False, True], 1),
            ((jordan, eye), [True, False], 1),  # scalar pair, I wins
            ((a, a), [True], 0),  # equal pair: one candidate
            ((eye, eye), [False], 0),
            ((2.0 * eye, 3.0 * eye), [False, False], 0),  # both scalar: a tie keeps the first
            ((a, c), [True, True], None),  # distinct non-scalar pair
        ]
        calls = _count_conjugations(monkeypatch)
        for mids, certified, donor in cases:
            calls.clear()
            side = self._side(self._pair(*mids))
            assert calls == certified, mids
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

    def test_both_candidates_failing_the_rho_test_raise(self, monkeypatch):
        from sylvenc.errors import EigenDecompositionError

        _fail_rho_test(monkeypatch)
        with pytest.raises(EigenDecompositionError):
            transform_enclose(_commuting_system(d_scalar=False))

    def test_both_sides_of_a_general_system(self, monkeypatch):
        calls = _count_conjugations(monkeypatch)
        ps = transform_enclose(_commuting_system(d_scalar=False))
        assert len(calls) == 4
        assert all(v < 1e-8 for v in ps.offdiag_mass.values())
