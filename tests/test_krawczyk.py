"""Diagonal-preconditioned Krawczyk verification."""

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    SingularPreconditionerError,
    SylvesterSystem,
    generate,
    im_matmul,
    mkw_solve,
    point_solve,
    sample_solutions,
    transform_enclose,
)
from sylvenc import krawczyk
from sylvenc.intervals import _up
from sylvenc.krawczyk import (
    FAILURE_MESSAGE,
    _pair_bound,
    _pairs,
    compute_M,
    compute_N,
    interval_back_substitute,
    residual,
    verification_loop,
)


def _scalar_system():
    A = IMatrix(np.array([[2.0]]))
    one = IMatrix(np.array([[1.0]]))
    F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
    return SylvesterSystem(A=A, B=one, C=one, D=one, F=F)


class TestScalarAnalytic:
    # 2*X + X = [5.7, 6.3]  =>  X in [1.9, 2.1]
    def test_enclosure_matches_hand_solution(self):
        enc = mkw_solve(_scalar_system())
        assert enc.verified
        lo = float(enc.evaluated.mid[0, 0] - enc.evaluated.rad[0, 0])
        hi = float(enc.evaluated.mid[0, 0] + enc.evaluated.rad[0, 0])
        assert lo <= 1.9 and hi >= 2.1
        assert hi - lo <= 0.2 * (1 + 1e-6) + 1e-9

    def test_result_structure(self):
        enc = mkw_solve(_scalar_system())
        assert enc.method == "mkw"
        assert enc.iterations >= 1
        assert enc.message == ""
        assert enc.Hbox is not None and enc.precond is not None


def test_xtilde_solves_the_diagonal_midpoint_system():
    sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-6, seed=0))
    ps = transform_enclose(sys)
    xt = mkw_solve(sys).Xtilde
    assert np.abs(xt * ps.den_mid() - ps.Fp.mid).max() <= 1e-12 * np.abs(ps.Fp.mid).max()


def test_residual_box_contains_member_residuals():
    rng = np.random.default_rng(1)
    sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-4, seed=2))
    ps = transform_enclose(sys)
    xt = mkw_solve(sys).Xtilde
    M = compute_M(ps, xt)
    for _ in range(20):

        def member(mat):
            if mat.is_real:
                return mat.mid + mat.rad * rng.uniform(-1, 1, size=mat.shape)
            r = mat.rad * np.sqrt(rng.uniform(size=mat.shape))
            th = rng.uniform(0, 2 * np.pi, size=mat.shape)
            return mat.mid + r * np.exp(1j * th)

        ap, bp, cp, dp, fp = (member(x) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp, ps.Fp))
        resid = (fp - ap @ xt @ bp - cp @ xt @ dp) / ps.den_mid()
        assert (np.abs(resid - M.mid) <= M.rad * (1 + 1e-9) + 1e-13).all()


def test_residual_by_identity_coefficients_takes_no_product():
    # C = D = I: the term C X D is X itself, on the original system as ver forms
    # it and on the preconditioned one of permutation bases (diagonal A and B),
    # where the identities stay exact
    kyc = generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0))
    rng = np.random.default_rng(3)
    rad = np.full((8, 8), 1e-8)
    diag = SylvesterSystem(
        A=IMatrix(np.diag(rng.uniform(1.0, 2.0, 8)), rad),
        B=IMatrix(np.diag(rng.uniform(1.0, 2.0, 8)), rad),
        C=kyc.C,
        D=kyc.D,
        F=kyc.F,
    )
    ps = transform_enclose(diag)
    assert ps.u_perm is not None and ps.v_perm is not None
    original = (kyc.A, kyc.B, kyc.C, kyc.D, kyc.F)
    for (A, B, C, D, F), xt in (
        (original, point_solve(*(t.mid for t in original))),
        ((ps.Ap, ps.Bp, ps.Cp, ps.Dp, ps.Fp), mkw_solve(diag).Xtilde),
    ):
        got = residual(A, B, C, D, F, xt)
        want = F - im_matmul(im_matmul(A, IMatrix(xt)), B) - IMatrix(xt)
        assert np.array_equal(got.mid, want.mid) and np.array_equal(got.rad, want.rad)


def test_contraction_bound_is_monotone_in_the_radius():
    sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=3))
    ps = transform_enclose(sys)
    r1 = np.full((4, 4), 0.1)
    n1 = compute_N(ps, r1)
    n2 = compute_N(ps, 2.0 * r1)
    assert (n1.mid == 0).all()
    assert (n2.rad >= n1.rad).all()
    with pytest.raises(ValueError):
        compute_N(ps, -r1)


def _symmetrized(sys):
    """``sys`` with symmetric coefficient midpoints, so its eigenbases are real."""
    sym = lambda x: IMatrix((x.mid + x.mid.T) / 2, x.rad)  # noqa: E731
    return SylvesterSystem(A=sym(sys.A), B=sym(sys.B), C=sym(sys.C), D=sym(sys.D), F=sys.F)


@pytest.mark.parametrize("data", ["complex", "real"])
@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
def test_diagonal_division_is_the_tile_back_substitution(family, data):
    """On 1 x 1 tiles, the whole-array quotient of mkw is blk's back-substitution, bit for bit."""
    sys = generate(GenSpec(family=family, m=8, alpha=1e-4, seed=3))
    ps = transform_enclose(sys if data == "complex" else _symmetrized(sys))
    assert ps.diagonal and np.iscomplexobj(ps.Fp.mid) == (data == "complex")
    xt = ps.Fp.mid / ps.den_mid()
    M = compute_M(ps, xt)
    ref = interval_back_substitute(ps, residual(ps.Ap, ps.Bp, ps.Cp, ps.Dp, ps.Fp, xt))
    assert np.array_equal(M.mid, ref.mid) and np.array_equal(M.rad, ref.rad)
    xrad = M.mag()
    ab, cd = _pairs(ps)
    w = _pair_bound(ab, xrad) + _pair_bound(cd, xrad)
    N = compute_N(ps, xrad)
    ref = interval_back_substitute(ps, IMatrix(np.zeros(w.shape), _up(w, 4)))
    assert not N.mid.any() and not ref.mid.any()
    assert np.array_equal(N.rad, ref.rad)


class TestVerificationLoop:
    def test_contracting_map_verifies(self):
        M = IMatrix(np.array([[0.0]]), np.array([[0.1]]))

        def n_of(xrad):
            return IMatrix(np.zeros((1, 1)), 0.5 * xrad)

        ok, X, H, k, stop, ratio = verification_loop(M, n_of, kmax=15)
        assert ok and k <= 6 and stop == "box" and ratio == 0.5
        # fixed point of r = (0.1 + e) + 0.5 r is below 0.25
        assert X.rad[0, 0] <= 0.25

    def test_expanding_map_fails_with_cap(self):
        M = IMatrix(np.array([[0.0]]), np.array([[0.1]]))

        def n_of(xrad):
            return IMatrix(np.zeros((1, 1)), 2.0 * xrad)

        # rad N(x) / x = 2 certifies at the first step that no box can pass
        ok, X, H, k, stop, ratio = verification_loop(M, n_of, kmax=7)
        assert not ok and k == 1 and stop == "not_contracting" and ratio == 2.0
        assert (H.rad >= 2.0 * X.rad).all()


    def test_slow_contraction_runs_out_of_kmax(self):
        M = IMatrix(np.array([[0.0]]), np.array([[0.1]]))
        calls = [0]

        def n_of(xrad):
            calls[0] += 1
            return IMatrix(np.zeros((1, 1)), 0.999 * xrad)

        ok, X, H, k, stop, ratio = verification_loop(M, n_of, kmax=15)
        # no entry grows, so no subset is tried
        assert not ok and k == 15 and calls[0] == 15
        assert stop == "kmax" and ratio == 0.999

    def test_reducible_map_with_a_growing_entry_is_certified_on_its_subset(self):
        # ratios 2 and 0.5: the smallest is below 1, but the entry of ratio 2
        # feeds only itself, so its 1 x 1 principal submatrix certifies at k = 1
        M = IMatrix(np.zeros((1, 2)), np.full((1, 2), 0.1))
        calls = []

        def n_of(xrad):
            calls.append(xrad.copy())
            return IMatrix(np.zeros((1, 2)), xrad * np.array([[2.0, 0.5]]))

        ok, X, H, k, stop, ratio = verification_loop(M, n_of, kmax=9)
        assert not ok and k == 1 and stop == "subset" and ratio == 2.0
        # one power step on S = {0}, with y zero off S
        assert len(calls) == 2 and calls[1][0, 1] == 0.0 and calls[1][0, 0] == X.rad[0, 0]

    def test_growth_fed_from_outside_the_subset_certifies_nothing(self):
        # N(x) = (2 x1, 0.1 x0): entry 0 grows only through entry 1, which is
        # outside S = {0}, so S empties after one power step; rho = 0.45 < 1
        M = IMatrix(np.zeros((1, 2)), np.full((1, 2), 0.1))
        calls = []

        def n_of(xrad):
            calls.append(xrad.copy())
            return IMatrix(np.zeros((1, 2)), np.array([[2.0 * xrad[0, 1], 0.1 * xrad[0, 0]]]))

        ok, X, H, k, stop, _ = verification_loop(M, n_of, kmax=15)
        assert ok and stop == "box"
        # the emptied subset cost one call, and the loop tried it once
        assert len(calls) == k + 1
        assert not calls[1][0, 1] and (H.rad < X.rad).all()

    def test_subset_attempt_keeps_its_budget(self):
        # a feed-forward chain z_i = 0.5 y_i + y_(i-1): every entry but the
        # first grows at step 1, and each power step drops only the head of S,
        # so S still holds an entry when the budget is spent (rho = 0.5)
        M = IMatrix(np.zeros((1, 6)), np.full((1, 6), 0.1))
        calls = []

        def n_of(xrad):
            calls.append(xrad.copy())
            z = 0.5 * xrad
            z[:, 1:] += xrad[:, :-1]
            return IMatrix(np.zeros((1, 6)), z)

        budget = krawczyk._SUBSET_EVALS
        ok, X, H, k, stop, _ = verification_loop(M, n_of, kmax=40)
        assert ok and stop == "box"
        assert len(calls) == k + budget
        assert [np.count_nonzero(y) for y in calls[1 : 1 + budget]] == [5, 4, 3, 2]

        calls.clear()
        ok, X, H, k, stop, _ = verification_loop(M, n_of, kmax=3)
        assert not ok and k == 3 and stop == "kmax"
        assert len(calls) == 3 + budget

    def test_no_subset_attempt_at_the_last_step(self):
        M = IMatrix(np.zeros((1, 2)), np.full((1, 2), 0.1))
        calls = [0]

        def n_of(xrad):
            calls[0] += 1
            return IMatrix(np.zeros((1, 2)), xrad * np.array([[2.0, 0.5]]))

        ok, X, H, k, stop, _ = verification_loop(M, n_of, kmax=1)
        assert not ok and k == 1 and calls[0] == 1 and stop == "kmax"


def _reference_loop(M, n_of, kmax):
    """The epsilon-inflation loop without the non-contraction stop."""
    from sylvenc.intervals import ETA, epsilon_inflate, in_interior

    e_rad = epsilon_inflate(M).rad
    H, X, k = M, None, 0
    for k in range(1, max(kmax, 1) + 1):
        xrad = (H.mag() + e_rad) * (1.0 + 2.0 * ETA)
        X = IMatrix(np.zeros(M.shape, dtype=M.mid.dtype), xrad)
        H = M + n_of(xrad)
        if in_interior(H, X):
            return True, X, H, k
    return False, X, H, k


def _jordan_system(m, seed):
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


@pytest.mark.filterwarnings("ignore:pair is far from commuting")
@pytest.mark.parametrize("solver", ["mkw", "blk", "ver"])
@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33", "jordan"])
def test_certified_stop_keeps_every_outcome_of_the_kmax_loop(solver, family, monkeypatch):
    """Each solver's loop is replayed on the same ``M`` and ``n_of`` without either stop."""
    from sylvenc import full_krawczyk_solve, mkw_block_solve

    solve = {"mkw": mkw_solve, "blk": mkw_block_solve, "ver": full_krawczyk_solve}[solver]
    runs = []

    def both(M, n_of, kmax):
        got = verification_loop(M, n_of, kmax)
        ok, X, _, k, stop, _ = got
        ref = _reference_loop(M, n_of, kmax)
        # the subset stop fired when the loop gave up early on a step whose
        # smallest ratio alone certifies nothing
        subset = not ok and k < ref[3] and (n_of(X.rad).rad / X.rad).min() < krawczyk._NOT_CONTRACTING
        # the reported stop is the one the replay tells apart
        assert (stop == "box") == ok and (stop == "subset") == subset
        assert stop != "kmax" or k == max(kmax, 1)
        runs.append((got, ref, subset))
        return got

    # every solver reaches the loop through krawczyk.verify
    monkeypatch.setattr(krawczyk, "verification_loop", both)
    if family == "jordan":
        systems = [_jordan_system(m, s) for m in (16, 32) for s in (0, 1)]
    else:
        # the dense oracle stops at m n = 1024 unknowns
        sizes = (8, 20, 32) if solver == "ver" else (8, 20, 32, 50)
        systems = [
            generate(GenSpec(family=family, m=m, alpha=alpha, seed=0))
            for m in sizes
            for alpha in (1e-6, 1e-4, 1e-3, 1e-2)
        ]
    # a failure whose growth sits on a principal subset: only the subset stop fires
    subset_case = solver == "mkw" and family == "kyc31"
    if subset_case:
        systems.append(generate(GenSpec(family="kyc31", m=200, alpha=1e-6, seed=6)))
    for sys_ in systems:
        try:
            solve(sys_)
        except SingularPreconditionerError:
            continue
    assert runs
    for (ok, X, H, k, _, _), (ref_ok, ref_X, ref_H, ref_k), _ in runs:
        assert ok == ref_ok
        if ok:
            assert k == ref_k
            assert (X.rad == ref_X.rad).all() and (H.rad == ref_H.rad).all()
            assert (X.mid == ref_X.mid).all() and (H.mid == ref_H.mid).all()
        else:
            assert 1 <= k <= ref_k
    if family != "jordan":
        # a stop fired, so the comparison covers it
        assert any(not ok and k < ref[3] for (ok, _, _, k, _, _), ref, _ in runs)
    if subset_case:
        assert runs[-1][2] and runs[-1][0][3] == 1


def test_point_system_gives_sharp_enclosure():
    sys = generate(GenSpec(family="kyc31", m=3, alpha=0.0, seed=4))
    enc = mkw_solve(sys)
    assert enc.verified
    assert enc.evaluated.rad.max() <= 1e-10
    from sylvenc import point_solve

    x0 = point_solve(sys.A.mid, sys.B.mid, sys.C.mid, sys.D.mid, sys.F.mid)
    assert enc.evaluated.contains_point(x0)


def test_unverified_run_reports_failure_message():
    # radii this wide leave the interval family without strong regularity
    sys = generate(GenSpec(family="kyc31", m=8, alpha=1e-2, seed=1))
    enc = mkw_solve(sys)
    assert not enc.verified
    assert enc.evaluated is None
    assert enc.message == FAILURE_MESSAGE


def test_verified_enclosures_contain_sampled_solutions():
    for fam, m in (("kyc31", 4), ("sylvester32", 5), ("gallery33", 4)):
        sys = generate(GenSpec(family=fam, m=m, alpha=1e-6, seed=5))
        enc = mkw_solve(sys)
        assert enc.verified, fam
        for x in sample_solutions(sys, n_samples=50, seed=6):
            assert enc.evaluated.contains_point(x)


def _scaled(sys, s):
    """``sys`` with A, B, C and D times ``s`` and F times ``s**2``: the same member solutions."""
    f = lambda x, k: IMatrix(x.mid * k, x.rad * k)  # noqa: E731
    return SylvesterSystem(
        A=f(sys.A, s), B=f(sys.B, s), C=f(sys.C, s), D=f(sys.D, s), F=f(sys.F, s * s)
    )


@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
def test_power_of_two_scalings_keep_the_diagonal_solvers_sound(family):
    # the denominators scale by 2**+-520: their squares leave the range of binary64
    from sylvenc import itr_solve, mkw_block_solve

    sys = generate(GenSpec(family=family, m=8))
    members = np.stack(sample_solutions(sys, 20, 1))

    def solves(s):
        mkw = mkw_solve(s)
        return {"mkw": mkw, "itr": itr_solve(s, initial=mkw), "blk": mkw_block_solve(s)}

    ref = solves(sys)
    for e in (260, -260):
        for name, enc in solves(_scaled(sys, 2.0**e)).items():
            assert enc.verified, (e, name)
            assert enc.evaluated.contains_point(members).all(), (e, name)
            want = ref[name].evaluated.rad.sum()
            assert abs(enc.evaluated.rad.sum() - want) <= 1e-12 * want, (e, name)
