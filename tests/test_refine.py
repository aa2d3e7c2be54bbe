"""Residual-division refinement iteration."""

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    InconsistentEnclosureError,
    NoInitialEnclosureError,
    Rect,
    SylvesterSystem,
    full_krawczyk_solve,
    gamma_step,
    generate,
    itr_solve,
    mkw_block_solve,
    mkw_solve,
    sample_solutions,
    transform_enclose,
)
from sylvenc.intervals import as_imatrix, disks_to_rect


def _scalar_system():
    A = IMatrix(np.array([[2.0]]))
    one = IMatrix(np.array([[1.0]]))
    F = IMatrix(np.array([[6.0]]), np.array([[0.3]]))
    return SylvesterSystem(A=A, B=one, C=one, D=one, F=F)


class TestGammaStep:
    def test_scalar_hand_example(self):
        # T = 0.3, denominators 2*1 + 1*1 = 3: [5.7, 6.3]/3 meet [1.5, 2.5]
        ps = transform_enclose(_scalar_system())
        y0 = Rect(np.array([[1.5]]), np.array([[2.5]]))
        y1 = gamma_step(ps, y0)
        assert y1.lo[0, 0] <= 1.9 and y1.lo[0, 0] >= 1.9 - 1e-9
        assert y1.hi[0, 0] >= 2.1 and y1.hi[0, 0] <= 2.1 + 1e-9

    def test_accepts_disk_candidates(self):
        ps = transform_enclose(_scalar_system())
        y1 = gamma_step(ps, IMatrix(np.array([[2.0]]), np.array([[0.5]])))
        assert y1.lo[0, 0] >= 1.9 - 1e-9 and y1.hi[0, 0] <= 2.1 + 1e-9

    def test_empty_intersection_raises(self):
        # a candidate box far from the solution set is rigorously refuted
        ps = transform_enclose(_scalar_system())
        far = Rect(np.array([[100.0]]), np.array([[101.0]]))
        with pytest.raises(InconsistentEnclosureError):
            gamma_step(ps, far)

    def test_nesting_along_trajectory(self):
        sys = generate(GenSpec(family="kyc31", m=5, alpha=1e-5, seed=0))
        enc = mkw_solve(sys)
        Y = disks_to_rect(as_imatrix(enc.Xtilde) + enc.Xbox)
        total = float(np.sum(Y.half_widths()))
        for _ in range(6):
            Ynext = gamma_step(enc.precond, Y)
            assert Ynext.subset_of(Y)
            tnext = float(np.sum(Ynext.half_widths()))
            assert tnext <= total * (1 + 1e-12)
            Y, total = Ynext, tnext


class TestItrSolve:
    def test_scalar_converges_fast(self):
        enc = itr_solve(_scalar_system())
        assert enc.verified and enc.method == "itr"
        assert enc.iterations <= 2
        lo = float(enc.evaluated.mid[0, 0] - enc.evaluated.rad[0, 0])
        hi = float(enc.evaluated.mid[0, 0] + enc.evaluated.rad[0, 0])
        assert lo <= 1.9 and hi >= 2.1
        assert hi - lo <= 0.2 + 1e-9

    def test_does_not_exceed_initial_width(self):
        sys = generate(GenSpec(family="kyc31", m=6, alpha=1e-6, seed=1))
        base = mkw_solve(sys)
        ref = itr_solve(sys, initial=base)
        assert float(ref.evaluated.rad.sum()) <= 1.02 * float(base.evaluated.rad.sum())

    def test_fixed_point_is_idempotent(self):
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=2))
        first = itr_solve(sys)
        again = itr_solve(sys, Y0=first.gamma.Y, initial=first)
        assert again.iterations == 1
        assert again.gamma.converged

    def test_member_solutions_stay_in_every_iterate(self):
        from sylvenc import point_solve

        rng = np.random.default_rng(3)
        sys = generate(GenSpec(family="kyc31", m=4, alpha=1e-4, seed=3))
        enc = mkw_solve(sys)
        ps = enc.precond
        ys = []
        for _ in range(30):
            mats = [
                mat.mid + mat.rad * rng.uniform(-1, 1, size=mat.shape)
                for mat in (sys.A, sys.B, sys.C, sys.D, sys.F)
            ]
            x0 = point_solve(*mats)
            ys.append(np.linalg.solve(ps.U, x0) @ ps.V)
        Y = disks_to_rect(as_imatrix(enc.Xtilde) + enc.Xbox)
        for _ in range(5):
            Y = gamma_step(ps, Y)
            for y0 in ys:
                assert (y0.real >= Y.lo.real - 1e-10).all()
                assert (y0.real <= Y.hi.real + 1e-10).all()
                if not Y.is_real:
                    assert (y0.imag >= Y.lo.imag - 1e-10).all()
                    assert (y0.imag <= Y.hi.imag + 1e-10).all()

    def test_requires_an_initial_enclosure(self):
        # no method can verify this family member; refinement must refuse
        sys = generate(GenSpec(family="gallery33", m=2, alpha=1e-2, seed=0))
        with pytest.raises(NoInitialEnclosureError, match="no initial enclosure available"):
            itr_solve(sys)

    def test_explicit_y0_bypasses_the_failed_solve(self):
        # even when verification fails, a caller-supplied start box works
        sys = _scalar_system()
        base = mkw_solve(sys)
        wide = Rect(np.array([[0.0]]), np.array([[4.0]]))
        enc = itr_solve(sys, Y0=wide, initial=base)
        assert enc.verified
        lo = float(enc.evaluated.mid[0, 0] - enc.evaluated.rad[0, 0])
        hi = float(enc.evaluated.mid[0, 0] + enc.evaluated.rad[0, 0])
        assert lo <= 1.9 and hi >= 2.1


def _wide_rhs_system(seed):
    """m = 3, ``A X + X = F`` with a diagonally dominant A and right-hand-side radii of 1."""
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(1, 5, 3)) + 0.1 * rng.normal(size=(3, 3))
    eye = IMatrix(np.eye(3))
    return SylvesterSystem(
        A=IMatrix(a, np.full((3, 3), 1e-2)),
        B=eye,
        C=eye,
        D=eye,
        F=IMatrix(rng.uniform(-0.3, 0.3, (3, 3)), np.ones((3, 3))),
    )


class TestChainedItr:
    @pytest.mark.parametrize("seed", [34, 141, 191])
    def test_itr_started_from_itr_contains_every_vertex_member(self, seed):
        # the start box of an itr enclosure holds absolute coordinates; these
        # seeds lost nearly all vertex members when Xtilde was added to it
        sys = _wide_rhs_system(seed)
        first = itr_solve(sys)
        again = itr_solve(sys, initial=first)
        assert again.verified
        assert (again.Xbox.rad <= first.Xbox.rad).all()
        members = sample_solutions(sys, 300, seed, "vertex")
        assert members
        escaped = [x for x in members if not again.evaluated.contains_point(x)]
        assert not escaped

    def test_other_methods_are_no_start(self):
        sys = _wide_rhs_system(0)
        for enc in (mkw_block_solve(sys), full_krawczyk_solve(sys)):
            assert enc.verified
            with pytest.raises(NoInitialEnclosureError):
                itr_solve(sys, initial=enc)
