"""Point scalar members, diagonal donors and the exact transforms of permutation bases."""

import warnings

import numpy as np
import pytest

from sylvenc import (
    IMatrix,
    SylvesterSystem,
    itr_solve,
    mkw_block_solve,
    mkw_solve,
    sample_solutions,
    transform_enclose,
)
from fractions import Fraction

from sylvenc.blockdiag import _block_side
from sylvenc.intervals import im_matmul
from sylvenc.linalg import _near_identity, eig_decompose
from sylvenc.precond import _eig_memo, _eigen_donor, _sandwich, simultaneous_diag

from exact_oracle import add, exact, in_disk, mul


def _diagonalizable(m, rng, dtype=float):
    vals = rng.uniform(1.0, 2.0, m)
    p = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    if dtype is complex:
        vals = vals + 1j * rng.uniform(-0.5, 0.5, m)
        p = p + 1j * rng.normal(size=(m, m))
    return p @ np.diag(vals) @ np.linalg.inv(p)


def _jordan(m, rng):
    J = np.diag(np.repeat(np.linspace(1.0, 3.0, m // 2), 2))
    J[2 * np.arange(m // 2), 2 * np.arange(m // 2) + 1] = 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ J @ Q.T


SCALARS = [1.0, -2.5, 0.5 + 0.25j]


def _holds_scaled_product(box, c, P, U):
    """Whether ``box`` contains ``c P U`` of the point factors, in exact arithmetic."""
    m = len(U)
    for i in range(m):
        for j in range(m):
            z = (Fraction(0), Fraction(0))
            for k in range(m):
                z = add(z, mul(exact(P[i, k]), exact(U[k, j])))
            if not in_disk(mul(exact(c), z), box.mid[i, j], box.rad[i, j]):
                return False
    return True


class TestPointScalarMember:
    """``c I`` with zero radius takes the box ``<c I, 0> G`` of its side's ``G = P U``.

    ``G`` is the interval product that the rho test of :func:`simultaneous_diag`
    forms; the box holds ``P (c I) U`` exactly, and at ``c = 1`` it is ``G``
    itself, which is also the sandwich ``(P I) U`` bit for bit.
    """

    @pytest.mark.parametrize("c", SCALARS)
    def test_eigenbasis(self, c):
        rng = np.random.default_rng(0)
        m = 8
        a = _diagonalizable(m, rng)
        pair = (IMatrix(a, np.full((m, m), 1e-8)), IMatrix(c * np.eye(m)))
        eig = eig_decompose(a)
        basis, raw = simultaneous_diag(pair, eig.vectors, eig.inv_vectors)
        G, rho = _near_identity(eig.inv_vectors, eig.vectors)
        assert rho < 1e-10
        want = im_matmul(pair[1], G)
        assert raw[1].mid.tobytes() == want.mid.tobytes()
        assert raw[1].rad.tobytes() == want.rad.tobytes()
        assert _holds_scaled_product(raw[1], c, eig.inv_vectors, eig.vectors)
        if c == 1.0:
            box = _sandwich(basis, pair[1], basis)
            for x in (G, box):
                assert raw[1].mid.tobytes() == x.mid.tobytes()
                assert raw[1].rad.tobytes() == x.rad.tobytes()

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("c", SCALARS)
    def test_block_basis(self, c, lower):
        rng = np.random.default_rng(1)
        m = 8
        pair = (IMatrix(_jordan(m, rng), np.full((m, m), 1e-8)), IMatrix(c * np.eye(m)))
        donor = _block_side(pair, 1e4, lower)
        # the Schur basis of the Jordan member wins over I's single block
        assert donor.index == 0 and donor.basis.perm is None
        P, U = donor.basis.P, donor.basis.U
        want = im_matmul(pair[1], _near_identity(P, U)[0])
        assert donor.raw[1].mid.tobytes() == want.mid.tobytes()
        assert donor.raw[1].rad.tobytes() == want.rad.tobytes()
        assert _holds_scaled_product(donor.raw[1], c, P, U)

    @pytest.mark.parametrize("c", SCALARS)
    def test_permutation_basis_keeps_it_exact(self, c):
        # a diagonal donor offers the permutation basis I: P = U^T, and c I stays <c I, 0>
        rng = np.random.default_rng(3)
        m = 6
        d = np.diag(rng.uniform(1.0, 2.0, m))
        pair = (IMatrix(d, np.full((m, m), 1e-8)), IMatrix(c * np.eye(m)))
        donor = _eigen_donor(pair, _eig_memo())
        assert np.array_equal(donor.basis.perm, np.arange(m))
        assert np.array_equal(donor.basis.P, donor.basis.U.T)
        assert np.array_equal(donor.raw[1].mid, c * np.eye(m)) and not donor.raw[1].rad.any()

    def test_a_scalar_with_a_radius_takes_the_sandwich(self):
        rng = np.random.default_rng(2)
        m = 6
        a = _diagonalizable(m, rng)
        pair = (IMatrix(a, np.full((m, m), 1e-8)), IMatrix(np.eye(m), np.full((m, m), 1e-9)))
        eig = eig_decompose(a)
        basis, raw = simultaneous_diag(pair, eig.vectors, eig.inv_vectors)
        box = _sandwich(basis, pair[1], basis)
        assert raw[1].mid.tobytes() == box.mid.tobytes()
        assert raw[1].rad.tobytes() == box.rad.tobytes()


def _count(monkeypatch, owner, name):
    seen = []
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda a, *args, **kw: seen.append(a) or orig(a, *args, **kw))
    return seen


class TestDiagonalDonor:
    """A diagonal midpoint is its own basis: no eigensolver, no Schur form."""

    @staticmethod
    def _system(m=12):
        # A diagonal with repeated entries (clusters for blk), B dense
        rng = np.random.default_rng(3)
        d = rng.choice([1.0, 1.5, 2.5], m)
        rad = np.full((m, m), 1e-9)
        return SylvesterSystem(
            A=IMatrix(np.diag(d), rad),
            B=IMatrix(_diagonalizable(m, rng), rad),
            C=IMatrix(0.5 * np.eye(m)),
            D=IMatrix(np.eye(m)),
            F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
        ), d

    def test_eigen_side(self, monkeypatch):
        import sylvenc.precond as precond

        sys, _ = self._system()
        eigs = _count(monkeypatch, precond, "eig_decompose")
        ps = transform_enclose(sys)
        # only B's midpoint is decomposed
        assert len(eigs) == 1 and eigs[0] is sys.B.mid
        assert np.array_equal(ps.u_perm, np.arange(12)) and ps.v_perm is None
        assert ps.Ap.mid.tobytes() == sys.A.mid.tobytes()
        # on the permutation side the point scalar C = 0.5 I stays exact
        assert np.array_equal(ps.Cp.mid, 0.5 * np.eye(12)) and not ps.Cp.rad.any()

    def test_block_side(self, monkeypatch):
        import scipy.linalg

        sys, d = self._system()
        schur = _count(monkeypatch, scipy.linalg, "schur")
        enc = mkw_block_solve(sys)
        ps = enc.precond
        assert len(schur) == 1  # B's
        assert enc.verified
        # the clusters of A's repeated entries, contiguous in order of first appearance
        labels = [d.tolist().index(x) for x in d]
        first = sorted(set(labels))
        assert ps.row_sizes == tuple(labels.count(f) for f in first)
        P = np.eye(12)[:, ps.u_perm]
        assert np.array_equal(ps.U, P)
        assert np.array_equal(np.diag(ps.Ap.mid), d[ps.u_perm])
        assert np.array_equal(ps.Cp.mid, 0.5 * np.eye(12)) and not ps.Cp.rad.any()


def _soundness_system(kind, m, seed=0):
    rng = np.random.default_rng([seed, m])
    rad = np.full((m, m), 1e-8)
    if kind == "scalars":
        # C = 2.5 I and D = -0.75 I, points with c != 1
        return SylvesterSystem(
            A=IMatrix(_diagonalizable(m, rng), rad),
            B=IMatrix(_diagonalizable(m, rng), rad),
            C=IMatrix(2.5 * np.eye(m)),
            D=IMatrix(-0.75 * np.eye(m)),
            F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
        )
    if kind == "repeated":
        # diagonal pair (A, C) with repeated entries, a dense B and D = 0.5 I
        return SylvesterSystem(
            A=IMatrix(np.diag(rng.choice([1.0, 2.0, 3.5], m)), rad),
            B=IMatrix(_diagonalizable(m, rng), rad),
            C=IMatrix(np.diag(rng.choice([0.25, 0.75], m)), rad),
            D=IMatrix(0.5 * np.eye(m)),
            F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
        )
    # complex data: a complex point scalar C, a complex diagonal pair (B, D)
    # with repeated entries
    return SylvesterSystem(
        A=IMatrix(_diagonalizable(m, rng, complex), rad),
        B=IMatrix(np.diag(rng.choice([1.0 + 0.5j, 2.0 - 0.25j], m)), rad),
        C=IMatrix((1.0 + 2.0j) * np.eye(m)),
        D=IMatrix(np.diag(rng.choice([0.5j, -0.5], m)), rad),
        F=IMatrix(rng.uniform(0.5, 1.5, (m, m)) + 1j * rng.uniform(-0.5, 0.5, (m, m)), rad),
    )


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("kind", ["scalars", "repeated", "complex"])
def test_members_lie_in_every_enclosure(kind, m):
    sys = _soundness_system(kind, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mkw = mkw_solve(sys)
        encs = {"mkw": mkw, "itr": itr_solve(sys, initial=mkw), "blk": mkw_block_solve(sys)}
    # blk divides tile by tile where the diagonals repeat entries
    assert kind == "scalars" or not encs["blk"].precond.diagonal
    members = sample_solutions(sys, 24, seed=m) + sample_solutions(sys, 24, seed=m, mode="vertex")
    assert len(members) == 48
    for name, enc in encs.items():
        assert enc.verified, name
        assert all(enc.evaluated.contains_point(x) for x in members), name
