"""Preconditioning by point factors needs no exact or certified inverse.

With point factors ``P ~ U^-1`` and ``W ~ V^-1`` each member becomes
``(P A U, W B V, P C U, W D V, P F V)`` and its solution ``X = U Y W``.  A
passing Krawczyk test proves every transformed operator nonsingular, and so
P, U, W and V.  These tests give the preconditioner a deliberately poor
``P = Uinv (I + E)``, ``||E|| = 1e-3``: every verified enclosure must still
hold the exact member solutions.  A ``P`` whose ``rho(|I - P U|)`` is not
below one drops out of the donor rule.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from sylvenc import (
    EigenDecompositionError,
    GenSpec,
    IMatrix,
    SylvesterSystem,
    generate,
    itr_solve,
    sample_solutions,
)
from sylvenc.errors import SingularMatrixError
from sylvenc.krawczyk import KMAX_DEFAULT, _solve
from sylvenc.linalg import _near_identity, eig_decompose
from sylvenc.precond import Pattern, _offdiag_rel, choose_donor, precondition

from exact_oracle import in_disk


def _perturbed(scale, seed, similar=False):
    """An ``offer`` whose ``P`` is ``Uinv (I + E)``, ``E`` random of inf-norm ``scale``.

    A ``similar`` ``E = U D Uinv``, ``D`` diagonal, gives ``P = (I + D) Uinv``:
    ``P A U`` stays diagonal, so the enclosures stay narrow and a step that
    mistook ``P`` for ``U^-1`` would move them by about ``scale``.
    """
    rng = np.random.default_rng(seed)

    def offer(mid):
        n = len(mid)
        eig = eig_decompose(mid)
        E = rng.standard_normal((n, n))
        if similar:
            E = eig.vectors @ np.diag(np.diag(E)) @ eig.inv_vectors
        E *= scale / np.abs(E).sum(axis=1).max()
        P = eig.inv_vectors @ (np.eye(n) + E)
        return eig.vectors, P, Pattern((1,) * n, np.eye(n, dtype=bool)), None

    return offer


def _mass(_, conj, mid):
    return _offdiag_rel(conj, mid)


def _poor_solves(sys, seed, similar):
    """mkw and itr on ``sys`` preconditioned by poor left and right factors."""
    offer = _perturbed(1e-3, seed, similar)

    def side(pair, lower):
        donor = choose_donor(pair, offer, _mass)
        # far from exact, yet rho(|I - P U|) < 1
        _, rho = _near_identity(donor.basis.P, donor.basis.U)
        assert 1e-5 < rho < 1.0
        return donor

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mkw = _solve("mkw", precondition(sys, side), KMAX_DEFAULT)
    encs = [mkw]
    if mkw.verified:
        encs.append(itr_solve(sys, initial=mkw))
    return encs


def _exact_solve(A, B, C, D, F):
    """The exact solution of ``A X B + C X D = F`` for rational real matrices (lists of rows)."""
    m, n = len(A), len(B)
    N = m * n
    # vec(A X B) = (B^T kron A) vec X, vec stacks columns: unknown j m + i is X[i][j]
    K = [[B[l][j] * A[i][k] + D[l][j] * C[i][k] for l in range(n) for k in range(m)]
         for j in range(n) for i in range(m)]
    rhs = [F[i][j] for j in range(n) for i in range(m)]
    for col in range(N):
        piv = next(r for r in range(col, N) if K[r][col] != 0)
        K[col], K[piv] = K[piv], K[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(N):
            if r != col and K[r][col] != 0:
                f = K[r][col] / K[col][col]
                K[r] = [x - f * y for x, y in zip(K[r], K[col])]
                rhs[r] -= f * rhs[col]
    x = [rhs[r] / K[r][r] for r in range(N)]
    return [[x[j * m + i] for j in range(n)] for i in range(m)]


def _vertex(mat: IMatrix, signs: np.ndarray):
    """The exact vertex member ``mid + signs * rad`` of a real interval matrix."""
    return [[Fraction(float(mu)) + int(s) * Fraction(float(r)) for mu, r, s in zip(*rows)]
            for rows in zip(mat.mid, mat.rad, signs)]


def _small_system(m, n, kind, rng):
    def diagonalizable(k):
        p = rng.normal(size=(k, k)) + 3.0 * np.eye(k)
        return p @ np.diag(rng.uniform(1.0, 2.0, k)) @ np.linalg.inv(p)

    a, b = diagonalizable(m), diagonalizable(n)
    A, B = IMatrix(a, 1e-8 * np.abs(a)), IMatrix(b, 1e-8 * np.abs(b))
    if kind == "identities":
        # point identities: in a non-permutation basis each takes the box G = P U
        C, D = IMatrix(np.eye(m)), IMatrix(np.eye(n))
    else:
        c = 0.5 * np.eye(m) + 0.25 * a
        d = 0.25 * np.eye(n) + 0.5 * b - 0.0625 * (b @ b)
        C, D = IMatrix(c, 1e-8 * np.abs(c)), IMatrix(d, 1e-8 * np.abs(d))
    F = IMatrix(rng.uniform(0.5, 1.5, (m, n)), np.full((m, n), 1e-8))
    return SylvesterSystem(A=A, B=B, C=C, D=D, F=F)


@pytest.mark.parametrize("similar", [False, True], ids=["dense", "similar"])
@pytest.mark.parametrize("kind", ["identities", "commuting"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 2), (3, 3)])
def test_poor_point_factors_keep_exact_members_inside(m, n, kind, similar):
    rng = np.random.default_rng([m, n, len(kind)])
    sys = _small_system(m, n, kind, rng)
    encs = _poor_solves(sys, m * 10 + n, similar)
    assert encs[0].verified
    coeffs = (sys.A, sys.B, sys.C, sys.D, sys.F)
    # the midpoint member and vertex members, all exact rationals
    members = [[np.zeros(x.shape, dtype=int) for x in coeffs]]
    members += [[rng.choice((-1, 1), size=x.shape) for x in coeffs] for _ in range(6)]
    for signs in members:
        X = _exact_solve(*(_vertex(x, s) for x, s in zip(coeffs, signs)))
        for enc in encs:
            ev = enc.evaluated
            for i in range(m):
                for j in range(n):
                    z = (X[i][j], Fraction(0))
                    assert in_disk(z, ev.mid[i, j], ev.rad[i, j]), (enc.method, i, j)


@pytest.mark.parametrize("similar", [False, True], ids=["dense", "similar"])
@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
def test_poor_point_factors_keep_sampled_vertex_members_inside(family, similar):
    sys = generate(GenSpec(family=family, m=8, alpha=1e-6, seed=0))
    encs = _poor_solves(sys, 8, similar)
    assert encs[0].verified and len(encs) == 2
    members = sample_solutions(sys, 16, seed=8, mode="vertex")
    assert len(members) == 16
    for enc in encs:
        assert all(enc.evaluated.contains_point(x) for x in members), enc.method


def test_a_factor_with_rho_not_below_one_drops_out():
    rng = np.random.default_rng(11)
    m = 6
    p = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    a = p @ np.diag(rng.uniform(1.0, 2.0, m)) @ np.linalg.inv(p)
    c = 0.5 * np.eye(m) + 0.25 * a + 0.125 * (a @ a)
    rad = np.full((m, m), 1e-8)
    pair = (IMatrix(a, rad), IMatrix(c, rad))
    good = _perturbed(1e-3, 0)
    # E = 1.5 I + small: the spectral radius of U^-1 E U, and so rho, is above 1
    bad = _perturbed(1e-3, 1)

    def poor(mid):
        U, P, form, perm = bad(mid)
        return U, P + 1.5 * eig_decompose(mid).inv_vectors, form, perm

    U, P, _, _ = poor(a)
    with pytest.raises(SingularMatrixError, match="not below 1"):
        _near_identity(P, U)
    # the first member's basis drops out, the second donates
    donor = choose_donor(pair, lambda mid: (poor if np.array_equal(mid, a) else good)(mid), _mass)
    assert donor.index == 1
    with pytest.raises(EigenDecompositionError):
        choose_donor(pair, poor, _mass)
