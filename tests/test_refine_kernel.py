"""The fused refinement kernel against the chained rectangle form it replaces.

``_reference_itr`` is the step as the rectangle functions of
``sylvenc.intervals`` compose it: the quotient disk, ``disks_to_rect``,
``rect_meet`` with the iterate, the Hausdorff distance and ``rect_mag``.
The kernel must reproduce its iterates, iteration count, convergence flag
and reports bit for bit.
"""

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    InconsistentEnclosureError,
    Rect,
    SylvesterSystem,
    gamma_step,
    generate,
    itr_solve,
    mkw_solve,
    transform_enclose,
)
from sylvenc.intervals import (
    _denominators,
    as_imatrix,
    disks_to_rect,
    posmm,
    rect_mag,
    rect_meet,
    rect_to_disks,
)
from sylvenc.krawczyk import back_transform
from sylvenc.refine import TOL_DEFAULT


def _pair_bound(a, b, w, pol):
    p = posmm(a.rad, w, pol)
    mag_w = (np.abs(np.diagonal(a.mid))[:, None] * w + p) * (1.0 + 4.0 * pol.eta)
    return posmm(p, np.abs(b.mid), pol) + posmm(mag_w, b.rad, pol)


def _quotient_disk(ps, absY, pol, denom):
    T = (
        _pair_bound(ps.Ap, ps.Bp, absY, pol) + _pair_bound(ps.Cp, ps.Dp, absY, pol) + ps.Fp.rad
    ) * (1.0 + 8.0 * pol.eta)
    fmid = ps.Fp.mid
    qmid = fmid * denom.rec_mid
    qrad = (np.abs(fmid) * denom.rec_rad + T * np.abs(denom.rec_mid) + T * denom.rec_rad) * (
        1.0 + 5.0 * pol.eta
    ) + 4.0 * pol.eta * np.abs(qmid)
    return IMatrix(qmid, qrad)


def _rect_distance(a, b):
    if a.is_real and b.is_real:
        return np.maximum(np.abs(a.lo - b.lo), np.abs(a.hi - b.hi))
    alo, ahi = np.asarray(a.lo, dtype=np.complex128), np.asarray(a.hi, dtype=np.complex128)
    blo, bhi = np.asarray(b.lo, dtype=np.complex128), np.asarray(b.hi, dtype=np.complex128)
    d = np.maximum(np.abs(alo.real - blo.real), np.abs(ahi.real - bhi.real))
    return np.maximum(d, np.maximum(np.abs(alo.imag - blo.imag), np.abs(ahi.imag - bhi.imag)))


def _reference_itr(ps, Y, tol=TOL_DEFAULT, max_iter=100):
    """Iterates, count, flag and reports of the chained rectangle step."""
    pol = ps.policy
    denom = _denominators(*(np.diag(x.mid) for x in (ps.Ap, ps.Bp, ps.Cp, ps.Dp)), pol)
    absY = rect_mag(Y, pol)
    iterates = []
    converged = False
    for k in range(1, max_iter + 1):
        Ynew = rect_meet(disks_to_rect(_quotient_disk(ps, absY, pol, denom), pol), Y)
        dist = _rect_distance(Ynew, Y)
        Y, absY = Ynew, rect_mag(Ynew, pol)
        iterates.append(Y)
        if (dist <= tol * (1.0 + absY)).all():
            converged = True
            break
    boxed = rect_to_disks(Y, pol)
    quot = _quotient_disk(ps, absY, pol, denom)
    pick = quot.rad < boxed.rad
    final = IMatrix(np.where(pick, quot.mid, boxed.mid), np.where(pick, quot.rad, boxed.rad))
    evaluated = back_transform(ps.U, final, ps.vinv_box, pol)
    return iterates, k, converged, final, evaluated


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_rect(a, b):
    assert _bits(a.lo) == _bits(b.lo) and _bits(a.hi) == _bits(b.hi)


def _same_imatrix(a, b):
    assert _bits(a.mid) == _bits(b.mid) and _bits(a.rad) == _bits(b.rad)


def _check_against_reference(sys, Y0=None, max_iter=100):
    base = mkw_solve(sys)
    assert base.verified
    ps = base.precond
    start = disks_to_rect(as_imatrix(base.Xtilde) + base.Xbox) if Y0 is None else Y0
    iterates, k, converged, final, evaluated = _reference_itr(ps, start, max_iter=max_iter)
    enc = itr_solve(sys, Y0=Y0, initial=base, max_iter=max_iter)
    assert enc.iterations == k == enc.gamma.k
    assert enc.gamma.converged == converged
    _same_rect(enc.gamma.Y, iterates[-1])
    _same_imatrix(enc.Xbox, final)
    _same_imatrix(enc.evaluated, evaluated)
    # every intermediate iterate, one public step at a time
    Y = start
    for ref in iterates:
        Y = gamma_step(ps, Y)
        _same_rect(Y, ref)
    return enc


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("family", ["kyc31", "sylvester32", "gallery33"])
def test_kernel_matches_chained_rectangles(family, m):
    enc = _check_against_reference(generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0)))
    assert not enc.gamma.Y.is_real


def test_kernel_matches_on_real_data():
    # symmetric midpoints: real eigenbases, real preconditioned data
    rng = np.random.default_rng(7)
    m = 12
    a = rng.normal(size=(m, m))
    b = rng.normal(size=(m, m))
    a, b = a + a.T + 10 * np.eye(m), b + b.T + 10 * np.eye(m)
    rad = np.full((m, m), 1e-7)
    sys = SylvesterSystem(
        A=IMatrix(a, rad),
        B=IMatrix(b, rad),
        C=IMatrix(np.eye(m)),
        D=IMatrix(np.eye(m)),
        F=IMatrix(rng.normal(size=(m, m)), rad),
    )
    enc = _check_against_reference(sys)
    assert enc.gamma.Y.is_real


def test_kernel_matches_from_real_start_on_complex_data():
    # 1j X (2j I) + X = -X = F: complex coefficients, real solutions, so a
    # real start rectangle is a valid enclosure
    rng = np.random.default_rng(8)
    m = 6
    f = rng.normal(size=(m, m))
    eye = np.eye(m)
    sys = SylvesterSystem(
        A=IMatrix(1j * eye, np.full((m, m), 1e-6)),
        B=IMatrix(2j * eye),
        C=IMatrix(eye),
        D=IMatrix(eye),
        F=IMatrix(f, np.full((m, m), 1e-4)),
    )
    assert np.iscomplexobj(transform_enclose(sys).Fp.mid)
    enc = _check_against_reference(sys, Y0=Rect(-f - 1.0, -f + 1.0))
    assert not enc.gamma.Y.is_real
    assert enc.evaluated.contains_point(-f)


def test_kernel_matches_under_iteration_cap():
    sys = generate(GenSpec(family="gallery33", m=8, alpha=1e-6, seed=0))
    enc = _check_against_reference(sys, max_iter=2)
    assert enc.iterations == 2 and not enc.gamma.converged


def test_kernel_keeps_signed_zeros_of_the_rectangle_form():
    # a point system with zero right-hand-side entries: quotient radii of
    # exactly zero and negative-zero corners, the case the corner arrays
    # must compose as a complex array does
    rng = np.random.default_rng(5)
    m = 4
    a = rng.normal(size=(m, m))
    f = rng.normal(size=(m, m))
    f[0, :] = 0.0
    f[1, 1] = -0.0
    ps = transform_enclose(
        SylvesterSystem(
            A=IMatrix(a), B=IMatrix(np.eye(m)), C=IMatrix(np.eye(m)), D=IMatrix(np.eye(m)),
            F=IMatrix(f),
        )
    )
    lo = -1.0 - 1.0j + np.zeros((m, m))
    hi = 1.0 + 1.0j + np.zeros((m, m))
    lo[2, 2] = complex(-0.0, -0.0)
    Y = Rect(lo * 50, hi * 50)
    Y.lo[2, 2] = complex(-0.0, -0.0)
    iterates, *_ = _reference_itr(ps, Y, max_iter=3)
    for ref in iterates:
        Y = gamma_step(ps, Y)
        _same_rect(Y, ref)


def test_empty_meet_raises():
    sys = generate(GenSpec(family="kyc31", m=8, alpha=1e-6, seed=0))
    base = mkw_solve(sys)
    far = disks_to_rect(as_imatrix(base.Xtilde + 100.0) + base.Xbox)
    with pytest.raises(InconsistentEnclosureError):
        gamma_step(base.precond, far)
    with pytest.raises(InconsistentEnclosureError):
        itr_solve(sys, Y0=far, initial=base)
