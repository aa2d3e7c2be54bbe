"""Acceptance gate: ten release criteria, one reported line each.

Every test prints exactly one ``CRITERION NN PASS/FAIL`` line on the real
stdout (bypassing capture) so the summary survives in piped logs, then
asserts with the collected failure details.
"""

import math
import sys as _sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from sylvenc import (
    FAMILIES,
    GenSpec,
    IMatrix,
    SylvesterSystem,
    as_imatrix,
    build_Q_kron,
    compute_metrics,
    disks_to_rect,
    full_krawczyk_solve,
    gamma_step,
    generate,
    in_interior,
    itr_solve,
    kron,
    mkw_block_solve,
    mkw_solve,
    residual_membership,
    sample_solutions,
    vec,
)
from sylvenc.errors import EnclosureError
from sylvenc.baseline import _contraction_mag
from sylvenc.intervals import ETA
from sylvenc.krawczyk import compute_M, compute_N

from disk_oracle import Disk, contraction_oracle, iv_mul

SIZES = (2, 4, 8)
ALPHAS = (1e-6, 1e-2)
SEEDS = (0, 1, 2, 3, 4)


def _report(capfd, num: int, ok: bool, detail: str) -> None:
    # suspend capture so the summary line lands in piped logs even on pass
    with capfd.disabled():
        _sys.stdout.write(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}\n")
        _sys.stdout.flush()


@dataclass
class Cell:
    family: str
    m: int
    alpha: float
    seed: int
    system: SylvesterSystem
    enc: object
    itr: object = None
    samples: list = field(default_factory=list)


@dataclass
class FailedRun:
    """Stand-in for a solver run that raised instead of returning."""

    message: str
    verified: bool = False
    evaluated: object = None


@pytest.fixture(scope="module")
def corpus():
    """Criterion-1 grid: 3 families x 3 sizes x 2 alphas x 5 seeds.

    Each cell carries the structured solver result, the refined result when
    verification succeeded, and 200 sampled member solutions (half random
    draws, half vertex sign patterns).
    """
    cells = []
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for family in FAMILIES:
            for m in SIZES:
                for alpha in ALPHAS:
                    for seed in SEEDS:
                        system = generate(GenSpec(family=family, m=m, alpha=alpha, seed=seed))
                        try:
                            enc = mkw_solve(system)
                        except EnclosureError as exc:
                            enc = FailedRun(str(exc))
                        samples = sample_solutions(system, 100, seed + 1000, "random")
                        samples += sample_solutions(system, 100, seed + 2000, "vertex")
                        it = itr_solve(system, initial=enc) if enc.verified else None
                        cells.append(
                            Cell(family, m, alpha, seed, system, enc, it, samples)
                        )
    return cells, time.perf_counter() - t0


SPOT_STRIDE = 25  # every 25th sample of a cell is also checked alone


def _spot_check(tag: str, what: str, stacked, single, samples) -> list:
    """Failures where a stacked answer differs from the call on that sample alone."""
    return [
        f"{tag}: stacked {what} answer differs from the single call on sample {i}"
        for i in range(0, len(samples), SPOT_STRIDE)
        if bool(stacked[i]) != single(samples[i])
    ]


def test_criterion_01_soundness_soak(corpus, capfd):
    cells, elapsed = corpus
    bad = []
    n_checked = 0
    for c in cells:
        tag = f"{c.family} m={c.m} alpha={c.alpha:g} seed={c.seed}"
        if c.enc.verified:
            X = np.stack(c.samples)
            n_checked += len(X)
            for name, enc in (("mkw", c.enc), ("itr", c.itr)):
                inside = enc.evaluated.contains_point(X)
                bad += [f"{tag}: sample escaped the {name} enclosure"] * int((~inside).sum())
                bad += _spot_check(tag, "contains_point", inside, enc.evaluated.contains_point, X)
        else:
            # every verification failure must be intrinsic: the dense
            # reference on the full Kronecker system must fail there too
            try:
                oracle = full_krawczyk_solve(c.system)
                if oracle.verified:
                    bad.append(f"{tag}: structured solver failed but dense oracle verified")
            except EnclosureError:
                pass
    # the only systematic non-verification: gallery33 at m=2 (its united
    # solution set is unbounded, so no finite enclosure can be verified)
    for c in cells:
        expected_fail = c.family == "gallery33" and c.m == 2
        if c.alpha == 1e-6 and not expected_fail and not c.enc.verified:
            bad.append(f"{c.family} m={c.m} seed={c.seed}: tight-alpha cell did not verify")
        if expected_fail and c.enc.verified:
            bad.append(f"gallery33 m=2 alpha={c.alpha:g}: verified an unbounded solution set")
    if elapsed >= 120.0:
        bad.append(f"soak took {elapsed:.1f}s, budget is 120s")
    n_ver = sum(c.enc.verified for c in cells)
    _report(
        capfd,
        1,
        not bad,
        f"{len(cells)} cells, {n_ver} verified, {n_checked} contained sample checks, "
        f"all failures oracle-matched, {elapsed:.1f}s",
    )
    assert not bad, "\n".join(bad)


def test_criterion_02_oracle_agreement(capfd):
    t0 = time.perf_counter()
    bad = []
    for family in ("kyc31", "sylvester32"):
        for m in (2, 3, 4):
            for seed in (0, 1, 2):
                tag = f"{family} m={m} seed={seed}"
                system = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=seed))
                mk = mkw_solve(system)
                ver = full_krawczyk_solve(system)
                if not (mk.verified and ver.verified):
                    bad.append(f"{tag}: a solver failed to verify")
                    continue
                samples = sample_solutions(system, 60, seed + 100, "random")
                hull = IMatrix.from_infsup(
                    np.min(samples, axis=0), np.max(samples, axis=0)
                )
                for name, enc in (("mkw", mk), ("ver", ver)):
                    if not all(enc.evaluated.contains_point(x) for x in samples):
                        bad.append(f"{tag}: sample escaped {name}")
                    if not enc.evaluated.contains(hull):
                        bad.append(f"{tag}: sampled hull not inside {name}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append(f"took {elapsed:.1f}s, budget is 30s")
    _report(
        capfd, 2, not bad, f"structured and dense solvers agree on 18 systems, {elapsed:.1f}s")
    assert not bad, "\n".join(bad)


def test_criterion_03_refinement_ratio(capfd):
    t0 = time.perf_counter()
    bad = []
    ratios = []
    for m in (10, 20, 50):
        system = generate(GenSpec(family="kyc31", m=m, alpha=1e-6, seed=0))
        mk = mkw_solve(system)
        it = itr_solve(system, initial=mk)
        if not (mk.verified and it.verified):
            bad.append(f"m={m}: verification failed")
            continue
        _, ratio = compute_metrics(it.evaluated, mk.evaluated)
        ratios.append(ratio)
        if not 0.95 <= ratio <= 1.05:
            bad.append(f"m={m}: width ratio {ratio:.4f} outside [0.95, 1.05]")
        start_box = disks_to_rect(as_imatrix(mk.Xtilde) + mk.Xbox)
        if not it.gamma.Y.subset_of(start_box):
            bad.append(f"m={m}: refined box not nested in the start box")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append(f"took {elapsed:.1f}s, budget is 30s")
    shown = ", ".join(f"{r:.4f}" for r in ratios)
    _report(
        capfd, 3, not bad, f"itr/mkw width ratios [{shown}] nested, {elapsed:.1f}s")
    assert not bad, "\n".join(bad)


def test_criterion_03_itr_never_wider_than_mkw(capfd):
    # itr reports mkw's disks Xtilde + Hbox wherever it does not narrow them,
    # so after the back-transform it is at most mkw plus that transform's
    # rounding slack, which only an entry that narrowed can bring in; gen-seed
    # 1 at m = 50 narrows some entries on kyc31
    t0 = time.perf_counter()
    bad = []
    narrowed = 0
    cells = ((50, 0), (50, 1), (200, 0), (400, 0))
    for family in FAMILIES:
        for m, seed in cells:
            system = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=seed))
            mk = mkw_solve(system)
            it = itr_solve(system, initial=mk)
            if not (mk.verified and it.verified):
                bad.append(f"{family} m={m}: verification failed")
                continue
            ps, start = mk.precond, as_imatrix(mk.Xtilde) + mk.Hbox
            if (it.Xbox.rad > start.rad).any():
                bad.append(f"{family} m={m}: preconditioned disks wider than mkw's")
            same = it.evaluated.rad.tobytes() == mk.evaluated.rad.tobytes()
            if not same:
                narrowed += 1
                eta = ETA
                mag = np.abs(ps.U) @ (np.abs(start.mid) + start.rad) @ (
                    np.abs(ps.vinv_box.mid) + ps.vinv_box.rad
                )
                slack = 4.0 * (2 * m + 8) * eta * mag
                if (it.evaluated.rad > mk.evaluated.rad + slack).any():
                    bad.append(f"{family} m={m}: evaluated radii wider than mkw's plus slack")
            if family == "kyc31" and m == 400:
                if it.iterations != 1:
                    bad.append(f"kyc31 m=400: {it.iterations} steps, expected 1")
                if not (same and it.evaluated.mid.tobytes() == mk.evaluated.mid.tobytes()):
                    bad.append("kyc31 m=400: evaluated differs from mkw's")
    elapsed = time.perf_counter() - t0
    _report(
        capfd, 3, not bad,
        f"itr <= mkw + slack on {len(FAMILIES) * len(cells)} cells ({narrowed} narrowed), "
        f"{elapsed:.1f}s")
    assert not bad, "\n".join(bad)


def test_criterion_04_scalar_analytic_case(capfd):
    eye = as_imatrix(np.array([[1.0]]))
    system = SylvesterSystem(
        A=as_imatrix(np.array([[2.0]])),
        B=eye,
        C=eye,
        D=eye,
        F=IMatrix(np.array([[6.0]]), np.array([[0.3]])),
    )
    target = IMatrix.from_infsup(np.array([[1.9]]), np.array([[2.1]]))
    bound = 0.2 * (1 + 1e-6) + 1e-9
    bad = []
    solvers = {
        "mkw": mkw_solve,
        "itr": itr_solve,
        "ver": full_krawczyk_solve,
        "blk": mkw_block_solve,
    }
    widths = {}
    for name, solve in solvers.items():
        enc = solve(system)
        widths[name] = float(enc.evaluated.widths().max()) if enc.verified else np.nan
        if not enc.verified:
            bad.append(f"{name}: did not verify")
            continue
        if not enc.evaluated.contains(target):
            bad.append(f"{name}: enclosure misses part of [1.9, 2.1]")
        if widths[name] > bound:
            bad.append(f"{name}: width {widths[name]:.3e} exceeds {bound:.3e}")
    shown = ", ".join(f"{k}={v:.6f}" for k, v in widths.items())
    _report(
        capfd, 4, not bad, f"all four methods enclose [1.9, 2.1]; widths {shown}")
    assert not bad, "\n".join(bad)


def _best_time(solve, system, repeats=5):
    """The result of ``solve(system)`` and its fastest time over ``repeats`` warm calls.

    One untimed warm-up call first pays the one-time costs of a process
    (BLAS and LAPACK initialisation, first-touch allocations) that are not
    the scaling criterion 5 compares; the minimum of the timed calls is the
    least disturbed by other load on the host.
    """
    solve(system)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = solve(system)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_05_complexity_scaling(capfd):
    bad = []
    big = generate(GenSpec(family="kyc31", m=200, alpha=1e-6, seed=0))
    enc, t_mkw = _best_time(mkw_solve, big)
    if not enc.verified:
        bad.append("structured solver failed at m=200")
    if t_mkw > 60.0:
        bad.append(f"structured solve took {t_mkw:.2f}s at m=200, budget is 60s")
    small = generate(GenSpec(family="kyc31", m=32, alpha=1e-6, seed=0))
    ver, t_ver = _best_time(lambda s: full_krawczyk_solve(s, cap=32 * 32), small)
    if not ver.verified:
        bad.append("dense solver failed at m=32")
    if t_ver <= t_mkw:
        bad.append(
            f"dense m=32 ({t_ver:.2f}s) should cost more than structured m=200 ({t_mkw:.2f}s)"
        )
    _report(
        capfd,
        5,
        not bad,
        f"structured m=200 verified in {t_mkw:.2f}s; dense m=32 needed {t_ver:.2f}s",
    )
    assert not bad, "\n".join(bad)


def test_criterion_06_inflation_contract(corpus, capfd):
    cells, _ = corpus
    bad = []
    n_rechecked = 0
    for c in cells:
        if not c.enc.verified:
            continue
        n_rechecked += 1
        ps = c.enc.precond
        H = compute_M(ps, c.enc.Xtilde) + compute_N(ps, c.enc.Xbox.rad)
        tag = f"{c.family} m={c.m} alpha={c.alpha:g} seed={c.seed}"
        if not ((H.mid == c.enc.Hbox.mid).all() and (H.rad == c.enc.Hbox.rad).all()):
            bad.append(f"{tag}: recomputed candidate image differs from the stored one")
        if not in_interior(H, c.enc.Xbox):
            bad.append(f"{tag}: recomputed image not strictly inside the verified box")
    _report(
        capfd, 6, not bad, f"bit-level interiority recheck on {n_rechecked} verified runs")
    assert not bad, "\n".join(bad)


def test_criterion_07_nesting(capfd):
    rng = np.random.default_rng(20260814)
    bad = []
    done = 0
    attempts = 0
    while done < 100 and attempts < 150:
        attempts += 1
        family = ("kyc31", "sylvester32")[attempts % 2]
        m = int(rng.integers(2, 6))
        alpha = 10.0 ** rng.uniform(-6, -4)
        system = generate(GenSpec(family=family, m=m, alpha=alpha, seed=attempts))
        enc = mkw_solve(system)
        if not enc.verified:
            continue
        done += 1
        ps = enc.precond
        Y = disks_to_rect(as_imatrix(enc.Xtilde) + enc.Xbox)
        total = Y.half_widths().sum()
        for step in range(6):
            Ynew = gamma_step(ps, Y)
            if not Ynew.subset_of(Y):
                bad.append(f"trajectory {done} step {step}: not nested")
            new_total = Ynew.half_widths().sum()
            if new_total > total:
                bad.append(f"trajectory {done} step {step}: radius sum grew")
            Y, total = Ynew, new_total
    if done < 100:
        bad.append(f"only {done} usable trajectories")
    _report(
        capfd, 7, not bad, f"{done} trajectories x 6 steps nested with shrinking radius sums")
    assert not bad, "\n".join(bad)


def test_criterion_08_block_fallback_rescue(capfd):
    t0 = time.perf_counter()
    mid_a = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective: one 2x2 Jordan block
    mid_d = np.diag([2.0, 3.0])
    x_planted = np.array([[1.0, 2.0], [3.0, 4.0]])
    pad = np.full((2, 2), 1e-8)
    system = SylvesterSystem(
        A=IMatrix(mid_a, pad),
        B=as_imatrix(np.eye(2)),
        C=as_imatrix(np.eye(2)),
        D=IMatrix(mid_d, pad),
        F=IMatrix(mid_a @ x_planted + x_planted @ mid_d, pad),
    )
    samples = sample_solutions(system, 100, 1, "random")
    samples += sample_solutions(system, 100, 2, "vertex")
    hull_width = (np.max(samples, axis=0) - np.min(samples, axis=0)).max()
    bad = []
    try:
        mk = mkw_solve(system)
        mkw_ok = (not mk.verified) or mk.evaluated.widths().max() > 10 * hull_width
        mkw_note = "failed" if not mk.verified else "wide"
    except EnclosureError:
        mkw_ok, mkw_note = True, "raised"
    if not mkw_ok:
        bad.append("diagonal solver produced a tight verified box on a defective midpoint")
    blk = mkw_block_solve(system)
    if not blk.verified:
        bad.append("block solver failed to verify")
    elif not all(blk.evaluated.contains_point(x) for x in samples):
        bad.append("sample escaped the block enclosure")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        bad.append(f"took {elapsed:.1f}s, budget is 10s")
    _report(
        capfd,
        8,
        not bad,
        f"diagonal solver {mkw_note}, block solver verified with 200/200 contained, "
        f"{elapsed:.1f}s",
    )
    assert not bad, "\n".join(bad)


def test_criterion_09_identity_suite(capfd):
    rng = np.random.default_rng(7)
    bad = []
    # vec(A X B) = (B^T (x) A) vec(X), real and complex point triples
    worst = 0.0
    for i in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cplx = i % 3 == 0
        draw = lambda r, c: rng.normal(size=(r, c)) + (
            1j * rng.normal(size=(r, c)) if cplx else 0.0
        )
        a, x, b = draw(m, m), draw(m, n), draw(n, n)
        diff = np.abs(vec(a @ x @ b) - kron(b.T, a) @ vec(x)).max()
        worst = max(worst, float(diff))
    if worst > 1e-12:
        bad.append(f"vec identity off by {worst:.2e}")
    # ver's |I - R Q|, built from the Kronecker factors, bounds the one of the
    # entrywise disk products from above and is no looser than rounding
    for trial in range(50):
        system = generate(
            GenSpec(family=("kyc31", "sylvester32")[trial % 2], m=2, alpha=1e-3, seed=trial)
        )
        ks = build_Q_kron(system)
        # the contraction consumes R, so it takes a copy
        got = _contraction_mag(replace(ks, R=ks.R.copy()), system)
        want, scale = contraction_oracle(ks.R, system)
        if not (got >= want).all():
            bad.append(f"trial {trial}: |I - R Q| below the entrywise disk products")
        if not (got - want <= 1e-12 * scale).all():
            bad.append(f"trial {trial}: |I - R Q| looser than the pads")
    # inclusion isotonicity fuzz
    count = 10_000
    violations = 0
    for i in range(count):
        cplx = i % 2 == 0
        xm = rng.uniform(-5, 5) + (1j * rng.uniform(-5, 5) if cplx else 0.0)
        ym = rng.uniform(-5, 5) + (1j * rng.uniform(-5, 5) if cplx else 0.0)
        x = Disk(xm, rng.uniform(0, 2))
        y = Disk(ym, rng.uniform(0, 2))
        if cplx:
            p = x.mid + x.rad * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q = y.mid + y.rad * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:
            p = x.mid + x.rad * rng.uniform(-1, 1)
            q = y.mid + y.rad * rng.uniform(-1, 1)
        prod = iv_mul(x, y)
        if abs(p * q - prod.mid) > prod.rad:
            violations += 1
    if violations:
        bad.append(f"{violations} isotonicity violations in {count} products")
    _report(
        capfd,
        9,
        not bad,
        f"vec identity max error {worst:.1e}; 50 Kronecker crosschecks; "
        f"{count} product containments",
    )
    assert not bad, "\n".join(bad)


def test_criterion_10_residual_predicate(corpus, capfd):
    cells, _ = corpus
    bad = []
    n_checked = 0
    for c in cells:
        tag = f"{c.family} m={c.m} alpha={c.alpha:g} seed={c.seed}"
        X = np.stack(c.samples)
        n_checked += len(X)
        passed = residual_membership(c.system, X)
        bad += [f"{tag}: member solution rejected by the residual test"] * int((~passed).sum())
        bad += _spot_check(
            tag, "residual_membership", passed, lambda x: residual_membership(c.system, x), X
        )
    _report(
        capfd, 10, not bad, f"{n_checked} member solutions pass all four residual variants")
    assert not bad, "\n".join(bad)
