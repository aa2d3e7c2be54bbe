"""Tests of the benchmark's own machinery: gate, relabeling, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import sylvenc  # noqa: E402
from sylvenc import GenSpec, IMatrix, generate, mkw_solve, point_solve  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


def _audited(sys_, enc, k=20):
    members = sylvenc.sample_solutions(sys_, k, seed=3)
    contains = {"mkw": [enc.evaluated.contains_point(x) for x in members]}
    residual = [sylvenc.residual_membership(sys_, x) for x in members]
    return members, contains, residual


def test_gate_passes_sound_enclosure():
    sys_ = generate(GenSpec("kyc31", 4, seed=0))
    enc = mkw_solve(sys_)
    gate.check_request("kyc31/m4", {"mkw": enc}, *_audited(sys_, enc))


def test_gate_fires_on_shrunken_radii():
    sys_ = generate(GenSpec("kyc31", 4, seed=0))
    enc = mkw_solve(sys_)
    members, contains, residual = _audited(sys_, enc)
    box = enc.evaluated
    shrunk = dataclasses.replace(enc, evaluated=IMatrix(box.mid, box.rad * 1e-6))
    # the library's own answers still say "inside"; the gate's arithmetic must not
    with pytest.raises(gate.GateError, match="escapes"):
        gate.check_request("kyc31/m4", {"mkw": shrunk}, members, contains, residual)


def test_gate_fires_on_rejected_residual():
    sys_ = generate(GenSpec("kyc31", 4, seed=0))
    enc = mkw_solve(sys_)
    members, contains, residual = _audited(sys_, enc)
    residual[0] = False
    with pytest.raises(gate.GateError, match="residual_membership"):
        gate.check_request("kyc31/m4", {"mkw": enc}, members, contains, residual)


def test_fingerprint_tracks_enclosure_bytes():
    sys_ = generate(GenSpec("sylvester32", 5, seed=1))
    a, b = mkw_solve(sys_), mkw_solve(sys_)
    assert gate.fingerprint(a) == gate.fingerprint(b)
    assert gate.json_digest(a) == gate.json_digest(b)
    box = a.evaluated
    wider = dataclasses.replace(a, evaluated=IMatrix(box.mid, np.nextafter(box.rad, np.inf)))
    assert gate.fingerprint(wider) != gate.fingerprint(a)


def test_relabel_permutes_the_solution():
    sys_ = generate(GenSpec("kyc31", 5, n=3, seed=2))
    rng = np.random.default_rng(0)
    p, q = rng.permutation(5), rng.permutation(3)
    mids = lambda s: [getattr(s, k).mid for k in "ABCDF"]  # noqa: E731
    x = point_solve(*mids(sys_))
    y = point_solve(*mids(W.relabel(sys_, p, q)))
    np.testing.assert_allclose(y, x[np.ix_(p, q)], rtol=1e-10, atol=1e-12)


def test_member_solution_matches_kronecker_solve():
    sys_ = generate(GenSpec("gallery33", 6))
    coeffs = W.draw_member(sys_, np.random.default_rng(1))
    np.testing.assert_allclose(W.member_solution(*coeffs), point_solve(*coeffs), rtol=1e-8)


@pytest.mark.filterwarnings("ignore:pair is far from commuting")
def test_jordan_family_defeats_mkw_not_blk():
    sys_ = W.jordan_system(8, 0)
    assert not mkw_solve(sys_).verified
    assert sylvenc.mkw_block_solve(sys_).verified


def test_calibration_reference_counts_dense_products():
    loop_only, mixed = hostspeed.Calibration(0), hostspeed.Calibration(3)
    assert loop_only.ref_s == hostspeed.LOOP_REF_S
    assert mixed.ref_s == pytest.approx(hostspeed.LOOP_REF_S + 3 * hostspeed.GEMM_REF_S)
    assert loop_only() > 0.0
    assert mixed.scale() > 0.0


def test_tracer_sees_calls_through_module_globals():
    orig = sylvenc.precond.eig_decompose
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        # through the package attribute: a name imported before install is not wrapped
        sylvenc.mkw_solve(generate(GenSpec("kyc31", 4, seed=0)))
        tracer.active = False
        stats = tracer.take_stats()
    finally:
        tracer.uninstall()
    assert sylvenc.precond.eig_decompose is orig
    assert stats["precond.transform_enclose"].calls == 1
    assert stats["linalg.eig_decompose"].calls >= 2
    assert stats["krawczyk.compute_N"].calls >= 1
    assert stats["intervals.im_matmul"].flops > 0
    top = stats["krawczyk.mkw_solve"]
    assert 0.0 <= top.self_s <= top.incl_s
    assert all(span is not None for span in tracer.spans)


def test_run_refuses_a_tree_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "audit-small", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
