"""Every script under tools/ runs to completion against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the grids run on their smallest cell
RUNS = {
    "enclosure_digests": [],
    "blk_grid": [],
    "itr_grid": ["--families", "kyc31", "--sizes", "8", "--alphas", "1e-6"],
    "audit_grid": ["--families", "kyc31", "--sizes", "8", "--alphas", "1e-6", "--samples", "4"],
    "loop_grid": ["--cells", "kyc31:8:0"],
    "ver_grid": ["--families", "kyc31", "--sizes", "8", "--repeat", "1"],
}


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{name}.py"), *(args or RUNS[name])],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_every_tool_is_covered():
    assert sorted(p.stem for p in (ROOT / "tools").glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_tool_runs(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stderr
    if name == "enclosure_digests":
        lines = proc.stdout.splitlines()
        assert len(lines) == 52
        for line in lines:
            assert re.fullmatch(
                r"\S+ (mkw|itr|blk|ver) ([0-9a-f]{64} \S+|[A-Za-z]+Error -)", line
            ), line
            radsum = line.split()[-1]
            assert radsum == "-" or float(radsum) > 0.0, line
    if name == "loop_grid":
        (line,) = proc.stdout.splitlines()
        assert re.search(
            r"verified=True stop=box +k=\d+ +calls=\d+ +ratio=[0-9.e+-]+ loop_ms=", line
        ), line
    if name == "ver_grid":
        (line,) = proc.stdout.splitlines()
        stages = re.findall(r"(lu|M|wmag|loop)_ms=(\S+) \1_mb=(\S+)", line)
        assert [s[0] for s in stages] == ["lu", "M", "wmag", "loop"], line
        assert all(float(ms) >= 0 and float(mb) > 0 for _, ms, mb in stages), line
        tail = re.search(r"peak_mb=(\S+) budget_mb=(\S+) radsum=(\S+)$", line)
        peak, budget, radsum = tail.groups()
        assert 0 < float(peak) <= float(budget) and float(radsum) > 0, line
    if name == "audit_grid":
        (line,) = proc.stdout.splitlines()
        costs = re.search(
            r"rm_us=(\S+) rm_stack_us=(\S+) cp_us=(\S+) cp_stack_us=(\S+)", line
        )
        assert costs and all(float(v) > 0 for v in costs.groups()), line


def _against(tmp_path, *lines):
    before = tmp_path / "before.txt"
    before.write_text("".join(f"{line}\n" for line in lines))
    proc = _run("enclosure_digests", "--against", str(before))
    return proc, {tuple(line.split()[:2]): line.split()[-1] for line in proc.stdout.splitlines()}


def test_digests_against_a_narrower_or_unverified_run_pass(tmp_path):
    proc, change = _against(
        tmp_path,
        f"kyc31-m8 mkw {'0' * 64} inf",
        "jordan-m16 mkw NoSuchError -",
        "jordan-m16 itr NoInitialEnclosureError -",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(change) == 52
    assert change[("kyc31-m8", "mkw")] == "-1.000e+00"
    assert change[("jordan-m16", "mkw")] == "-"  # it fails honestly, then and now
    assert change[("jordan-m16", "itr")] == "="
    assert change[("gallery33-m8", "mkw")] == "new"


def test_digests_against_a_run_flag_wider_lost_and_missing_lines(tmp_path):
    proc, change = _against(
        tmp_path,
        f"kyc31-m8 mkw {'0' * 64} inf",
        f"kyc31-m8 itr {'0' * 64} 1e-300",
        f"jordan-m16 mkw {'0' * 64} 1.0",
        f"retired-m4 ver {'0' * 64} 1.0",
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert change[("kyc31-m8", "mkw")] == "-1.000e+00"
    assert change[("kyc31-m8", "itr")].startswith("+") and float(change[("kyc31-m8", "itr")]) > 0
    assert change[("jordan-m16", "mkw")] == "lost"
    assert change[("retired-m4", "ver")] == "missing"
