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
    "mem_grid": ["--sizes", "16", "--solvers", "mkw,itr,blk"],
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
    if name == "mem_grid":
        _check_mem_grid(proc.stdout)
    if name == "audit_grid":
        (line,) = proc.stdout.splitlines()
        costs = re.search(
            r"rm_us=(\S+) rm_stack_us=(\S+) cp_us=(\S+) cp_stack_us=(\S+)", line
        )
        assert costs and all(float(v) > 0 for v in costs.groups()), line


_MEM_LINE = re.compile(
    r"(\S+) +m=16 +(mkw|itr|blk) peak_mib=(\S+) peak_cmn=(\S+) kept_mib=(\S+) kept_cmn=(\S+)"
)


def _check_mem_grid(stdout):
    rows = [_MEM_LINE.fullmatch(line) for line in stdout.splitlines()]
    assert len(rows) == 9 and all(rows), stdout
    assert [r[2] for r in rows] == ["mkw", "itr", "blk"] * 3
    kept = {(r[1], r[2]): float(r[6]) for r in rows}
    for family in ("kyc31", "sylvester32", "gallery33"):
        # mkw with itr keeps at most 17 complex m x m arrays
        assert 0 < kept[family, "mkw"] and kept[family, "mkw"] + kept[family, "itr"] <= 17.0
    # the kept bytes are exact: a second run prints them again, and peaks within a grain
    again = [_MEM_LINE.fullmatch(line) for line in _run("mem_grid").stdout.splitlines()]
    assert [r.group(1, 2, 5, 6) for r in again] == [r.group(1, 2, 5, 6) for r in rows]
    for r, s in zip(rows, again):
        assert abs(float(r[4]) - float(s[4])) <= 0.2 and float(r[4]) > 0, (r[0], s[0])
    # --solvers prints only the solvers it names, in the grid's order
    proc = _run("mem_grid", "--families", "gallery33", "--sizes", "16", "--solvers", "itr,mkw")
    picked = [_MEM_LINE.fullmatch(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and all(picked), proc.stdout + proc.stderr
    assert [r[2] for r in picked] == ["mkw", "itr"]


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
