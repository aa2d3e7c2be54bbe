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
}


def _run(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{name}.py"), *RUNS[name]],
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
        assert len(lines) == 36
        for line in lines:
            assert re.fullmatch(
                r"\S+ (mkw|itr|blk|ver) ([0-9a-f]{64} \S+|[A-Za-z]+Error -)", line
            ), line
            radsum = line.split()[-1]
            assert radsum == "-" or float(radsum) > 0.0, line
