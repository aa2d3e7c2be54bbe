"""Print, per system, what the block fallback ``blk`` does and what it costs.

The grid holds systems whose midpoints ``blk`` exists for, plus diagonalizable
ones for comparison:

* the Jordan family of ``tools/enclosure_digests.py`` (``A X B + X = F``,
  ``mid A`` made of 2x2 Jordan blocks) at m in {16, 32, 48, 96}, seeds 0, 1;
* kyc31 at m in {48, 100} (alpha = 1e-6, generator seed 0);
* ``near-defective`` of ``tools/enclosure_digests.py``: ``mid A``
  orthogonally similar to four 4x4 bidiagonal chains whose eigenvalues lie
  0.02 apart, too far apart to cluster, so the norm cap of
  ``block_diagonalize`` fuses each chain into one block.

One line per system:

* ``a_sizes`` / ``b_sizes``: blk's block sizes on each side
  (``precond.row_sizes`` / ``precond.col_sizes``), as ``size x count`` runs;
* ``cond``: blk's ``precond.cond_bound``;
* ``bd_ms``: clock ms of ``block_diagonalize`` on each of the four
  midpoints, the median of 5 runs (blk itself skips a repeated member; a
  diagonal one takes no Schur form);
* ``blk``: whether blk verified, and ``radsum`` its radius sum;
* ``mkw_it``: mkw's iteration count and outcome on the same system.

BLAS runs on one thread.  Run from the repository root::

    python3 tools/blk_grid.py
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import itertools  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from enclosure_digests import defective_system, near_defective_system  # noqa: E402

from sylvenc import (  # noqa: E402
    GenSpec,
    SylvesterSystem,
    block_diagonalize,
    generate,
    mkw_block_solve,
    mkw_solve,
)


def grid() -> list[tuple[str, SylvesterSystem]]:
    out = [(f"jordan-m{m}-s{s}", defective_system(m, s)) for m in (16, 32, 48, 96) for s in (0, 1)]
    out += [(f"kyc31-m{m}", generate(GenSpec(family="kyc31", m=m))) for m in (48, 100)]
    return out + [("near-defective-m16", near_defective_system())]


def _runs(sizes: tuple[int, ...]) -> str:
    return ",".join(f"{s}x{len(list(g))}" for s, g in itertools.groupby(sizes))


def _bd_ms(sys_: SylvesterSystem, repeats: int = 5) -> float:
    sides = ((sys_.A.mid, sys_.C.mid), (sys_.B.mid, sys_.D.mid))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for pair in sides:
            for mid in pair:
                block_diagonalize(mid)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def row(label: str, sys_: SylvesterSystem) -> str:
    blk = mkw_block_solve(sys_)
    ps = blk.precond
    mk = mkw_solve(sys_)
    radsum = float(blk.evaluated.rad.sum()) if blk.verified else float("nan")
    return (
        f"{label:<20} a_sizes={_runs(ps.row_sizes):<8} b_sizes={_runs(ps.col_sizes):<12} "
        f"cond={ps.cond_bound:.3e} bd_ms={_bd_ms(sys_):7.2f} blk={blk.verified} "
        f"radsum={radsum:.10e} mkw_it={mk.iterations}{'' if mk.verified else ' (failed)'}"
    )


def main() -> None:
    warnings.simplefilter("ignore")
    for label, sys_ in grid():
        print(row(label, sys_), flush=True)


if __name__ == "__main__":
    main()
