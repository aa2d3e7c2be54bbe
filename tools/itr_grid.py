"""Print, per grid cell, how the refinement ``itr`` compares with ``mkw``.

The default grid is the three families x alpha in {1e-6, 1e-4, 1e-3} x
m in {20, 100, 400}, generator seed 0.  For each cell mkw is solved first;
when it verified, itr is started from that enclosure.  One line per cell:

* ``mkw``: whether mkw verified;
* ``ratio``: itr's radius sum over mkw's, after the back-transform;
* ``steps``: itr's iteration count;
* ``narrow``: the largest relative narrowing of an entry of itr's
  preconditioned disks against mkw's ``Xtilde + Hbox``, before the
  back-transform (0 when itr reports mkw's disks everywhere);
* ``excess``: the largest relative excess of an itr radius over mkw's,
  after the back-transform (at most the back-transform's rounding slack);
* ``itr_ms``: the clock time of the itr call.

Run from the repository root::

    python3 tools/itr_grid.py
    python3 tools/itr_grid.py --sizes 8,32,50,200 --seeds 0,1,2 --alphas 1e-6
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import FAMILIES, GenSpec, as_imatrix, generate, itr_solve, mkw_solve  # noqa: E402
from sylvenc.errors import EnclosureError  # noqa: E402


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def cell(family: str, m: int, alpha: float, seed: int) -> str:
    label = f"{family:<12} m={m:<4} alpha={alpha:<6g} seed={seed}"
    sys_ = generate(GenSpec(family=family, m=m, alpha=alpha, seed=seed))
    try:
        mk = mkw_solve(sys_)
    except EnclosureError as exc:
        return f"{label} mkw={type(exc).__name__}"
    if not mk.verified:
        return f"{label} mkw=False"
    t0 = time.perf_counter()
    it = itr_solve(sys_, initial=mk)
    itr_ms = 1e3 * (time.perf_counter() - t0)
    start = as_imatrix(mk.Xtilde) + mk.Hbox
    with np.errstate(divide="ignore", invalid="ignore"):
        narrow = np.nan_to_num(1.0 - it.Xbox.rad / start.rad).max()
        excess = np.nan_to_num(it.evaluated.rad / mk.evaluated.rad - 1.0).max()
    ratio = float(it.evaluated.rad.sum() / mk.evaluated.rad.sum())
    return (
        f"{label} mkw=True ratio={ratio:.8f} steps={it.iterations} "
        f"narrow={max(narrow, 0.0):.3e} excess={max(excess, 0.0):.3e} itr_ms={itr_ms:.1f}"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default=",".join(FAMILIES))
    ap.add_argument("--sizes", type=_ints, default=[20, 100, 400])
    ap.add_argument("--alphas", type=_floats, default=[1e-6, 1e-4, 1e-3])
    ap.add_argument("--seeds", type=_ints, default=[0])
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    for family in args.families.split(","):
        for alpha in args.alphas:
            for m in args.sizes:
                for seed in args.seeds:
                    print(cell(family, m, alpha, seed), flush=True)


if __name__ == "__main__":
    main()
