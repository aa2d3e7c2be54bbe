"""Print, per cell, how mkw's verification loop ended and what it cost.

A cell is ``family:m:seed`` (alpha 1e-6, n = m).  The default cells are
the failures whose growth sits on a principal subset (kyc31 m = 200 seed 6
and m = 400 seed 2), the largest cells, kyc31 and sylvester32 at m = 800
seed 0, which verify in four steps (ratios about 0.66 and 0.57), and the
verified m = 400 seed 0 systems of the three families as controls.  The script forms mkw's ``M`` and runs
``krawczyk.verification_loop`` on it with mkw's contraction term, and prints
what the loop's result reports.  One line per cell:

* ``verified``: whether the loop verified;
* ``stop``: why it ended: ``box`` (a box verified), ``not_contracting``
  (every ratio ``rad N(x) / x`` reached ``1 + 2**-10``), ``subset`` (the
  principal-subset certificate) or ``kmax``;
* ``k``: the iteration count the enclosure reports;
* ``calls``: the calls of the contraction term ``n_of``, the subset's
  power steps included;
* ``ratio``: the largest ratio ``rad N(x) / x`` of the last step;
* ``loop_ms``: the clock time of the loop, ``M`` and the preconditioning
  excluded.

The m = 800 cells take seconds each.  Run from the repository root::

    python3 tools/loop_grid.py
    python3 tools/loop_grid.py --cells kyc31:400:2,sylvester32:800:0
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import GenSpec, generate, transform_enclose  # noqa: E402
from sylvenc.krawczyk import KMAX_DEFAULT, compute_M, compute_N, verification_loop  # noqa: E402

CELLS = (
    "kyc31:200:6,kyc31:400:2,kyc31:800:0,sylvester32:800:0,"
    "kyc31:400:0,sylvester32:400:0,gallery33:400:0"
)


def cell(family: str, m: int, seed: int) -> str:
    ps = transform_enclose(generate(GenSpec(family=family, m=m, alpha=1e-6, seed=seed)))
    # mkw's approximate solution and residual on its diagonal system
    M = compute_M(ps, ps.Fp.mid / ps.den_mid())
    calls = 0

    def n_of(xrad):
        nonlocal calls
        calls += 1
        return compute_N(ps, xrad)

    t0 = time.perf_counter()
    loop = verification_loop(M, n_of, KMAX_DEFAULT)
    ms = 1e3 * (time.perf_counter() - t0)
    return (
        f"{family:<12} m={m:<4} seed={seed} verified={loop.verified} stop={loop.stop:<15} "
        f"k={loop.iterations:<2} calls={calls:<2} ratio={loop.ratio:.4g} loop_ms={ms:.1f}"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", default=CELLS, help="comma-separated family:m:seed")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    for spec in args.cells.split(","):
        family, m, seed = spec.split(":")
        print(cell(family, int(m), int(seed)), flush=True)


if __name__ == "__main__":
    main()
