"""Print, per cell, how mkw's verification loop ended and what it cost.

A cell is ``family:m:seed`` (alpha 1e-6, n = m).  The default cells are
the failures whose growth sits on a principal subset (kyc31 m = 200 seed 6,
m = 400 seed 2 and m = 800 seed 0), the slowly contracting sylvester32
m = 800 seed 0, and the verified m = 400 seed 0 systems of the three
families as controls.  One line per cell:

* ``verified``: whether the loop verified;
* ``stop``: why it ended: ``box`` (a box verified), ``all`` (every ratio
  ``rad N(x) / x`` reached ``1 + 2**-10``), ``subset`` (the principal-subset
  certificate) or ``kmax``;
* ``k``: the iteration count the enclosure reports;
* ``calls``: the calls of the contraction term ``n_of``, the subset's
  power steps included;
* ``ratio``: the ratio that certified the failure (``-`` when none did);
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

from sylvenc import GenSpec, generate, krawczyk, mkw_solve  # noqa: E402

CELLS = (
    "kyc31:200:6,kyc31:400:2,kyc31:800:0,sylvester32:800:0,"
    "kyc31:400:0,sylvester32:400:0,gallery33:400:0"
)


def cell(family: str, m: int, seed: int) -> str:
    sys_ = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=seed))
    loop, certificate = krawczyk.verification_loop, krawczyk._subset_certificate
    rec = {"calls": 0, "subset": None}

    def subset(n_of, xrad, ratio):
        rec["subset"] = certificate(n_of, xrad, ratio)
        return rec["subset"]

    def timed(M, n_of, kmax):
        def counted(xrad):
            rec["calls"] += 1
            rec["last"] = (xrad, n_of(xrad))
            return rec["last"][1]

        t0 = time.perf_counter()
        out = loop(M, counted, kmax)
        rec["ms"] = 1e3 * (time.perf_counter() - t0)
        rec["kmax"] = kmax
        return out

    krawczyk.verification_loop, krawczyk._subset_certificate = timed, subset
    try:
        enc = mkw_solve(sys_)
    finally:
        krawczyk.verification_loop, krawczyk._subset_certificate = loop, certificate
    ratio = "-"
    if enc.verified:
        stop = "box"
    elif rec["subset"] is not None:
        stop, ratio = "subset", f"{rec['subset']:.4f}"
    elif enc.iterations < rec["kmax"]:
        xrad, N = rec["last"]
        stop, ratio = "all", f"{(N.rad / xrad).min():.4f}"
    else:
        stop = "kmax"
    return (
        f"{family:<12} m={m:<4} seed={seed} verified={enc.verified} stop={stop:<6} "
        f"k={enc.iterations:<2} calls={rec['calls']:<2} ratio={ratio} loop_ms={rec['ms']:.1f}"
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
