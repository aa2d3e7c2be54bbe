"""Print, per grid cell, the memory that mkw, itr and blk use at their peak and keep after.

The default grid is the three families at m in {100, 200, 400} (n = m,
alpha 1e-6, generator seed 0).  Per cell mkw is solved, then itr from
mkw's enclosure when it verified, then, with both results dropped, blk.
``--solvers`` picks which of them print (default ``mkw,itr,blk``); itr
still starts from mkw's enclosure, which is then solved without a line.
Leave blk out of a grid that holds gallery33 at m = 400: its block
pattern sends blk's midpoint sweep through a Python loop over the unknowns
of each tile, which runs for many minutes there.  One line per cell and
solver:

* ``peak``: the ``tracemalloc`` peak of the call above the memory traced
  when it started (the system, and for itr mkw's result, are not counted);
* ``kept``: the bytes of the distinct array buffers the result keeps
  (``sylvenc.bench.retained_nbytes``); for itr the bytes it adds to mkw's
  result, which it shares its preconditioned system with.

Each is printed in MiB and in complex m x n arrays (``16 m n`` bytes), the
unit of the resource budgets.  mkw and blk keep 12.5 such arrays and peak
at about 17.5 on kyc31 and sylvester32 at m = 400: each side of the
preconditioner is reduced to its pattern entries as soon as its donor is
chosen, and the residual forms one dense coefficient box at a time.  itr
keeps 3.5 and peaks at about 10 above mkw's result.  ``tracemalloc``
counts every numpy buffer but not the BLAS library's own work space.  The
solves run on one BLAS thread, and a warm-up solve before the grid takes
the first calls' one-time allocations.  ``kept`` is exact and the same in
every run; a peak moves by a few hundred bytes between runs (the Python
objects of SciPy's LAPACK wrappers), so it is printed to a tenth of a MiB
and of an array, a grain of 16 KB at m = 100.  Run from the repository
root::

    python3 tools/mem_grid.py --families kyc31,sylvester32 --sizes 200,400
    python3 tools/mem_grid.py --families gallery33 --sizes 200,400 --solvers mkw,itr
    python3 tools/mem_grid.py --families kyc31 --sizes 16,64
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import FAMILIES, GenSpec, generate, itr_solve, mkw_block_solve, mkw_solve  # noqa: E402
from sylvenc.bench import retained_nbytes  # noqa: E402
from sylvenc.errors import EnclosureError  # noqa: E402

MIB = 2.0**20
SOLVERS = ("mkw", "itr", "blk")


def _traced(fn, *args, **kwargs):
    """``fn``'s result and its traced peak above the memory traced before the call."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn(*args, **kwargs)
    return out, tracemalloc.get_traced_memory()[1] - before


def _line(label: str, solver: str, peak: int, kept: int, unit: float) -> str:
    return (
        f"{label} {solver} peak_mib={peak / MIB:.1f} peak_cmn={peak / unit:.1f} "
        f"kept_mib={kept / MIB:.2f} kept_cmn={kept / unit:.2f}"
    )


def cell(family: str, m: int, solvers: tuple[str, ...] = SOLVERS) -> list[str]:
    label = f"{family:<12} m={m:<4}"
    sys_ = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
    unit = 16.0 * m * m
    lines = []
    mkw = error = None
    if "mkw" in solvers or "itr" in solvers:
        # itr starts from mkw's enclosure, which is solved even when only itr is printed
        try:
            mkw, peak = _traced(mkw_solve, sys_)
        except EnclosureError as exc:
            error = type(exc).__name__
        if "mkw" in solvers and error:
            lines.append(f"{label} mkw {error}")
        elif "mkw" in solvers:
            lines.append(_line(label, "mkw", peak, retained_nbytes(mkw), unit))
    if "itr" in solvers:
        if mkw is not None and mkw.verified:
            itr, peak = _traced(itr_solve, sys_, initial=mkw)
            kept = retained_nbytes(mkw, itr) - retained_nbytes(mkw)
            lines.append(_line(label, "itr", peak, kept, unit))
            del itr
        else:
            lines.append(f"{label} itr -")
    del mkw
    if "blk" in solvers:
        try:
            blk, peak = _traced(mkw_block_solve, sys_)
        except EnclosureError as exc:
            lines.append(f"{label} blk {type(exc).__name__}")
        else:
            lines.append(_line(label, "blk", peak, retained_nbytes(blk), unit))
    return lines


def _solvers(text: str) -> tuple[str, ...]:
    names = tuple(x for x in text.split(",") if x)
    if not names or set(names) - set(SOLVERS):
        raise argparse.ArgumentTypeError(f"pick from {','.join(SOLVERS)}")
    return names


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default=",".join(FAMILIES))
    ap.add_argument("--sizes", default="100,200,400")
    ap.add_argument("--solvers", type=_solvers, default=SOLVERS)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    warm = generate(GenSpec(family="kyc31", m=4, alpha=1e-6, seed=0))
    itr_solve(warm, initial=mkw_solve(warm))
    mkw_block_solve(warm)
    tracemalloc.start()
    for family in args.families.split(","):
        for m in (int(x) for x in args.sizes.split(",")):
            print("\n".join(cell(family, m, args.solvers)), flush=True)
    tracemalloc.stop()


if __name__ == "__main__":
    main()
