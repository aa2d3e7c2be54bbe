"""Print, per cell, the time and traced memory of each stage of ver, and its width.

A cell is a family at size m (n = m, alpha 1e-6, seed 0); the default grid
is the three families at m = 8, 16 and 32, where m n reaches ver's default
cap.  ``full_krawczyk_solve`` runs in four stages, each timed on its own:

* ``lu``: ``build_Q_kron``, the midpoint ``mid Q`` and its inverse ``R``
  (``getrf`` and ``getri``);
* ``M``: the approximate solution and ``M``, the residual enclosure times
  ``R``;
* ``wmag``: ``|I - R Q|``, streamed through row blocks of ``R``;
* ``loop``: the verification loop.

For each stage the line prints ``<stage>_ms``, the least clock time over
``--repeat`` runs, and ``<stage>_mb``, the ``tracemalloc`` peak in MiB
during the stage, the arrays held from earlier stages included (a separate
traced run, so the tracing does not enter the times).  The stages share
one ``(m n)^2`` buffer: ``lu`` assembles ``mid Q`` in it and inverts it
there, ``M`` reads ``R`` from it, and ``wmag`` writes ``|I - R Q|`` over
it, so each ``<stage>_mb`` is that one array and the stage's own working
set.  ``wmag`` consumes ``R``; each run of the stages starts from a fresh
``build_Q_kron``.  ``peak_mb`` is the largest of them, ``budget_mb`` the
peak ``full_krawczyk_solve`` predicts for its size check, and ``radsum``
the radius sum of the enclosure (``-`` when it did not verify).  BLAS runs
on one thread.  Run from the repository root::

    python3 tools/ver_grid.py
    python3 tools/ver_grid.py --families kyc31 --sizes 32 --repeat 5
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import GenSpec, generate  # noqa: E402
from sylvenc.baseline import (  # noqa: E402
    _contraction_mag,
    _ver_bytes,
    _ver_loop,
    _ver_residual,
    build_Q_kron,
)

STAGES = ("lu", "M", "wmag", "loop")
MIB = 2.0**20


def _stages(sys_, clock):
    """Run ver's four stages, ``clock(name)`` around each; the enclosure."""
    with clock("lu"):
        ks = build_Q_kron(sys_, None)
    with clock("M"):
        X, M = _ver_residual(ks, sys_)
    with clock("wmag"):
        wmag = _contraction_mag(ks, sys_)
    with clock("loop"):
        enc = _ver_loop(ks, X, M, wmag)
    return enc


def _timer(ms: dict):
    """A clock that keeps each stage's least time, in ms."""

    @contextmanager
    def clock(name):
        t0 = time.perf_counter()
        yield
        t = 1e3 * (time.perf_counter() - t0)
        ms[name] = min(t, ms.get(name, t))

    return clock


def _tracer(mb: dict):
    """A clock that keeps each stage's traced peak, in MiB."""

    @contextmanager
    def clock(name):
        tracemalloc.reset_peak()
        yield
        mb[name] = tracemalloc.get_traced_memory()[1] / MIB

    return clock


def cell(family: str, m: int, repeat: int) -> str:
    sys_ = generate(GenSpec(family=family, m=m, alpha=1e-6, seed=0))
    ms, mb = {}, {}
    for _ in range(repeat):
        enc = _stages(sys_, _timer(ms))
    tracemalloc.start()
    try:
        _stages(sys_, _tracer(mb))
    finally:
        tracemalloc.stop()
    parts = [f"{family:<12} m={m:<3}"]
    parts += [f"{s}_ms={ms[s]:.1f} {s}_mb={mb[s]:.2f}" for s in STAGES]
    radsum = repr(float(enc.evaluated.rad.sum())) if enc.verified else "-"
    parts.append(f"peak_mb={max(mb.values()):.2f} budget_mb={_ver_bytes(sys_) / MIB:.2f}")
    parts.append(f"radsum={radsum}")
    return " ".join(parts)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default="kyc31,sylvester32,gallery33")
    ap.add_argument("--sizes", default="8,16,32")
    ap.add_argument("--repeat", type=int, default=3, help="timed runs per cell")
    args = ap.parse_args(argv)
    for family in args.families.split(","):
        for m in (int(v) for v in args.sizes.split(",")):
            print(cell(family, m, args.repeat), flush=True)


if __name__ == "__main__":
    main()
