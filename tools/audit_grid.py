"""Print, per grid cell, what the audit layer costs per member and how close it lands.

The default grid is the three families x m in {8, 32, 200} x alpha in
{1e-6, 1e-2}, generator seed 0, with 200, 40 and 10 sampled members at
m = 8, 32 and 200.  For each cell the same members are solved twice: by
``sample_solutions`` (one midpoint factorization, refinement sweeps over the
stacked members, ``point_solve`` for the members whose sweeps fail) and one
member at a time by ``point_solve``.  One line per cell:

* ``batched_s``: the clock time of the ``sample_solutions`` call;
* ``per_member_s``: the clock time of the ``point_solve`` loop over the same
  members (their draws excluded);
* ``sweeps``: the refinement sweeps run (the largest over the chunks);
* ``fallbacks``: the members handed back to ``point_solve``;
* ``dev``: the largest relative deviation ``max|X - X_ref| / max|X_ref|``
  of a batched solution from the member's ``point_solve`` solution;
* ``rm_us`` and ``rm_stack_us``: the clock time per member of
  ``residual_membership``, called once per member and once on the stack of
  all members (microseconds, best of three passes);
* ``cp_us`` and ``cp_stack_us``: the same for ``IMatrix.contains_point`` on
  the members' hull.

Set the BLAS thread count in the environment for stable timings; from the
repository root::

    OPENBLAS_NUM_THREADS=1 python3 tools/audit_grid.py
    python3 tools/audit_grid.py --sizes 8,32 --alphas 1e-6 --samples 500
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import (  # noqa: E402
    FAMILIES,
    GenSpec,
    IMatrix,
    generate,
    point_solve,
    residual_membership,
    sample_solutions,
)
from sylvenc.baseline import (  # noqa: E402
    _member_chunks,
    _midpoint_solver,
    _refine_members,
)
from sylvenc.errors import SingularMatrixError  # noqa: E402

SAMPLES = {8: 200, 32: 40, 200: 10}
SEED = 1


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(SEED))


def cell(family: str, m: int, alpha: float, seed: int, samples: int) -> str:
    label = f"{family:<12} m={m:<4} alpha={alpha:<6g} k={samples:<4}"
    sys_ = generate(GenSpec(family=family, m=m, alpha=alpha, seed=seed))
    t0 = time.perf_counter()
    got = sample_solutions(sys_, samples, SEED)
    batched_s = time.perf_counter() - t0
    members = [
        [coef[i] for coef in chunk]
        for chunk in _member_chunks(sys_, samples, _rng(), "random")
        for i in range(len(chunk[0]))
    ]
    t0 = time.perf_counter()
    ref = []
    for member in members:
        try:
            ref.append(point_solve(*member))
        except SingularMatrixError:
            pass
    per_member_s = time.perf_counter() - t0
    solve = _midpoint_solver(sys_)
    sweeps = fallbacks = 0
    for chunk in _member_chunks(sys_, samples, _rng(), "random"):
        _, ok, run = _refine_members(solve, *chunk)
        sweeps, fallbacks = max(sweeps, run), fallbacks + int((~ok).sum())
    dev = max((np.abs(x - r).max() / np.abs(r).max() for x, r in zip(got, ref)), default=0.0)
    kept = "" if len(got) == len(ref) == samples else f" kept={len(got)}/{len(ref)}"
    return (
        f"{label} batched_s={batched_s:.4f} per_member_s={per_member_s:.4f} "
        f"sweeps={sweeps} fallbacks={fallbacks} dev={dev:.1e} {_check_costs(sys_, got)}{kept}"
    )


def _per_member_us(check, members: list[np.ndarray], stack: np.ndarray) -> tuple[float, float]:
    """Best-of-three microseconds per member of ``check``: one call each, and one stacked call."""
    one = stacked = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for x in members:
            check(x)
        t1 = time.perf_counter()
        check(stack)
        t2 = time.perf_counter()
        one, stacked = min(one, t1 - t0), min(stacked, t2 - t1)
    return 1e6 * one / len(members), 1e6 * stacked / len(members)


def _check_costs(sys_, members: list[np.ndarray]) -> str:
    """The per-member cost columns of the two membership checks."""
    if not members:
        return "rm_us=- rm_stack_us=- cp_us=- cp_stack_us=-"
    stack = np.stack(members)
    centre = 0.5 * (stack.max(axis=0) + stack.min(axis=0))
    # twice the spread, so that no member falls outside by rounding
    hull = IMatrix(centre, 2.0 * np.abs(stack - centre).max(axis=0))
    rm = _per_member_us(lambda x: residual_membership(sys_, x), members, stack)
    cp = _per_member_us(hull.contains_point, members, stack)
    return (
        f"rm_us={rm[0]:.1f} rm_stack_us={rm[1]:.1f} cp_us={cp[0]:.1f} cp_stack_us={cp[1]:.1f}"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default=",".join(FAMILIES))
    ap.add_argument("--sizes", type=_ints, default=sorted(SAMPLES))
    ap.add_argument("--alphas", type=_floats, default=[1e-6, 1e-2])
    ap.add_argument("--seed", type=int, default=0, help="generator seed of the systems")
    ap.add_argument("--samples", type=int, default=None, help="members per cell (default by m)")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    for family in args.families.split(","):
        for alpha in args.alphas:
            for m in args.sizes:
                k = args.samples if args.samples is not None else SAMPLES.get(m, 20)
                print(cell(family, m, alpha, args.seed, k), flush=True)


if __name__ == "__main__":
    main()
