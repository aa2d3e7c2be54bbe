"""Benchmark driver: size sweeps, metrics, timing, and report rows.

Each (size, method) cell solves the same generated system; widths are
summarized by ``meanR`` (average radius of the evaluated enclosure) and by
``Ratio``, the radius sum relative to the diagonal Krawczyk method on the
identical system.  Timing is the median of three wall-clock runs.  Each
cell solves ``mkw`` first; when it verified, ``itr`` starts from its
enclosure (``itr_solve(..., initial=...)``), so ``itr``'s time is the
refinement alone and its enclosure is the one it computes from scratch.
Sampled member solutions audit every verified enclosure; a single escaped
sample is a soundness violation that aborts the whole run, because it would
falsify the library's core guarantee rather than merely degrade quality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baseline import BASELINE_CAP, _contained_counts, full_krawczyk_solve
from .blockdiag import mkw_block_solve
from .errors import EnclosureError, SizeCapError
from .intervals import IMatrix
from .krawczyk import Enclosure, mkw_solve
from .problems import GenSpec, generate
from .refine import MAX_ITER_DEFAULT, TOL_DEFAULT, itr_solve
from .serialize import dump_json

__all__ = [
    "METHOD_IDS",
    "BenchRecord",
    "SoundnessViolation",
    "compute_metrics",
    "retained_nbytes",
    "run_benchmark",
    "render_csv",
    "render_jsonl",
]

METHOD_IDS = ("mkw", "itr", "ver", "blk")
TIMING_REPEATS = 3


class SoundnessViolation(RuntimeError):
    """A sampled member solution escaped an enclosure reported as verified."""


@dataclass
class BenchRecord:
    family: str
    m: int
    n: int
    method: str
    time_s: float
    verified: bool
    meanR: float
    ratio_vs_mkw: float
    sample_containment_rate: float
    note: str = ""
    extra: dict = field(default_factory=dict, repr=False)


def compute_metrics(y: IMatrix | None, ref: IMatrix | None) -> tuple[float, float]:
    """(meanR, Ratio) of an evaluated enclosure against a reference.

    ``meanR`` is the radius sum divided by the entry count; ``Ratio`` divides
    the radius sums of the two enclosures.  Missing enclosures give NaN.
    """
    if y is None:
        return math.nan, math.nan
    meanr = float(y.rad.sum() / y.rad.size)
    if ref is None or ref.rad.sum() == 0.0:
        return meanr, math.nan
    return meanr, float(y.rad.sum() / ref.rad.sum())


def retained_nbytes(*objs) -> int:
    """Bytes of the distinct array buffers reachable from ``objs``, such as results.

    The walk follows tuples, lists, dict values and the attributes (instance
    dicts and slots) of this package's objects.  Each array counts by the
    buffer it views, once however many arrays view it, so a broadcast zero
    counts its one element.
    """
    seen, buffers = set(), {}
    stack = list(objs)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith(__package__ + "."):
            stack.extend(getattr(obj, "__dict__", {}).values())
            slots = (s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ()))
            stack.extend(getattr(obj, s) for s in slots if hasattr(obj, s))
    return sum(buffers.values())


def _solver(
    method: str, tol: float, max_iter: int, baseline_cap: int | None, start: Enclosure | None
):
    if method == "mkw":
        return lambda sys: mkw_solve(sys)
    if method == "itr":
        return lambda sys: itr_solve(sys, tol=tol, max_iter=max_iter, initial=start)
    if method == "ver":
        return lambda sys: full_krawczyk_solve(sys, cap=baseline_cap)
    if method == "blk":
        return lambda sys: mkw_block_solve(sys)
    raise ValueError(f"unknown method {method!r}")


def _timed(fn, sys) -> tuple[Enclosure | None, float, str]:
    """Median-of-three wall time; failures are not re-run."""
    t0 = time.perf_counter()
    try:
        enc = fn(sys)
    except SizeCapError:
        return None, math.nan, "size-cap"
    except EnclosureError as exc:
        return None, time.perf_counter() - t0, str(exc)
    times = [time.perf_counter() - t0]
    for _ in range(TIMING_REPEATS - 1):
        t0 = time.perf_counter()
        enc = fn(sys)
        times.append(time.perf_counter() - t0)
    return enc, float(np.median(times)), ""


def run_benchmark(
    family: str = "kyc31",
    sizes: tuple[int, ...] = (10,),
    alpha: float = 1e-6,
    seed: int = 0,
    methods: tuple[str, ...] = ("mkw", "itr"),
    samples: int = 100,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    baseline_cap: int | None = BASELINE_CAP,
) -> tuple[int, list[BenchRecord]]:
    """Run the sweep; returns (exit code, records).

    Exit code 0 on full success, 2 when any requested solve failed to verify
    (size-cap rows are expected and do not count), and the run raises
    ``SoundnessViolation`` instead of returning when containment fails.
    """
    for method in methods:
        if method not in METHOD_IDS:
            raise ValueError(f"unknown method {method!r}")
    records: list[BenchRecord] = []
    any_failed = False
    for m in sizes:
        spec = GenSpec(family=family, m=m, alpha=alpha, seed=seed)
        sys = generate(spec)
        start: Enclosure | None = None  # verified mkw: width reference and itr's start
        encs: dict[str, Enclosure | None] = {}
        times: dict[str, float] = {}
        notes: dict[str, str] = {}
        for method in sorted(methods, key=lambda name: name != "mkw"):
            enc, t, note = _timed(_solver(method, tol, max_iter, baseline_cap, start), sys)
            encs[method], times[method], notes[method] = enc, t, note
            if method == "mkw" and enc is not None and enc.verified:
                start = enc
        # every enclosure is audited in one pass over the sampled members, chunk by
        # chunk; the sampling stream is decoupled from the generation stream
        boxes = {
            m: e.evaluated for m, e in encs.items() if e is not None and e.evaluated is not None
        }
        inside, total = {}, 0
        if samples > 0 and boxes:
            counts, total = _contained_counts(sys, list(boxes.values()), samples, seed + 1)
            inside = dict(zip(boxes, counts))
        for method in methods:
            enc = encs[method]
            verified = bool(enc is not None and enc.verified)
            evaluated = enc.evaluated if enc is not None else None
            meanr, ratio = compute_metrics(evaluated, None if start is None else start.evaluated)
            rate = math.nan
            if method in inside and total:
                rate = inside[method] / total
                if verified and inside[method] != total:
                    raise SoundnessViolation(
                        f"sample escaped verified {method} enclosure at m={m}"
                    )
            note = notes[method]
            if enc is not None and not verified and not note:
                note = enc.message
            if not verified and note != "size-cap":
                any_failed = True
            records.append(
                BenchRecord(
                    family=family,
                    m=m,
                    n=spec.ncols,
                    method=method,
                    time_s=times[method],
                    verified=verified,
                    meanR=meanr,
                    ratio_vs_mkw=ratio,
                    sample_containment_rate=rate,
                    note=note,
                )
            )
    return (2 if any_failed else 0), records


def _fmt(v: float) -> str:
    return "NA" if isinstance(v, float) and math.isnan(v) else repr(v)


def render_csv(records: list[BenchRecord], methods: tuple[str, ...]) -> str:
    """Wide layout: one row per size, method-suffixed metric columns."""
    cols = ["family", "m", "n"]
    for meth in methods:
        cols += [
            f"time_{meth}",
            f"ratio_{meth}",
            f"verified_{meth}",
            f"contain_{meth}",
            f"note_{meth}",
        ]
    lines = [",".join(cols)]
    by_size: dict[tuple[int, int], dict[str, BenchRecord]] = {}
    for rec in records:
        by_size.setdefault((rec.m, rec.n), {})[rec.method] = rec
    for (m, n), group in by_size.items():
        some = next(iter(group.values()))
        row = [some.family, str(m), str(n)]
        for meth in methods:
            rec = group.get(meth)
            if rec is None:
                row += ["NA", "NA", "NA", "NA", ""]
            else:
                row += [
                    _fmt(rec.time_s),
                    _fmt(rec.ratio_vs_mkw),
                    str(rec.verified).lower(),
                    _fmt(rec.sample_containment_rate),
                    rec.note,
                ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_jsonl(records: list[BenchRecord]) -> str:
    """One record per line; NaN metrics become nulls for valid JSON."""
    lines = []
    for rec in records:
        d = {
            "family": rec.family,
            "m": rec.m,
            "n": rec.n,
            "method": rec.method,
            "time_s": None if math.isnan(rec.time_s) else rec.time_s,
            "verified": rec.verified,
            "meanR": None if math.isnan(rec.meanR) else rec.meanR,
            "ratio_vs_mkw": None if math.isnan(rec.ratio_vs_mkw) else rec.ratio_vs_mkw,
            "sample_containment_rate": (
                None
                if math.isnan(rec.sample_containment_rate)
                else rec.sample_containment_rate
            ),
            "note": rec.note,
        }
        lines.append(dump_json(d))
    return "\n".join(lines) + ("\n" if lines else "")
