"""Benchmark of sylvenc: time to a verified enclosure, its width, and audit cost.

Usage, from the repository root::

    python3 perfbench/run.py --workload diag-400 --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory.  One process
runs one workload: it sets up the workload's requests (several times, for
the set-up time), draws the audit members, then repeats timed passes over
all requests for ``--seconds`` seconds.  A pass runs each request's solver
calls and its audits (``sample_solutions``, ``contains_point``,
``residual_membership``).  After every pass, outside the timed region, the
correctness gate re-checks each verified enclosure against each member and
checks that the pass reproduced the first pass's enclosures bit for bit.
Times are in reference seconds: each request's clock time is scaled by the
host-speed kernel of ``hostspeed.py``, timed just before the request.

``--trace 1`` alternates untraced passes with passes traced per layer
(``tracer.py``) and reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is the result object; the line
before it is a report with the environment, the per-request outcomes,
quartiles and digests.  See ``README.md`` in this directory for the metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads per workload.  At m <= 48 a threaded BLAS call costs more in
# synchronisation than it saves, and a spinning worker thread on a shared
# host makes pass times jump; the m = 400 products gain from every CPU.
BLAS_THREADS = {"diag-400": NPROC, "block-defective": 1, "audit-small": 1}
# dense products in the host-speed kernel: none where the work is small calls
CALIBRATION_GEMMS = {"diag-400": 3, "block-defective": 0, "audit-small": 3}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


ARGS = parse_args(sys.argv[1:])
# BLAS reads its thread count when numpy loads, so this precedes every numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS[ARGS.workload])
if not (SRC / "sylvenc" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library sources at {SRC / 'sylvenc'}")
sys.path.insert(0, str(SRC))

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sylvenc  # noqa: E402

if SRC not in Path(sylvenc.__file__).resolve().parents:
    sys.exit(f"perfbench: imported sylvenc from {sylvenc.__file__}, not from {SRC}")

import gate  # noqa: E402
import workloads as W  # noqa: E402
from hostspeed import Calibration  # noqa: E402
from tracer import LAYERS, LayerStats, Tracer  # noqa: E402

if not set(BLAS_THREADS) == set(CALIBRATION_GEMMS) == set(W.WORKLOADS):
    sys.exit("perfbench: the per-workload tables do not name the same workloads")
T_IMPORTED = time.perf_counter()

SETUP_REPEATS = 3
IMPORT_PROBES = 5
# the imports of this script, timed in a fresh interpreter
IMPORT_PROBE = """import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {here!r}]
import numpy, scipy, sylvenc, gate, workloads, tracer, hostspeed
print(time.perf_counter() - t0)
"""
SOLVERS = ("mkw", "itr", "blk", "ver")
# solver entry points: their inclusive time is the whole solve, so the
# inclusive ranking leaves them out
ENTRY_LAYERS = {"krawczyk.mkw_solve", "refine.itr_solve", "blockdiag.mkw_block_solve",
                "baseline.full_krawczyk_solve"}


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def import_seconds(calibration: Calibration) -> list:
    """Import times of ``IMPORT_PROBES`` fresh interpreters, one after another.

    Each is in reference seconds, scaled by a kernel run just before it.
    """
    code = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    out = []
    for _ in range(IMPORT_PROBES):
        scale = calibration.scale()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        out.append(float(proc.stdout) * scale)
    return out


def geomean(values: list) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


@dataclass
class Outcome:
    """One request in one pass."""

    encs: dict = field(default_factory=dict)  # solver -> Enclosure
    errors: dict = field(default_factory=dict)  # solver -> message of a raised EnclosureError
    members: list = field(default_factory=list)
    contains: dict = field(default_factory=dict)  # solver -> contains_point answers
    residual_ok: list = field(default_factory=list)


@dataclass
class PassResult:
    """Times of one pass, in reference seconds (``hostspeed``), and its outcomes."""

    wall_s: float
    times: dict
    outcomes: list
    raw_wall_s: float  # wall_s as the clock read it


class Runner:
    def __init__(self, workload: W.Workload, seed: int, tracer: Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.corpus = []
        self.members = []
        self.calibration = Calibration(CALIBRATION_GEMMS[workload.name])
        self.calibration()  # warm-up

    def setup(self) -> tuple[float, float]:
        """Build the relabeled corpus and make one warm-up solve.

        Returns the seconds it took and the host-speed scale measured before it.
        """
        scale = self.calibration.scale()
        t0 = time.perf_counter()
        self.corpus = W.build_corpus(self.workload, self.seed)
        # the workload's main solver; mkw fails in milliseconds on the fallback corpus
        warmup = sylvenc.mkw_block_solve if self.workload.plan == W.PLAN_FALLBACK else sylvenc.mkw_solve
        warmup(self.corpus[0])
        return time.perf_counter() - t0, scale

    def draw_members(self) -> None:
        """Members the passes audit, for workloads that draw them before timing."""
        kind = self.workload.members
        self.members = []
        for i, (spec, sys_) in enumerate(zip(self.workload.specs, self.corpus)):
            if kind == W.MEMBERS_OWN:
                pts = [
                    W.member_solution(*W.draw_member(sys_, W.stream(self.seed, 1, i, k)))
                    for k in range(spec.samples)
                ]
            elif kind == W.MEMBERS_PRE:
                pts = sylvenc.sample_solutions(sys_, spec.samples, W.stream_int(self.seed, 1, i))
            else:
                pts = None
            self.members.append(pts)

    def run_pass(self, tag: str) -> PassResult:
        """One timed sweep over every request: solver calls, then audits.

        The calibration kernel runs, untimed, before each request; the
        request's times enter the pass scaled to reference seconds.
        """
        times = dict.fromkeys(("mkw_s", "itr_s", "blk_s", "ver_s", "audit_s"), 0.0)
        wall_s = raw_wall_s = 0.0
        scale = 1.0

        def timed(key, fn, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += (time.perf_counter() - t0) * scale

        def solve(out, name, fn, *args, **kwargs):
            try:
                out.encs[name] = timed(f"{name}_s", fn, *args, **kwargs)
            except sylvenc.EnclosureError as exc:
                out.errors[name] = f"{type(exc).__name__}: {exc}"

        plan = self.workload.plan
        outcomes = []
        for i, (spec, sys_) in enumerate(zip(self.workload.specs, self.corpus)):
            if self.tracer is not None:
                self.tracer.request = f"{tag}/{spec.label}"
            scale = self.calibration.scale()
            t_request = time.perf_counter()
            out = Outcome()
            # library functions are looked up at call time so a traced run sees them
            solve(out, "mkw", sylvenc.mkw_solve, sys_)
            mkw_ok = "mkw" in out.encs and out.encs["mkw"].verified
            if plan == W.PLAN_FALLBACK and not mkw_ok:
                solve(out, "blk", sylvenc.mkw_block_solve, sys_)
            if plan in (W.PLAN_REFINE, W.PLAN_ORACLE) and mkw_ok:
                solve(out, "itr", sylvenc.itr_solve, sys_, initial=out.encs["mkw"])
            if plan == W.PLAN_ORACLE:
                solve(out, "ver", sylvenc.full_krawczyk_solve, sys_)
            if self.members[i] is None:
                seed = W.stream_int(self.seed, 1, i)
                out.members = timed("audit_s", sylvenc.sample_solutions, sys_, spec.samples, seed)
            else:
                out.members = self.members[i]
            for name, enc in out.encs.items():
                if enc.verified:
                    box = enc.evaluated
                    out.contains[name] = [timed("audit_s", box.contains_point, x) for x in out.members]
            out.residual_ok = [
                timed("audit_s", sylvenc.residual_membership, sys_, x) for x in out.members
            ]
            raw = time.perf_counter() - t_request
            wall_s += raw * scale
            raw_wall_s += raw
            outcomes.append(out)
        return PassResult(wall_s, times, outcomes, raw_wall_s)


def request_verified(plan: str, out: Outcome) -> bool:
    """Whether the request ended with the verified enclosure(s) its plan asks for."""
    if plan == W.PLAN_FALLBACK:
        return any(e.verified for e in out.encs.values())
    wanted = {"mkw", "itr"} | ({"ver"} if plan == W.PLAN_ORACLE else set())
    return set(out.encs) == wanted and all(e.verified for e in out.encs.values())


def check_pass(workload: W.Workload, res: PassResult, reference: list | None) -> list:
    """Gate one pass; returns its per-request records (outcomes, widths, fingerprints)."""
    records = []
    for spec, out in zip(workload.specs, res.outcomes):
        gate.check_request(spec.label, out.encs, out.members, out.contains, out.residual_ok)
        solvers = {
            name: {
                "verified": bool(enc.verified),
                "iterations": int(enc.iterations),
                "meanR": float(enc.evaluated.rad.mean()) if enc.verified else None,
                "fingerprint": gate.fingerprint(enc),
            }
            for name, enc in out.encs.items()
        }
        solvers.update({name: {"verified": False, "error": msg} for name, msg in out.errors.items()})
        records.append({
            "request": spec.label,
            "expect_verified": spec.expect_verified,
            "verified": request_verified(workload.plan, out),
            "solvers": solvers,
        })
    if reference is not None and records != reference:
        raise gate.GateError("a pass produced enclosures that differ from the first pass")
    return records


def widths(records: list, solver: str | None = None) -> list:
    return [
        s["meanR"]
        for rec in records
        for name, s in rec["solvers"].items()
        if s.get("meanR") is not None and solver in (None, name)
    ]


def layer_metrics(stats: dict) -> dict:
    """Per-layer values of one traced pass (see README.md for the names)."""
    out = {}
    for mod, attr in LAYERS:
        name = f"{mod}.{attr}"
        st = stats.get(name, LayerStats())
        out[f"{name}.calls"] = st.calls
        out[f"{name}.s"] = st.self_s
        if name in ("linalg.eig_decompose", "linalg.lu_solve"):
            out[f"{name}.distinct_frac"] = len(st.inputs) / st.calls if st.calls else 0.0
        elif name == "intervals.im_matmul":
            out[f"{name}.gflop"] = st.flops / 1e9
        elif name == "krawczyk.verification_loop":
            out[f"{name}.verified_frac"] = st.verified / st.calls if st.calls else 0.0
        elif name == "baseline.sample_solutions":
            out[f"{name}.kept_frac"] = st.kept / st.requested if st.requested else 0.0
    return out


def dominance(layer_rows: list, incl_rows: list, top: int = 6) -> dict:
    """Layers ranked by median self time and by median inclusive time per traced pass."""
    self_s = {
        name[: -len(".s")]: statistics.median(r[name] for r in layer_rows)
        for name in layer_rows[0]
        if name.endswith(".s") and name != "problems.generate.s"
    }
    incl_s = {
        name: statistics.median(r.get(name, 0.0) for r in incl_rows)
        for name in set().union(*incl_rows) - ENTRY_LAYERS
    }
    by_module: dict = {}
    for name, v in self_s.items():
        by_module[name.split(".")[0]] = by_module.get(name.split(".")[0], 0.0) + v

    def ranked(d: dict) -> list:
        return sorted(d.items(), key=lambda kv: -kv[1])

    return {
        "dominant_layer": ranked(self_s)[0][0],
        "top_self_s": ranked(self_s)[:top],
        "top_incl_s": ranked(incl_s)[:top],
        "self_s_by_module": dict(ranked(by_module)),
    }


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": NPROC,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "seed": seed,
    }


def main(args) -> int:
    workload = W.WORKLOADS[args.workload]
    # widening from a far-from-commuting pair is part of what meanR measures
    warnings.filterwarnings("ignore", message="pair is far from commuting", category=UserWarning)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    runner = Runner(workload, args.seed, tracer)
    setup_runs = [runner.setup() for _ in range(SETUP_REPEATS)]
    setup_scales = [scale for _, scale in setup_runs]
    setup_raw = [t for t, _ in setup_runs]
    setup_stats = tracer.take_stats() if tracer is not None else {}
    if tracer is not None:
        tracer.active = False
    # one import per process, so fresh interpreters give the repeats
    import_runs = import_seconds(runner.calibration)
    setup_s = statistics.median(import_runs) + statistics.median(t * scale for t, scale in setup_runs)

    t0 = time.perf_counter()
    runner.draw_members()
    members_s = time.perf_counter() - t0

    plain, traced, layer_rows, incl_rows = [], [], [], []
    reference = last = None
    t_begin = time.perf_counter()
    k = 0
    try:
        while True:
            is_traced = tracer is not None and k % 2 == 1
            res = last = None  # release the previous pass before the next one allocates
            if is_traced:
                tracer.active = True
            res = runner.run_pass(f"pass{k}")
            if is_traced:
                tracer.active = False
                stats = tracer.take_stats()
                layer_rows.append(layer_metrics(stats))
                incl_rows.append({name: st.incl_s for name, st in stats.items()})
            records = check_pass(workload, res, reference)
            reference = reference or records
            # timings only: holding every pass's enclosures would tie peak_rss_mb to the pass count
            (traced if is_traced else plain).append(PassResult(res.wall_s, res.times, [], res.raw_wall_s))
            last = res
            k += 1
            if time.perf_counter() - t_begin >= args.seconds and (tracer is None or k >= 2):
                break
    except gate.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    requests = len(workload.specs)
    unexpected = [r["request"] for r in reference if r["expect_verified"] and not r["verified"]]
    failed_frac = sum(not r["verified"] for r in reference) / requests
    timing = {key: summary([p.times[key] for p in plain]) for key in plain[0].times}
    timing["wall_s"] = summary([p.wall_s for p in plain])
    timing["raw_wall_s"] = summary([p.raw_wall_s for p in plain])
    timing["solve_s"] = summary([sum(p.times[f"{s}_s"] for s in SOLVERS) for p in plain])
    report = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup": {
            "import_s": T_IMPORTED - T_START,
            "import_probes_ref_s": import_runs,
            "repeats_s": setup_raw,
            "scales": setup_scales,
            "members_s": members_s,
        },
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "timing": timing,
        "requests": reference,
        "known_failures": [s.label for s in workload.specs if not s.expect_verified],
        "unexpected_failures": unexpected,
        "failed_frac": failed_frac,
    }

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (timing["wall_s"]["median"], "s"),
            "solve_s": (timing["solve_s"]["median"], "s"),
            "audit_s": (timing["audit_s"]["median"], "s"),
            "meanR": (geomean(widths(reference)), "1"),
            "verified_frac": (1.0 - failed_frac, "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.uninstall()
        # the gate made every pass bit-identical to the first, traced or not,
        # so one set of JSON digests stands for all of them
        for rec, out in zip(reference, last.outcomes):
            for name, enc in out.encs.items():
                rec["solvers"][name]["json_sha256"] = gate.json_digest(enc)
        units = {"calls": "count", "s": "s", "gflop": "GFLOP"}
        metrics = {
            name: (statistics.median(r[name] for r in layer_rows), units.get(name.rsplit(".", 1)[1], "1"))
            for name in layer_rows[0]
        }
        gen = setup_stats.get("problems.generate", LayerStats())
        metrics["problems.generate.calls"] = (gen.calls // SETUP_REPEATS, "count")
        metrics["problems.generate.s"] = (gen.self_s / SETUP_REPEATS, "s")
        for s in SOLVERS:
            metrics[f"{s}_s"] = (timing[f"{s}_s"]["median"], "s")
        for s in SOLVERS:
            metrics[f"meanR.{s}"] = (geomean(widths(reference, s)), "1")
        metrics["failed_frac"] = (failed_frac, "1")
        overhead = statistics.median(p.wall_s for p in traced) / timing["wall_s"]["median"] - 1.0
        metrics["trace.overhead_frac"] = (overhead, "1")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["trace"] = {
            "overhead_frac": overhead,
            **dominance(layer_rows, incl_rows),
            "spans_file": str(spans_path.relative_to(HERE.parent)),
        }

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": True,
        "attempted": requests * k,
        "failed": len(unexpected) * k,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
