"""Command-line interface.

Subcommands: ``gen`` (emit a family system as JSON), ``solve`` (run one
method on a system file), ``check`` (audit an enclosure file against
sampled member solutions), and ``bench`` (size sweep with CSV/JSONL
reports).  Exit codes: 0 success, 2 a verification failed somewhere, 3 a
soundness violation (a sample escaped an enclosure claimed verified).
"""

from __future__ import annotations

import argparse
import sys as _sys

from .baseline import BASELINE_CAP, _contained_counts
from .bench import METHOD_IDS, SoundnessViolation, _solver, render_csv, render_jsonl, run_benchmark
from .errors import EnclosureError
from .problems import FAMILIES, GenSpec, generate
from .refine import MAX_ITER_DEFAULT, TOL_DEFAULT
from .serialize import (
    dump_json,
    enclosure_from_dict,
    enclosure_to_dict,
    load_json,
    system_from_dict,
    system_to_dict,
)

__all__ = ["main", "build_parser"]


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        _sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return load_json(fh)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sylvenc",
        description="Verified enclosures for interval generalized Sylvester equations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family system as JSON")
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--alpha", type=float, default=1e-6)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", default=None)

    s = sub.add_parser("solve", help="solve a system file with one method")
    s.add_argument("--input", required=True)
    s.add_argument("--method", choices=METHOD_IDS, default="mkw")
    s.add_argument("--tol", type=float, default=TOL_DEFAULT)
    s.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)
    s.add_argument("--baseline-cap", type=int, default=BASELINE_CAP)
    s.add_argument("--output", default=None)

    c = sub.add_parser("check", help="audit an enclosure against sampled solutions")
    c.add_argument("--input", required=True)
    c.add_argument("--enclosure", required=True)
    c.add_argument("--samples", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("bench", help="size sweep over selected methods")
    b.add_argument("--family", choices=FAMILIES, default="kyc31")
    b.add_argument("--sizes", default="10")
    b.add_argument("--alpha", type=float, default=1e-6)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--methods", default="mkw,itr")
    b.add_argument("--samples", type=int, default=100)
    b.add_argument("--tol", type=float, default=TOL_DEFAULT)
    b.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)
    b.add_argument("--baseline-cap", type=int, default=BASELINE_CAP)
    b.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    b.add_argument("--output", default=None)
    return p


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(family=args.family, m=args.m, n=args.n, alpha=args.alpha, seed=args.seed)
    _write_output(dump_json(system_to_dict(generate(spec))), args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    system = system_from_dict(_load_file(args.input))
    solve = _solver(args.method, args.tol, args.max_iter, args.baseline_cap, None)
    try:
        enc = solve(system)
    except EnclosureError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    _write_output(dump_json(enclosure_to_dict(enc)), args.output)
    return 0 if enc.verified else 2


def _cmd_check(args: argparse.Namespace) -> int:
    system = system_from_dict(_load_file(args.input))
    enc = enclosure_from_dict(_load_file(args.enclosure))
    if enc.evaluated is None:
        _sys.stdout.write("enclosure is not verified; nothing to check\n")
        return 2
    if enc.evaluated.shape != system.F.shape:
        m, n = enc.evaluated.shape
        _sys.stderr.write(
            f"error: the enclosure is {m} x {n}, the system's solution {system.m} x {system.n}\n"
        )
        return 2
    if args.samples < 1:
        _sys.stderr.write("error: --samples must be at least 1\n")
        return 2
    (inside,), total = _contained_counts(system, [enc.evaluated], args.samples, args.seed)
    if not total:
        # every sampled member was singular: a pass on nothing checked is no pass
        _sys.stderr.write("error: no member solution to check (all sampled members singular)\n")
        return 2
    _sys.stdout.write(f"contained {inside}/{total} sampled member solutions\n")
    if inside == total:
        return 0
    return 3 if enc.verified else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    try:
        code, records = run_benchmark(
            family=args.family,
            sizes=sizes,
            alpha=args.alpha,
            seed=args.seed,
            methods=methods,
            samples=args.samples,
            tol=args.tol,
            max_iter=args.max_iter,
            baseline_cap=args.baseline_cap,
        )
    except SoundnessViolation as exc:
        _sys.stderr.write(f"soundness violation: {exc}\n")
        return 3
    text = render_csv(records, methods) if args.format == "csv" else render_jsonl(records)
    _write_output(text, args.output)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "check": _cmd_check,
        "bench": _cmd_bench,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
