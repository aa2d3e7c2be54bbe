"""Print the sha256 of each enclosure's JSON on a fixed small corpus, and its width.

The corpus is the three families at m = 8 and m = 32; kyc31 and
sylvester32 at m = 100, where the eigenbases' conditioning weighs more in
the width than at m = 32 and ver refuses the size; one system whose
midpoint A is defective (2x2 Jordan blocks); one whose midpoint pairs
(A, C) and (B, D) are distinct and non-scalar, so that each side weighs two
eigenbases for its donor; one complex system with m = 5 and n = 3, which
pins the vec convention on a rectangular unknown; the complex ``A X + X B
= F`` of the same A, B and F, whose identity coefficients send each of
ver's coefficient pairs through one product with ``R`` on complex data; and
kyc31 at m = 8 with A, B, C and D scaled by 2**260 and F by 2**520, which
has the same member solutions and squares of its denominators past the
range of binary64.  Each system is solved by mkw,
itr (started from the mkw enclosure), blk and ver, and every result is
serialized with ``dump_json(enclosure_to_dict(enc))``.  A solve that raises
prints the error's class name instead of a digest.  After the digest each
line prints the radius sum of the enclosure, the ``repr`` of
``float(evaluated.rad.sum())``, or ``-`` when the solve did not verify or
raised, so a change that moves rounding can show its width ratios line by
line.  BLAS runs on one thread: ver's bytes depend on the thread count.

Two trees that print the same lines produce byte-identical enclosure JSON on
this corpus, which is how a change claiming "no behaviour change" shows it::

    python3 tools/enclosure_digests.py > after.txt
    (cd <other checkout> && python3 tools/enclosure_digests.py) > before.txt
    diff before.txt after.txt

A change that moves rounding or widths compares against such a file
instead::

    python3 tools/enclosure_digests.py --against before.txt

Each line then ends with its change against the line of the same system and
solver in ``before.txt``: ``=`` for the same digest, the relative change of
the radius sum (``%+.3e``) when both verified, ``lost`` or ``gained`` when
only one did, ``-`` when neither did, and ``new`` for a line ``before.txt``
lacks; a line of ``before.txt`` that the corpus no longer prints is reported
as ``missing``.  The tool exits 1 when a line got wider, lost verification
or went missing.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sylvenc import (  # noqa: E402
    GenSpec,
    IMatrix,
    SylvesterSystem,
    full_krawczyk_solve,
    generate,
    itr_solve,
    mkw_block_solve,
    mkw_solve,
)
from sylvenc.errors import EnclosureError  # noqa: E402
from sylvenc.serialize import dump_json, enclosure_to_dict  # noqa: E402


def defective_system(m: int = 16, seed: int = 0) -> SylvesterSystem:
    """``A X B + X = F`` with ``mid A = Q J Q^T``, ``J`` made of 2x2 Jordan blocks."""
    rng = np.random.Generator(np.random.Philox(seed))
    k = m // 2
    lam = np.linspace(1.0, 3.0, k)
    J = np.zeros((m, m))
    idx = np.arange(k)
    J[2 * idx, 2 * idx] = J[2 * idx + 1, 2 * idx + 1] = lam
    J[2 * idx, 2 * idx + 1] = 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    rad = np.full((m, m), 1e-8)
    eye = IMatrix(np.eye(m))
    return SylvesterSystem(
        A=IMatrix(Q @ J @ Q.T, rad),
        B=IMatrix(np.diag(rng.uniform(1.0, 2.0, m)), rad),
        C=eye,
        D=eye,
        F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
    )


def commuting_system(m: int = 12, seed: int = 0) -> SylvesterSystem:
    """``A X B + C X D = F`` with commuting, distinct, non-scalar midpoint pairs.

    ``mid A`` and ``mid B`` are diagonalizable with spectra in [1, 2],
    ``mid C = 0.5 I + 0.25 A + 0.125 A^2`` and ``mid D = 0.25 I + 0.5 B -
    0.0625 B^2``.
    """
    rng = np.random.Generator(np.random.Philox(seed))

    def diagonalizable() -> np.ndarray:
        p = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        return p @ np.diag(rng.uniform(1.0, 2.0, m)) @ np.linalg.inv(p)

    a, b = diagonalizable(), diagonalizable()
    eye = np.eye(m)
    c = 0.5 * eye + 0.25 * a + 0.125 * (a @ a)
    d = 0.25 * eye + 0.5 * b - 0.0625 * (b @ b)
    rad = np.full((m, m), 1e-8)
    return SylvesterSystem(
        A=IMatrix(a, rad),
        B=IMatrix(b, rad),
        C=IMatrix(c, rad),
        D=IMatrix(d, rad),
        F=IMatrix(rng.uniform(0.5, 1.5, (m, m)), rad),
    )


def rectangular_complex_system(m: int = 5, n: int = 3, seed: int = 0) -> SylvesterSystem:
    """``A X B + C X D = F`` with complex data and ``m != n``, so that the vec convention shows.

    ``mid A`` and ``mid B`` are complex diagonalizable with spectra around
    ``1.5 + 0.25i``, ``mid C = 0.5 I + 0.25 A`` and ``mid D = 0.25 I + 0.5 B``,
    and ``F`` is a complex ``m x n`` matrix.
    """
    rng = np.random.Generator(np.random.Philox(seed))

    def cnormal(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def diagonalizable(k: int) -> np.ndarray:
        p = cnormal(k, k) + 3.0 * np.eye(k)
        lam = rng.uniform(1.0, 2.0, k) + 1j * rng.uniform(0.0, 0.5, k)
        return p @ np.diag(lam) @ np.linalg.inv(p)

    a, b = diagonalizable(m), diagonalizable(n)
    c, d = 0.5 * np.eye(m) + 0.25 * a, 0.25 * np.eye(n) + 0.5 * b
    return SylvesterSystem(
        A=IMatrix(a, np.full((m, m), 1e-8)),
        B=IMatrix(b, np.full((n, n), 1e-8)),
        C=IMatrix(c, np.full((m, m), 1e-8)),
        D=IMatrix(d, np.full((n, n), 1e-8)),
        F=IMatrix(cnormal(m, n), np.full((m, n), 1e-8)),
    )


def one_sided_complex_system(m: int = 5, n: int = 3, seed: int = 0) -> SylvesterSystem:
    """``A X + X B = F`` with the complex A, B and F of :func:`rectangular_complex_system`."""
    base = rectangular_complex_system(m, n, seed)
    return SylvesterSystem(
        A=base.A, B=IMatrix(np.eye(n)), C=IMatrix(np.eye(m)), D=base.B, F=base.F
    )


def scaled_system(sys_: SylvesterSystem, s: float) -> SylvesterSystem:
    """``sys_`` with A, B, C and D times ``s`` and F times ``s**2``: the same member solutions."""

    def times(x: IMatrix, k: float) -> IMatrix:
        return IMatrix(x.mid * k, x.rad * k)

    return SylvesterSystem(
        A=times(sys_.A, s),
        B=times(sys_.B, s),
        C=times(sys_.C, s),
        D=times(sys_.D, s),
        F=times(sys_.F, s * s),
    )


def corpus() -> list[tuple[str, SylvesterSystem]]:
    systems = [
        (f"{family}-m{m}", generate(GenSpec(family=family, m=m)))
        for m in (8, 32)
        for family in ("kyc31", "sylvester32", "gallery33")
    ]
    return systems + [
        (f"{family}-m100", generate(GenSpec(family=family, m=100)))
        for family in ("kyc31", "sylvester32")
    ] + [
        ("jordan-m16", defective_system()),
        ("commuting-m12", commuting_system()),
        ("complex-m5n3", rectangular_complex_system()),
        ("complex-sylvester-m5n3", one_sided_complex_system()),
        ("kyc31-m8-x2e260", scaled_system(systems[0][1], 2.0**260)),
    ]


def digests(sys_: SylvesterSystem) -> list[tuple[str, str, str]]:
    out = []
    mkw = None
    solvers = (
        ("mkw", lambda: mkw_solve(sys_)),
        ("itr", lambda: itr_solve(sys_, initial=mkw)),
        ("blk", lambda: mkw_block_solve(sys_)),
        ("ver", lambda: full_krawczyk_solve(sys_)),
    )
    for name, solve in solvers:
        try:
            enc = solve()
        except (EnclosureError, ValueError) as exc:
            out.append((name, type(exc).__name__, "-"))
            continue
        if name == "mkw":
            mkw = enc
        text = dump_json(enclosure_to_dict(enc))
        radsum = repr(float(enc.evaluated.rad.sum())) if enc.verified else "-"
        out.append((name, hashlib.sha256(text.encode()).hexdigest(), radsum))
    return out


def change(before: tuple[str, str] | None, digest: str, radsum: str) -> tuple[str, bool]:
    """The change of one line against ``before`` (its digest and radius sum),
    and whether it is a regression: wider or no longer verified."""
    if before is None:
        return "new", False
    old_digest, old_radsum = before
    if old_digest == digest:
        return "=", False
    if old_radsum == "-":
        return ("-", False) if radsum == "-" else ("gained", False)
    if radsum == "-":
        return "lost", True
    rel = float(radsum) / float(old_radsum) - 1.0
    return f"{rel:+.3e}", rel > 0.0


def compare(before_lines: list[str], rows: list[tuple[str, ...]]) -> tuple[list[str], bool]:
    """The report lines of ``rows`` against the lines of an earlier run, and
    whether none regressed."""
    before = {}
    for line in before_lines:
        fields = line.split()
        if len(fields) >= 4:
            before[tuple(fields[:2])] = (fields[2], fields[3])
    out, ok = [], True
    for label, method, digest, radsum in rows:
        text, worse = change(before.pop((label, method), None), digest, radsum)
        out.append(f"{label} {method} {digest} {radsum} {text}")
        ok = ok and not worse
    for label, method in before:
        out.append(f"{label} {method} missing")
        ok = False
    return out, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE", help="earlier output to compare with")
    args = parser.parse_args(argv)
    rows = [
        (label, method, digest, radsum)
        for label, sys_ in corpus()
        for method, digest, radsum in digests(sys_)
    ]
    if args.against is None:
        for row in rows:
            print(" ".join(row))
        return 0
    with open(args.against) as fh:
        lines, ok = compare(fh.read().splitlines(), rows)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
