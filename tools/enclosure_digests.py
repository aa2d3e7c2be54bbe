"""Print the sha256 of each enclosure's JSON on a fixed small corpus, and its width.

The corpus is the three families at m = 8 and m = 32, one system whose
midpoint A is defective (2x2 Jordan blocks), one whose midpoint pairs
(A, C) and (B, D) are distinct and non-scalar, so that each side weighs two
eigenbases for its donor, and kyc31 at m = 8 with A, B, C and D scaled by
2**260 and F by 2**520, which has the same member solutions and squares of
its denominators past the range of binary64.  Each system is solved by mkw,
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
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

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
        ("jordan-m16", defective_system()),
        ("commuting-m12", commuting_system()),
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


def main() -> None:
    for label, sys_ in corpus():
        for method, digest, radsum in digests(sys_):
            print(f"{label} {method} {digest} {radsum}")


if __name__ == "__main__":
    main()
