"""Print the sha256 of each enclosure's JSON on a fixed small corpus, and its width.

The corpus is the three families at m = 8 and m = 32 plus one system whose
midpoint A is defective (2x2 Jordan blocks).  Each system is solved by mkw,
itr (started from the mkw enclosure), blk and ver, and every result is
serialized with ``dump_json(enclosure_to_dict(enc))``.  A solve that raises
prints the error's class name instead of a digest.  After the digest each
line prints the radius sum of the enclosure, the ``repr`` of
``float(evaluated.rad.sum())``, or ``-`` when the solve did not verify or
raised, so a change that moves rounding can show its width ratios line by
line.

Two trees that print the same lines produce byte-identical enclosure JSON on
this corpus, which is how a change claiming "no behaviour change" shows it::

    python3 tools/enclosure_digests.py > after.txt
    (cd <other checkout> && python3 tools/enclosure_digests.py) > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

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


def corpus() -> list[tuple[str, SylvesterSystem]]:
    systems = [
        (f"{family}-m{m}", generate(GenSpec(family=family, m=m)))
        for m in (8, 32)
        for family in ("kyc31", "sylvester32", "gallery33")
    ]
    return systems + [("jordan-m16", defective_system())]


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
