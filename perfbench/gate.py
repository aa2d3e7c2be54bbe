"""Correctness gate and enclosure digests.

The gate runs outside the timed region.  It re-checks every audit of a pass
with the benchmark's own arithmetic, so that a defect in the library's audit
functions cannot hide an escaped member solution, and it raises
``GateError`` on the first violation; the benchmark then exits nonzero
without printing a result.
"""

from __future__ import annotations

import hashlib

import numpy as np

from sylvenc import dump_json, enclosure_to_dict


class GateError(RuntimeError):
    """A verified enclosure failed a correctness check."""


def escaped_entries(box, x: np.ndarray) -> int:
    """Number of entries of the point ``x`` outside the interval matrix ``box``."""
    x = np.asarray(x)
    if x.shape != box.mid.shape:
        raise GateError(f"member shape {x.shape} does not match enclosure {box.mid.shape}")
    return int(np.count_nonzero(~(np.abs(x - box.mid) <= box.rad)))


def check_request(label: str, encs: dict, members: list, contains: dict, residual_ok: list) -> None:
    """Every member passes the residual test and lies in every verified enclosure.

    ``encs`` maps solver names to the request's enclosures, ``contains`` the
    same names to the library's ``contains_point`` answers (one per member),
    and ``residual_ok`` holds the ``residual_membership`` answers.
    """
    if len(residual_ok) != len(members):
        raise GateError(f"{label}: {len(residual_ok)} residual audits for {len(members)} members")
    for k, ok in enumerate(residual_ok):
        if not ok:
            raise GateError(f"{label}: residual_membership rejected member {k}")
    for name, enc in encs.items():
        if not enc.verified:
            continue
        answers = contains.get(name, [])
        if len(answers) != len(members):
            raise GateError(f"{label}: {len(answers)} {name} containment audits for {len(members)} members")
        for k, x in enumerate(members):
            bad = escaped_entries(enc.evaluated, x)
            if bad:
                raise GateError(f"{label}: member {k} escapes the {name} enclosure in {bad} entries")
            if not answers[k]:
                raise GateError(f"{label}: contains_point rejected member {k} of the {name} enclosure")


def fingerprint(enc) -> str:
    """sha256 over the exact bytes of every field ``enclosure_to_dict`` writes.

    Equal fingerprints imply byte-identical ``dump_json(enclosure_to_dict(enc))``;
    they cost milliseconds where the JSON text of an m = 400 enclosure costs
    seconds.
    """
    h = hashlib.sha256()
    h.update(repr((enc.method, enc.verified, enc.iterations, enc.message)).encode())
    arrays = [enc.Xtilde, enc.U, enc.Vinv]
    for box in (enc.Xbox, enc.Hbox, enc.evaluated):
        arrays += [None, None] if box is None else [box.mid, box.rad]
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.view(np.uint8).ravel())
    return h.hexdigest()


def json_digest(enc) -> str:
    """sha256 of the deterministic JSON document of the enclosure."""
    return hashlib.sha256(dump_json(enclosure_to_dict(enc)).encode()).hexdigest()
