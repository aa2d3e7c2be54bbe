"""JSON forms for interval matrices, systems, and enclosure results.

Interval matrices serialize as ``{"rows", "cols", "mid_re", "mid_im",
"rad"}`` with ``mid_im`` omitted for real data; ``{"inf", "sup"}`` input is
also accepted and converted outward.  Floats are emitted via the shortest
round-trip representation, and keys are written sorted, so equal values
always produce byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any, IO

import numpy as np

from .intervals import IMatrix
from .krawczyk import Enclosure
from .system import SylvesterSystem

__all__ = [
    "imatrix_to_dict",
    "imatrix_from_dict",
    "pmatrix_to_dict",
    "pmatrix_from_dict",
    "system_to_dict",
    "system_from_dict",
    "enclosure_to_dict",
    "enclosure_from_dict",
    "dump_json",
    "load_json",
]


def _grid(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def imatrix_to_dict(x: IMatrix) -> dict[str, Any]:
    d: dict[str, Any] = {
        "rows": x.rows,
        "cols": x.cols,
        "mid_re": _grid(x.mid.real),
        "rad": _grid(x.rad),
    }
    if not x.is_real:
        d["mid_im"] = _grid(x.mid.imag)
    return d


def _array(grid, d: dict[str, Any]) -> np.ndarray:
    """``grid`` as floats; ``[]``, what a matrix without rows writes, takes the declared shape."""
    a = np.asarray(grid, dtype=np.float64)
    return a.reshape(d["rows"], d["cols"]) if a.size == 0 and "rows" in d and "cols" in d else a


def _parts(re, im, d: dict[str, Any]) -> np.ndarray:
    """The array with real part ``re`` and, unless it is None, imaginary part ``im``."""
    re = _array(re, d)
    if im is None:
        return re
    im = _array(im, d)
    if im.shape != re.shape:
        raise ValueError("dimension mismatch between real and imaginary parts")
    return re + 1j * im


def _check_declared(shape: tuple[int, ...], d: dict[str, Any]) -> None:
    """Raise unless ``shape`` is the ``rows`` x ``cols`` that ``d`` declares, where it does."""
    if len(shape) != 2 or shape != (d.get("rows", shape[0]), d.get("cols", shape[1])):
        raise ValueError("dimension mismatch between declared and actual shape")


def imatrix_from_dict(d: dict[str, Any]) -> IMatrix:
    if "inf" in d or "sup" in d:
        x = IMatrix.from_infsup(_array(d["inf"], d), _array(d["sup"], d))
    else:
        mid = _parts(d["mid_re"], d.get("mid_im"), d)
        x = IMatrix(mid, _array(d["rad"], d) if "rad" in d else np.zeros(mid.shape))
    _check_declared(x.shape, d)
    return x


def pmatrix_to_dict(a: np.ndarray) -> dict[str, Any]:
    a = np.atleast_2d(np.asarray(a))
    d: dict[str, Any] = {"rows": a.shape[0], "cols": a.shape[1], "re": _grid(a.real)}
    if np.iscomplexobj(a) and np.any(a.imag):
        d["im"] = _grid(a.imag)
    return d


def pmatrix_from_dict(d: dict[str, Any]) -> np.ndarray:
    a = _parts(d["re"], d.get("im"), d)
    _check_declared(a.shape, d)
    return a


def system_to_dict(sys: SylvesterSystem) -> dict[str, Any]:
    return {k: imatrix_to_dict(getattr(sys, k)) for k in ("A", "B", "C", "D", "F")}


def system_from_dict(d: dict[str, Any]) -> SylvesterSystem:
    return SylvesterSystem(**{k: imatrix_from_dict(d[k]) for k in ("A", "B", "C", "D", "F")})


def enclosure_to_dict(enc: Enclosure) -> dict[str, Any]:
    """Factored form plus the evaluated box (internals are not serialized)."""
    return {
        "method": enc.method,
        "verified": enc.verified,
        "iterations": enc.iterations,
        "message": enc.message,
        "Xtilde": pmatrix_to_dict(enc.Xtilde),
        "U": pmatrix_to_dict(enc.U),
        "Vinv": pmatrix_to_dict(enc.Vinv),
        "Xbox": imatrix_to_dict(enc.Xbox) if enc.Xbox is not None else None,
        "Hbox": imatrix_to_dict(enc.Hbox) if enc.Hbox is not None else None,
        "evaluated": imatrix_to_dict(enc.evaluated) if enc.evaluated is not None else None,
    }


def enclosure_from_dict(d: dict[str, Any]) -> Enclosure:
    def opt(key: str) -> IMatrix | None:
        return imatrix_from_dict(d[key]) if d.get(key) is not None else None

    return Enclosure(
        Xtilde=pmatrix_from_dict(d["Xtilde"]),
        Xbox=opt("Xbox"),
        U=pmatrix_from_dict(d["U"]),
        Vinv=pmatrix_from_dict(d["Vinv"]),
        evaluated=opt("evaluated"),
        verified=bool(d["verified"]),
        iterations=int(d["iterations"]),
        method=d.get("method", "mkw"),
        message=d.get("message", ""),
        Hbox=opt("Hbox"),
    )


def dump_json(obj: dict[str, Any], fp: IO[str] | None = None) -> str:
    """Deterministic serialization: sorted keys, compact separators."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if fp is not None:
        fp.write(text)
        fp.write("\n")
    return text


def load_json(fp: IO[str] | str) -> dict[str, Any]:
    if isinstance(fp, str):
        return json.loads(fp)
    return json.load(fp)
