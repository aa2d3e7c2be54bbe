"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``sylvenc`` module that holds a reference to it, because the solvers
call their helpers through module globals (``mkw_solve`` finds
``compute_N`` in ``sylvenc.krawczyk`` and ``eig_decompose`` in
``sylvenc.precond``).  Wrappers record spans only while ``active`` is set;
spans stay in memory until ``write_spans``.

Self time of a span is its duration minus the time covered by its child
spans.  Besides calls and time, a few layers count what they work on:
``eig_decompose`` and ``lu_solve`` hash their input matrix (distinct inputs
per call), ``im_matmul`` adds the floating-point operations its operand
shapes call for, ``verification_loop`` counts verified outcomes and
``sample_solutions`` counts kept samples against requested ones.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "sylvenc"

# (module, attribute) of every traced function; "Class.method" for methods
LAYERS = (
    ("problems", "generate"),
    ("linalg", "eig_decompose"),
    ("linalg", "lu_solve"),
    ("linalg", "inverse_enclosure"),
    ("precond", "simultaneous_diag"),
    ("precond", "transform_enclose"),
    ("intervals", "im_matmul"),
    ("intervals", "posmm"),
    ("intervals", "IMatrix.contains_point"),
    ("krawczyk", "compute_M"),
    ("krawczyk", "compute_N"),
    ("krawczyk", "verification_loop"),
    ("krawczyk", "back_transform"),
    ("krawczyk", "mkw_solve"),
    ("refine", "gamma_step"),
    ("refine", "itr_solve"),
    ("blockdiag", "block_diagonalize"),
    ("blockdiag", "interval_back_substitute"),
    ("blockdiag", "mkw_block_solve"),
    ("baseline", "build_Q_kron"),
    ("baseline", "full_krawczyk_solve"),
    ("baseline", "point_solve"),
    ("baseline", "sample_solutions"),
    ("baseline", "residual_membership"),
)

HASHED_INPUT = {"linalg.eig_decompose", "linalg.lu_solve"}


def _mid_of(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(getattr(x, "mid", x)))


def im_matmul_flops(x, y) -> float:
    """Operations of one midpoint-radius product at these operand shapes.

    One midpoint product (complex when either midpoint is) plus four real
    products for the radius: ``|Xm| Yr``, ``Xr |Ym|``, ``Xr Yr`` and the
    rounding term ``|Xm| |Ym|``.
    """
    xm, ym = _mid_of(x), _mid_of(y)
    mkn = float(xm.shape[0]) * xm.shape[1] * ym.shape[1]
    mid_cost = 8.0 if (np.iscomplexobj(xm) or np.iscomplexobj(ym)) else 2.0
    return (mid_cost + 4 * 2.0) * mkn


def _input_hash(a) -> bytes:
    a = np.ascontiguousarray(a)
    h = hashlib.sha1()  # identifies inputs, no adversary; the fastest digest here
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a)
    return h.digest()


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    inputs: set = field(default_factory=set)
    flops: float = 0.0
    verified: int = 0
    requested: int = 0
    kept: int = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.request = ""
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [span id, start, child time]
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever the package refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, attr in LAYERS:
            layer = f"{mod_name}.{attr}"
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(layer, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(layer, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- recording ----------------------------------------------------------
    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer.stats.get(layer)
            if st is None:
                st = tracer.stats[layer] = LayerStats()
            if layer in HASHED_INPUT:
                t_hash = time.perf_counter()
                st.inputs.add(_input_hash(args[0]))
                if tracer._stack:  # hashing is tracer overhead: no span's self time
                    tracer._stack[-1][2] += time.perf_counter() - t_hash
            elif layer == "intervals.im_matmul":
                st.flops += im_matmul_flops(args[0], args[1])
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                st.calls += 1
                st.incl_s += dur
                st.self_s += dur - frame[2]
                tracer.spans[span_id] = (span_id, parent, tracer.request, layer, frame[1], end)
            if layer == "krawczyk.verification_loop":
                st.verified += bool(result[0])
            elif layer == "baseline.sample_solutions":
                st.requested += int(args[1] if len(args) > 1 else kwargs.get("n_samples", 200))
                st.kept += len(result)
            return result

        return wrapper

    def take_stats(self) -> dict[str, LayerStats]:
        """Counters since the last call; starts a fresh set."""
        out, self.stats = self.stats, {}
        return out

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "request", "layer", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
