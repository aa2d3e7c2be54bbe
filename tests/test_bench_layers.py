"""The library still offers every layer the benchmark's tracer wraps.

``perfbench/tracer.py`` looks each ``(module, attribute)`` of ``LAYERS`` up on
the library when a traced run starts; a renamed or deleted function would
break every traced benchmark run, and no other test would notice.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sylvenc import IMatrix
from sylvenc.krawczyk import verification_loop

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_layer_resolves():
    for mod_name, attr in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
            assert attr in vars(owner), f"{mod_name}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"


def test_verification_loop_returns_the_verified_flag_first():
    # the tracer counts verified outcomes from ``result[0]``
    M = IMatrix(np.zeros((1, 1)), np.array([[0.1]]))
    out = verification_loop(M, lambda x: IMatrix(np.zeros((1, 1)), 0.5 * x), kmax=15)
    assert isinstance(out, tuple) and out[0] is out.verified
    assert out[0] is True
    out = verification_loop(M, lambda x: IMatrix(np.zeros((1, 1)), 2.0 * x), kmax=15)
    assert out[0] is False
