"""The benchmark's hooks into the program still resolve.

``perfbench/`` measures the program from outside: ``layers.py`` wraps
program functions by the names their callers look them up by, and
``child.py`` reads a few private constants.  A hook renamed or deleted
in ``src/`` makes a traced benchmark run not ``correct``; these tests
fail first.  They load the benchmark's files by path and change nothing
in them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.core import compress, decompress

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The shapes ``perfbench/inputs.py`` generates for each workload.
WORKLOAD_SHAPES = {"hurricane3d": (100, 250, 250), "xray-roi": (2560, 2560)}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves_and_is_reached():
    tracer = _load("layers").LayerTracer()
    data = np.cumsum(
        np.random.default_rng(2).normal(0, 0.1, 24 * 30)
    ).reshape(24, 30).astype(np.float32)
    try:
        assert tracer.install() == []
        out = decompress(compress(data, mode="rel", bound=1e-4))
    finally:
        tracer.uninstall()
    assert tracer.calls["wavefront.plan"] >= 1
    assert tracer.plans[0]["shape"] == [24, 30]
    assert tracer.calls["wavefront.quantize"] == 1
    assert tracer.calls["wavefront.dequantize"] == 1
    assert out.shape == data.shape


def test_cache_context_reads_resolve():
    child = _load("child")
    for workload, shape in WORKLOAD_SHAPES.items():
        context = child.cache_context(workload, shape)
        assert context["plan_shapes_used"] == 1
