"""Every function that the benchmark's layer tracer lists still exists.

perfbench/tracer.py names the public functions it times per module; a
deleted or renamed one would otherwise surface only in the benchmark's own
self-test.  The tracer is loaded from its file and not modified.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    # compiled from the source text, so no bytecode is written beside it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_name_resolves():
    layers = _tracer_layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"coarse_teich.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"coarse_teich.{layer}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"coarse_teich.{layer}.{name}"
