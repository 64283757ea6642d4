"""The benchmark's tracer (``perfbench/tracer.py``) installs over the package.

The tracer wraps package functions by module and name from the outside,
so a traced name that leaves the package breaks ``perfbench/run.py
--trace 1``.  This test catches that without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import skomni.cli  # noqa: F401  (imports every module the tracer wraps)
from skomni.sources import TabularOracle

from conftest import make_xor_source

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_package():
    tracing = _load_tracer()
    public = [(mod, attr) for mod, attr, _ in tracing.FUNCTION_SPANS if not attr.startswith("_")]
    for mod, attr in public:
        assert callable(getattr(sys.modules[mod], attr, None)), f"{mod}.{attr} is gone"
    originals = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr in public}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(sys.modules[mod], attr) is not original, f"{mod}.{attr} not wrapped"
        sys.modules["skomni.capacity"].sk_capacity(TabularOracle(make_xor_source()))
        assert tracer.calls["capacity.search"] == 1
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original, f"{mod}.{attr} not restored"
