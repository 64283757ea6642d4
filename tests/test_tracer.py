"""The benchmark's tracer (``perfbench/tracer.py``) installs over the package.

The tracer wraps package functions by module and name from the outside,
so a traced name that leaves the package breaks ``perfbench/run.py
--trace 1``.  This test catches that without running the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import skomni.cli  # noqa: F401  (imports every module the tracer wraps)
from skomni.pin import complete_graph
from skomni.sources import TabularOracle

from conftest import make_xor4_source, make_xor_source

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


def test_silent_solves_no_linear_program(tmp_path, capsys):
    # The simplex and min_sum_rate stay in the package only as test
    # references; a production call would show up in the benchmark's trace.
    models = {"xor": make_xor_source().to_json_dict(), "k4": complete_graph(4).to_json_dict()}
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, payload in models.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            for speakers in ("1,2", "1,2,3"):
                assert sys.modules["skomni.cli"].main(["silent", str(path), "--speakers", speakers]) == 0
    finally:
        tracer.uninstall()
    assert "rates: R1 = " in capsys.readouterr().out
    assert tracer.calls["cli.main"] == 4
    assert tracer.calls["silent_rate.region"] == 4
    assert tracer.calls["silent_rate.min_sum"] == 0
    assert tracer.calls["simplex.solve"] == 0


def test_silent_reads_only_the_speakers_entropies(tmp_path):
    # The restricted capacity, the greedy rates and the closed-form region
    # cut T's table from the oracle's table(), which the tracer does not
    # wrap; the point queries read X_T and, per silent d, X_d and X_{T+d}.
    # A region that enumerated every set A through entropy would read all
    # 2^m - 1.
    models = {"k5": complete_graph(5).to_json_dict(), "xor4": make_xor4_source().to_json_dict()}
    tracing = _load_tracer()
    for name, payload in models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert sys.modules["skomni.cli"].main(["silent", str(path), "--speakers", "1,2"]) == 0
        finally:
            tracer.uninstall()
        m, t = payload["m"], 2
        assert tracer.calls["silent_rate.region"] == 1
        assert tracer.counts["sources.entropy_evals"] == 1 + 2 * (m - t), name
