"""skomni benchmark: one run of one workload, through ``skomni.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tabular_m10 --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``tabular_m10``, ``pin_m8``, ``hunt_m4``.
A run imports the program from ``src/`` of the checkout it sits in, makes
its inputs from ``--seed`` under ``perfbench/out/``, and then:

1. sets up eight times: import ``skomni.cli`` and the lazily imported
   ``mpmath`` afresh, then load and validate every model file of the run;
2. runs units of work back to back, one caller waiting on each answer,
   and then the first unit again, starting a unit only while it and that
   repeat are expected to end within ``--seconds``.  Every call is a
   sample.  The repeat's outputs must match byte for byte (else it counts
   as failed) and its work counts exactly (else the run stops with an
   error and prints no numbers);
3. sets up eight more times; ``setup_s`` is the median of all sixteen,
   taken at both ends of the run so that it sees the machine as the
   measurements did;
4. prints a ``detail`` line (provenance, sample counts, quartiles, failed
   operations, baseline work counts) and, last, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every set-up and every CLI call runs with the fixed probe of
``calibrate.py`` before, during and after it, and end-to-end times are
*paced*: scaled to the seconds they would take on a host where the probe
takes ``calibrate.REFERENCE_S``.  This removes the changes of a shared
host's speed, which no median within a run can.  The ``detail``
line gives each time metric unpaced as well (``samples.<name>.raw``).

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: as in step 3, paced;
* ``capacity_s``, ``omnivocality_s``: geometric mean over the run's
  models of each model's median paced time for that command (on
  ``hunt_m4`` the models are the blocks' first candidate
  counterexamples);
* ``answers_per_s``: answers per paced second spent in the calls that
  give them, i.e. models analysed by both commands, or hunt trials;
* ``decided_frac``: share of answers that are neither
  ``NumericallyAmbiguous`` nor ``Inconclusive``; the answer of a failed
  call counts as undecided;
* ``peak_rss_mb``: peak resident memory of the process up to step 3.

``--trace 1`` wraps every layer's public functions (``tracer.py``) and
reports per-layer metrics as means per unit over the first
``TRACE_UNITS`` units, which are the same units for the same seed, so work
counts repeat exactly.  It then runs the first unit once more untraced;
``trace.overhead_s`` is how much longer the traced passes took.  Spans
are written to ``perfbench/out/trace-<workload>-<seed>.jsonl``.  The
in-call probes of ``calibrate.py`` run in traced passes too, so each
layer's self time holds its share of them, about 1.5 %.

The exit code is 0 only when a result line was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 8
TRACE_UNITS = {"tabular_m10": 2, "pin_m8": 8, "hunt_m4": 8}

END_TO_END = {
    "setup_s": "s",
    "capacity_s": "s",
    "omnivocality_s": "s",
    "answers_per_s": "1/s",
    "decided_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sources.fill_s": ("s", "sources.fill.self_s"),
    "sources.entropy_evals": ("count", "sources.entropy_evals"),
    "sources.atoms_scanned": ("count", "sources.atoms_scanned"),
    "sources.entropy_queries": ("count", "sources.entropy_queries"),
    "subsets.check_subset_calls": ("count", "subsets.check_subset_calls"),
    "partitions.enumerate_s": ("s", "partitions.enumerate.self_s"),
    "partitions.enumerated": ("count", "partitions.enumerated"),
    "capacity.search_s": ("s", "capacity.search.self_s"),
    "capacity.partitions_examined": ("count", "capacity.partitions_examined"),
    "capacity.isolating_s": ("s", "capacity.isolating.self_s"),
    "capacity.comparisons": ("count", "capacity.comparisons"),
    "pin.capacity_s": ("s", "pin.capacity.self_s"),
    "pin.partitions_examined": ("count", "pin.partitions_examined"),
    "silent_rate.region_s": ("s", "silent_rate.region.self_s"),
    "silent_rate.min_sum_s": ("s", "silent_rate.min_sum.self_s"),
    "silent_rate.constraints": ("count", "silent_rate.constraints"),
    "silent_rate.lps": ("count", "silent_rate.lps"),
    "simplex.solve_s": ("s", "simplex.solve.self_s"),
    "simplex.pivots": ("count", "simplex.pivots"),
    "omnivocality.verdict_s": ("s", "omnivocality.verdict.self_s"),
    "omnivocality.reverify_s": ("s", "omnivocality.reverify_s"),
    "omnivocality.reverified": ("count", "omnivocality.reverified"),
    "omnivocality.class.ConsistentProven": ("count", "omnivocality.class.ConsistentProven"),
    "omnivocality.class.ConsistentConverse": ("count", "omnivocality.class.ConsistentConverse"),
    "omnivocality.class.CandidateCounterexample": (
        "count", "omnivocality.class.CandidateCounterexample"),
    "omnivocality.class.Inconclusive": ("count", "omnivocality.class.Inconclusive"),
    "generators.random_source_s": ("s", "generators.random_source.self_s"),
    "generators.sources": ("count", "generators.sources"),
    "cli.load_s": ("s", "cli.load.incl_s"),
    "cli.other_s": ("s", "cli.main.self_s"),
}

#: Work counts of the ROADMAP baseline table, reported next to each run.
BASELINE = {"partitions_per_model": 115_974, "comparisons_per_model": 1_012}


class SteadinessError(RuntimeError):
    """Deterministic work or output changed between two runs of the same unit."""


def _skomni_modules() -> list:
    return [name for name in sys.modules
            if name.split(".")[0] in ("skomni", "mpmath")]


def setup_once(workload) -> tuple:
    """Import the CLI and mpmath afresh, load every model file.

    Returns (wall seconds, paced seconds, lib).
    """
    for name in _skomni_modules():
        del sys.modules[name]
    lib, seconds, paced = calibrate.timed(load_program, workload)
    return seconds, paced, lib


def load_program(workload) -> SimpleNamespace:
    cli = importlib.import_module("skomni.cli")
    importlib.import_module("mpmath")
    lib = SimpleNamespace(
        cli=cli,
        capacity=importlib.import_module("skomni.capacity"),
        pin=importlib.import_module("skomni.pin"),
        sources=importlib.import_module("skomni.sources"),
    )
    if workload.loader:
        load = getattr(lib.pin if workload.loader == "load_pin_graph" else lib.sources,
                       workload.loader)
        for path in workload.model_files():
            load(path)
    return lib


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import skomni  # noqa: F401  (fails in a directory without the program)

    if Path(skomni.__file__).resolve().parent != SRC / "skomni":
        raise ImportError(f"skomni imported from {skomni.__file__}, not from {SRC}")
    importlib.import_module("skomni.cli")


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "skomni").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(workload, lib, seconds: float, min_units: int, on_unit=None) -> list:
    """Run units back to back, then the first unit again, within ``seconds``.

    A new unit starts only while it and the repeat are expected to end in
    time.  The repeat's outputs and work counts must match the first run.
    """
    units = []
    start = time.perf_counter()
    for key in workload.unit_keys():
        units.append(workload.run_unit(lib.cli, key))
        if on_unit is not None:
            on_unit(len(units))
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed * (len(units) + 2) / len(units) > seconds:
            break
    again = workload.run_unit(lib.cli, units[0].key)
    check_repeat(units[0], again)
    return units + [again]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def per_model(units: list, command: str, clock: str) -> tuple:
    """Each model's median ``clock`` time for ``command``, and the number of calls.

    A latency is the geometric mean over models of these, so a model
    visited twice weighs no more than one visited once: the PIN graphs
    differ fivefold in cost, and a plain median over calls would jump
    between the cheap and the dear ones with the number of repeats that
    fit in a run.  A median over models would rest on the one or two
    middle models' few calls; the geometric mean uses every model's, and
    a model that gets 10 % faster moves it by the same share however
    cheap that model is.
    """
    times: dict = {}
    for u in units:
        for call in u.calls:
            if call.command == command:
                times.setdefault(u.key, []).append(getattr(call, clock))
    return [statistics.median(t) for t in times.values()], sum(map(len, times.values()))


def end_to_end(units: list, setup: list, peak_rss_mb: float) -> tuple:
    """Metric values plus, per metric, its samples' count, quartiles and raw value.

    ``setup`` holds (wall, paced) seconds of each set-up.
    """
    metrics, info = {}, {}
    for name, command in (("setup_s", None), ("capacity_s", "capacity"),
                          ("omnivocality_s", "omnivocality")):
        value = {}
        for clock in ("seconds", "paced"):
            if command is None:
                values = [s[clock == "paced"] for s in setup]
                value[clock], calls = statistics.median(values), len(values)
            else:
                values, calls = per_model(units, command, clock)
                if not values:
                    raise SteadinessError(f"no samples for {name}")
                value[clock] = statistics.geometric_mean(values)
        q1, _, q3 = quartiles(values)
        metrics[name] = value["paced"]
        info[name] = {"n": calls, "q1": q1, "q3": q3, "raw": value["seconds"]}
        if command is not None:
            info[name]["models"] = len(values)
    answers = sum(u.answers for u in units)
    busy = {clock: sum(getattr(c, clock) for u in units for c in u.calls if c.answers)
            for clock in ("seconds", "paced")}
    metrics["answers_per_s"] = answers / busy["paced"]
    metrics["decided_frac"] = sum(u.decided for u in units) / answers
    metrics["peak_rss_mb"] = peak_rss_mb
    info["answers_per_s"] = {"n": answers, "raw": answers / busy["seconds"]}
    info["decided_frac"] = {"n": answers}
    return metrics, info


def check_repeat(first, again) -> None:
    """Work counts must repeat exactly, outputs byte for byte."""
    if first.counts != again.counts:
        raise SteadinessError(f"unit {first.key}: counts {first.counts} then {again.counts}")
    for command, output in first.outputs.items():
        if again.outputs.get(command) != output:
            again.fail(command, "output differs from the first run of this unit")


def counts_only(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if tracing.is_count(k) and after[k] != before.get(k, 0)}


def traced_run(workload, lib, seconds: float) -> tuple:
    """Per-layer metrics per unit over the first TRACE_UNITS units."""
    n_prefix = TRACE_UNITS[workload.name]
    tracer = tracing.Tracer()
    marks = {}

    def on_unit(done):
        marks[done] = tracer.snapshot()

    tracer.install()
    try:
        marks[0] = tracer.snapshot()
        units = measure(workload, lib, seconds, n_prefix, on_unit)
        repeat = tracer.snapshot()
    finally:
        tracer.uninstall()
    first_unit = counts_only(marks[0], marks[1])
    if first_unit != counts_only(marks[len(units) - 1], repeat):
        raise SteadinessError(f"unit {units[0].key}: traced work counts differ when repeated")
    untraced = workload.run_unit(lib.cli, units[0].key)
    check_repeat(units[0], untraced)

    metrics = {name: marks[n_prefix].get(key, 0) / n_prefix for name, (_, key) in PER_LAYER.items()}
    traced_s = (units[0].seconds + units[-1].seconds) / 2
    metrics["trace.overhead_s"] = traced_s - untraced.seconds
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{workload.name}-{workload.seed}.jsonl")
    extra = {"units_traced": n_prefix, "first_unit_counts": first_unit,
             "spans_kept": len(tracer.spans)}
    return units + [untraced], metrics, extra


def baseline(workload, units: list, extra: dict) -> dict:
    """Work counts to set against the ROADMAP baseline table."""
    if workload.name == "tabular_m10":
        out = {"partitions_per_model": sorted({u.counts.get("partitions_examined") for u in units})}
        if "first_unit_counts" in extra:
            out["comparisons_per_model"] = extra["first_unit_counts"].get("capacity.comparisons")
        out["matches"] = out["partitions_per_model"] == [BASELINE["partitions_per_model"]] and (
            out.get("comparisons_per_model", BASELINE["comparisons_per_model"])
            == BASELINE["comparisons_per_model"])
        return out
    if workload.name == "hunt_m4" and workload.seed == 0:
        return {"seed0_counts": units[0].counts,
                "matches": units[0].counts == workload.baseline["seed0_counts"]}
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skomni benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    reference = json.loads((BENCH / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        setup = []
        for _ in range(SETUP_REPEATS):
            *seconds, lib = setup_once(workload)
            setup.append(seconds)
        if args.trace:
            units, metrics, extra = traced_run(workload, lib, args.seconds)
            workload.final_check(lib, units)
            samples = {}
        else:
            units = measure(workload, lib, args.seconds, 1)
            workload.final_check(lib, units)
            # before the setups below, whose fresh imports would add to it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for _ in range(SETUP_REPEATS):
                setup.append(setup_once(workload)[:2])
            metrics, samples = end_to_end(units, setup, peak_rss_mb)
            extra = {}
    except SteadinessError as exc:
        print(f"steadiness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(u.calls) for u in units)
    failed = sum(u.failed for u in units)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "units": [str(u.key) for u in units],
        "samples": samples,
        "baseline": baseline(workload, units, extra),
        "failures": [message for u in units for _, message in u.failures][:20],
        **extra,
    }
    print("detail " + json.dumps(detail))
    units_of = {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}, "trace.overhead_s": "s"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
