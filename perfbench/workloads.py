"""The three benchmark workloads: inputs, one unit of work, answer checks.

Every workload is a closed loop with one caller: the benchmark runs one
unit, waits for its answers, checks them and starts the next.  A unit is

* ``tabular_m10``: ``skomni capacity`` then ``skomni omnivocality`` on one
  m = 10 full-support binary pmf (1 024 atoms).  The entropy fill, the
  Bell(10) search and the float simplex each take about a third.
* ``pin_m8``: the same two commands on one exact PIN multigraph at m = 8
  (K_8 first, then seeded random multigraphs).  The exact ``Fraction``
  simplex dominates and the entropy fill is nearly free, so this workload
  bypasses oracle optimisations and shows float-only simplex changes that
  cost the exact path.
* ``hunt_m4``: ``skomni hunt --m 4 --trials 500 --jobs 1`` on one block of
  seeds, then ``capacity`` and ``omnivocality`` on the block's first
  candidate counterexample, as a user re-examining a hunt log would.  Many
  tiny problems, so per-call overhead, validation, ``random_source`` and
  the 60-digit mpmath re-verification dominate.

Each unit returns the wall time of every CLI call and that time paced by
the probe of ``calibrate.py`` run around and during it, the number of
answers it produced (models analysed, or hunt trials) and how many of
those were decided, the deterministic counts visible in its output, and
every wrong answer it found.  A raise, a nonzero exit code or a wrong
answer is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import NamedTuple

import calibrate
import inputs

UNDECIDED = {"NumericallyAmbiguous", "Inconclusive"}
CONCLUSIVE = {"Necessary", "NotNecessary"}


class Call(NamedTuple):
    command: str
    seconds: float  # wall time
    paced: float  # wall time scaled to the reference pace of calibrate.py
    answers: bool  # whether the call produces the unit's answers


@dataclass
class Unit:
    key: object
    calls: list = field(default_factory=list)  # Call, one per CLI call
    outputs: dict = field(default_factory=dict)  # command -> what it printed or wrote
    answers: int = 0
    decided: int = 0
    failures: list = field(default_factory=list)  # (command, message)
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def failed(self) -> int:
        """Failed operations: CLI calls with at least one problem."""
        return len({command for command, _ in self.failures})

    def fail(self, command: str, message: str) -> None:
        self.failures.append((command, f"{self.key} {command}: {message}"))


def run_cli(cli, argv: list) -> tuple:
    """Call ``skomni.cli.main`` in-process, paced by ``calibrate.timed``.

    Returns (exit code or error, stdout, wall seconds, paced seconds).
    """
    out, err = io.StringIO(), io.StringIO()

    def main():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)
        except Exception as exc:  # a raise is a failed operation, not a benchmark crash
            return f"raised {type(exc).__name__}: {exc}"

    code, seconds, paced = calibrate.timed(main)
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), seconds, paced


def _call(unit: Unit, cli, argv: list, answers: bool):
    """Run one CLI call into ``unit``; return its parsed JSON output or None."""
    code, out, seconds, paced = run_cli(cli, argv)
    unit.calls.append(Call(argv[0], seconds, paced, answers))
    unit.outputs[argv[0]] = out
    if code != 0:
        unit.fail(argv[0], str(code))
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        unit.fail(argv[0], "output is not JSON")
        return None


def _write(path: Path, model: dict) -> Path:
    path.write_text(json.dumps(model))
    return path


class Workload:
    name = ""
    loader = ""  # skomni function that loads and validates one model file

    def model_files(self) -> list:
        return []

    def final_check(self, lib, units: list) -> None:
        """Checks that call the library, run once after the timed window."""


class ModelWorkload(Workload):
    """Shared shape of the two workloads that analyse one model per unit."""

    pool: tuple = ()
    first = None

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.reference = reference[self.name]
        self.band = reference["tie_band"]
        self.order = inputs.visit_order(self.pool, seed, self.first)
        self.paths = {key: _write(workdir / f"{self.name}-{key}.json", self.model(key))
                      for key in self.order}

    def model(self, key) -> dict:
        raise NotImplementedError

    def model_files(self) -> list:
        return [self.paths[key] for key in self.order]

    def unit_keys(self):
        while True:
            yield from self.order

    def run_unit(self, cli, key) -> Unit:
        unit = Unit(key)
        path = str(self.paths[key])
        cap = _call(unit, cli, ["capacity", path, "--json"], True)
        omni = _call(unit, cli, ["omnivocality", path, "--json"], True)
        unit.answers = 1
        ref = self.reference[str(key)]
        if cap is not None:
            unit.counts["partitions_examined"] = cap["partitions_examined"]
            self.check_capacity(unit, cap, ref)
        if omni is not None:
            self.check_omnivocality(unit, omni, ref)
            unit.decided = int(omni["verdict"] not in UNDECIDED)
        return unit

    def check_capacity(self, unit: Unit, cap: dict, ref: dict) -> None:
        raise NotImplementedError

    def check_omnivocality(self, unit: Unit, omni: dict, ref: dict) -> None:
        verdict = omni["verdict"]
        if verdict in CONCLUSIVE and ref["verdict"] in CONCLUSIVE and verdict != ref["verdict"]:
            unit.fail("omnivocality", f"{verdict}, recorded {ref['verdict']}")
        lp = [m for m in omni["methods"] if m["method"] == "lp"]
        if not lp:
            unit.fail("omnivocality", "no lp route in the output")
            return
        restricted = [row["silent_capacity"] for row in lp[0]["evidence"]]
        if len(restricted) != len(ref["restricted"]) or not all(
            self.same(a, b) for a, b in zip(restricted, ref["restricted"])
        ):
            unit.fail("omnivocality", f"restricted capacities {restricted}")

    def same(self, value, recorded) -> bool:
        raise NotImplementedError


class Tabular(ModelWorkload):
    """Float answers must match the recorded ones within the tie band."""

    name = "tabular_m10"
    pool = inputs.TABULAR_POOL
    loader = "load_source"

    def model(self, key) -> dict:
        return inputs.tabular_model(key)

    def same(self, value, recorded) -> bool:
        return abs(float(value) - float(recorded)) <= self.band

    def check_capacity(self, unit, cap, ref) -> None:
        if not self.same(cap["capacity"], ref["capacity"]):
            unit.fail("capacity", f"{cap['capacity']}, recorded {ref['capacity']}")
        stray = set(cap["argmin"]) - set(ref["argmin"])
        if stray:
            unit.fail("capacity", f"{sorted(stray)} is no recorded minimizer")


class Pin(ModelWorkload):
    """Exact answers must equal the recorded ones; K_8 has capacity 4."""

    name = "pin_m8"
    pool = inputs.PIN_POOL
    first = inputs.PIN_POOL[0]
    loader = "load_pin_graph"

    def model(self, key) -> dict:
        return inputs.pin_model(key)

    def same(self, value, recorded) -> bool:
        return Fraction(value) == Fraction(recorded)

    def check_capacity(self, unit, cap, ref) -> None:
        if not self.same(cap["capacity"], ref["capacity"]):
            unit.fail("capacity", f"{cap['capacity']}, recorded {ref['capacity']}")
        if unit.key == f"K{inputs.PIN_M}" and Fraction(cap["capacity"]) != Fraction(inputs.PIN_M, 2):
            unit.fail("capacity", f"{cap['capacity']}, not m/2")

    def check_omnivocality(self, unit, omni, ref) -> None:
        super().check_omnivocality(unit, omni, ref)
        if omni["verdict"] != ref["verdict"]:
            unit.fail("omnivocality", f"{omni['verdict']}, recorded {ref['verdict']}")

    def final_check(self, lib, units) -> None:
        """``pin_capacity`` (what the CLI prints) must equal ``sk_capacity`` on a
        ``PinOracle``; checked once per graph, untraced."""
        for key in dict.fromkeys(u.key for u in units):
            unit = next(u for u in units if u.key == key)
            try:
                printed = Fraction(json.loads(unit.outputs["capacity"])["capacity"])
            except (KeyError, ValueError):
                continue  # this call has already failed
            graph = lib.pin.load_pin_graph(self.paths[key])
            by_entropy = lib.capacity.sk_capacity(lib.pin.PinOracle(graph)).value
            if printed != by_entropy:
                unit.fail("capacity", f"pin_capacity {printed} != sk_capacity {by_entropy}")


def classify(condition: str, lp: str) -> str:
    """The hunt's classification rule, restated from its documentation."""
    if condition == "NumericallyAmbiguous" or lp == "NumericallyAmbiguous":
        return "Inconclusive"
    if condition == "UniqueMinimizer":
        return "ConsistentProven" if lp != "NotNecessary" else "contradiction"
    if lp == "NotNecessary":
        return "ConsistentConverse"
    return "CandidateCounterexample"


class Hunt(Workload):
    """Hunt logs must be self-consistent and name the benchmark's own sources."""

    name = "hunt_m4"

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.band = reference["tie_band"]
        self.baseline = reference[self.name]

    def unit_keys(self):
        return count()

    def run_unit(self, cli, block) -> Unit:
        unit = Unit(block)
        base = inputs.hunt_base_seed(self.seed, block)
        log = self.workdir / f"hunt-{block}.jsonl"
        argv = ["hunt", "--m", str(inputs.HUNT_M), "--trials", str(inputs.HUNT_TRIALS),
                "--seed", str(base), "--jobs", "1", "--out", str(log), "--json"]
        summary = _call(unit, cli, argv, True)
        unit.answers = inputs.HUNT_TRIALS
        if summary is None:
            return unit
        text = log.read_text()
        unit.outputs["hunt"] += text
        records = [json.loads(line) for line in text.splitlines()]
        classes = [r["classification"] for r in records]
        unit.counts = {c: classes.count(c) for c in sorted(set(classes))}
        unit.decided = sum(c not in UNDECIDED for c in classes)
        if len(records) != inputs.HUNT_TRIALS or summary["counts"] != unit.counts:
            unit.fail("hunt", "log and summary disagree")
        for trial, record in enumerate(records):
            self.check_record(unit, base, trial, record)
        candidate = next((r for r in records if r["classification"] == "CandidateCounterexample"), None)
        if candidate is not None:
            self.reexamine(unit, cli, candidate)
        return unit

    def check_record(self, unit: Unit, base: int, trial: int, record: dict) -> None:
        seed = base + trial
        expected = classify(record["condition"], record["lp"])
        problems = []
        if (record["trial"], record["seed"], record["m"]) != (trial, seed, inputs.HUNT_M):
            problems.append("wrong trial, seed or m")
        if record["classification"] != expected:
            problems.append(f"classified {record['classification']}, rule gives {expected}")
        if record["atoms_digest"] != inputs.atoms_digest(inputs.tabular_model(seed, inputs.HUNT_M)):
            problems.append("source differs from the seeded pmf")
        if problems:
            unit.fail("hunt", f"seed {seed}: " + "; ".join(problems))

    def reexamine(self, unit: Unit, cli, record: dict) -> None:
        """A candidate's float LP said Necessary, so the CLI must agree."""
        path = _write(self.workdir / f"candidate-{unit.key}.json", record["source"])
        cap = _call(unit, cli, ["capacity", str(path), "--json"], False)
        omni = _call(unit, cli, ["omnivocality", str(path), "--json"], False)
        seed = record["seed"]
        if cap is not None and abs(cap["capacity"] - record["capacity"]) > self.band:
            unit.fail("capacity", f"candidate {seed}: {cap['capacity']}, hunt {record['capacity']}")
        if omni is not None and omni["verdict"] != "Necessary":
            unit.fail("omnivocality", f"candidate {seed}: {omni['verdict']}, hunt Necessary")


WORKLOADS = {w.name: w for w in (Tabular, Pin, Hunt)}
