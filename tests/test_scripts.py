"""Smoke tests of the scripts under ``scripts/``, run through ``runpy``."""

import json
import os
import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skomni import omnivocality, pin
from skomni.cli import main
from skomni.partitions import Partition

ROOT = Path(__file__).resolve().parent.parent
NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("mult", [1, 2])
def test_complete_graph_table(monkeypatch, capsys, mult):
    script = ROOT / "scripts" / "complete_graph_table.py"
    monkeypatch.setattr(sys, "argv", [script.name, "--max-m", "5", "--mult", str(mult)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "m", "capacity", "argmin", "condition", "lp", "partitions", "seconds"
    ]
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [3, 4, 5]
    for m, capacity, argmin, condition, lp, partitions, _seconds in rows:
        m = int(m)
        assert Fraction(capacity) == Fraction(mult * m, 2)
        assert argmin == "|".join(str(t) for t in range(1, m + 1))
        assert (condition, lp) == ("UniqueMinimizer", "Necessary")
        assert int(partitions) == 1


@pytest.mark.parametrize("family, first, last", [
    ("cycle", "3 3/2 1|2|3 UniqueMinimizer Necessary 1",
     "6 6/5 1|2|3|4|5|6 UniqueMinimizer Necessary 1"),
    ("cycle+", "3 2 1|2|3 NonUniqueMinimizer NotNecessary 1",
     "6 5/4 1,6|2|3|4|5 NotMinimizer Necessary 2"),
    ("path", "3 1 1|2|3 NonUniqueMinimizer NotNecessary 1",
     "6 1 1|2|3|4|5|6 NonUniqueMinimizer NotNecessary 1"),
    ("star", "3 1 1|2|3 NonUniqueMinimizer NotNecessary 1",
     "6 1 1|2|3|4|5|6 NonUniqueMinimizer NotNecessary 1"),
    ("wheel", "4 2 1|2|3|4 UniqueMinimizer Necessary 1",
     "6 2 1|2|3|4|5|6 UniqueMinimizer Necessary 1"),
])
def test_complete_graph_table_families(monkeypatch, capsys, family, first, last):
    # The rows without their seconds column; --mult 3 triples each C.
    script = ROOT / "scripts" / "complete_graph_table.py"
    for mult in (1, 3):
        argv = [script.name, "--family", family, "--max-m", "6", "--mult", str(mult)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        rows = [line.split()[:-1] for line in capsys.readouterr().out.splitlines()[1:]]
        for got, want in [(rows[0], first.split()), (rows[-1], last.split())]:
            assert got[0] == want[0] and got[2:] == want[2:]
            assert Fraction(got[1]) == mult * Fraction(want[1])
        assert [int(row[0]) for row in rows] == list(range(int(first.split()[0]), 7))


def test_complete_graph_table_windmill(monkeypatch, capsys):
    # F_k has odd m = 2k + 1 only, so --max-m 8 stops at 7.  The singletons
    # tie with terminal 1 merged into one triangle, at C = 3/2, and still
    # every terminal must talk; --mult 3 triples C.
    script = ROOT / "scripts" / "complete_graph_table.py"
    for mult in (1, 3):
        argv = [script.name, "--family", "windmill", "--max-m", "8", "--mult", str(mult)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        rows = [line.split()[:-1] for line in capsys.readouterr().out.splitlines()[1:]]
        capacity = str(Fraction(3 * mult, 2))
        assert rows == [
            ["5", capacity, "1|2|3|4|5", "NonUniqueMinimizer", "Necessary", "1"],
            ["7", capacity, "1|2|3|4|5|6|7", "NonUniqueMinimizer", "Necessary", "1"],
        ]


@pytest.mark.parametrize("field, wrong", [
    ("value", Fraction(1, 3)),
    ("argmin", Partition.from_cells([0b0011, 0b0100, 0b1000], 4)),
])
def test_complete_graph_table_exits_1_at_the_first_wrong_row(monkeypatch, capsys, field, wrong):
    real = pin.pin_capacity

    def faulty(graph):
        report = real(graph)
        return report._replace(**{field: wrong}) if graph.m == 4 else report

    monkeypatch.setattr(pin, "pin_capacity", faulty)
    script = ROOT / "scripts" / "complete_graph_table.py"
    monkeypatch.setattr(sys, "argv", [script.name, "--max-m", "6"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == ["m", "3", "4"]
    (line,) = captured.err.splitlines()
    assert line.startswith("m=4: got C = ")
    assert line.endswith("; expected C = 2, argmin 1|2|3|4, UniqueMinimizer/Necessary")


def test_complete_graph_table_columns_line_up(monkeypatch, capsys):
    # From m = 9 the argmin outgrows "argmin"; every later column must
    # still start (left-aligned) or end (right-aligned) under its header.
    script = ROOT / "scripts" / "complete_graph_table.py"
    monkeypatch.setattr(sys, "argv", [script.name, "--max-m", "10"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[-1].split()[2] == "1|2|3|4|5|6|7|8|9|10"
    spans = [[m.span() for m in re.finditer(r"\S+", line)] for line in lines]
    assert {len(row) for row in spans} == {7}
    left = (2, 3, 4)  # argmin, condition, lp
    for row in spans[1:]:
        for i, (header, cell) in enumerate(zip(spans[0], row)):
            assert (cell[0] == header[0]) if i in left else (cell[1] == header[1])


def test_complete_graph_table_exits_4_when_the_routes_disagree(monkeypatch, capsys):
    real = omnivocality.verdict_by_lp

    def faulty(oracle, tie_tol):
        verdict = real(oracle, tie_tol)
        if oracle.m == 4:
            return verdict._replace(status=omnivocality.OmniStatus.NOT_NECESSARY)
        return verdict

    monkeypatch.setattr(omnivocality, "verdict_by_lp", faulty)
    script = ROOT / "scripts" / "complete_graph_table.py"
    monkeypatch.setattr(sys, "argv", [script.name, "--max-m", "6"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 4
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == ["m", "3"]
    (line,) = captured.err.splitlines()
    assert line == "m=4: internal inconsistency: methods disagree: condition=Necessary, lp=NotNecessary"


def test_hunt_summary_ranks_a_hunt_log_and_dumps_its_worst_candidate(tmp_path, monkeypatch, capsys):
    # The seed-0 hunt of 20 trials at m = 4 has 4 candidates; the most
    # marginal, trial 12, is Necessary at 80 digits.
    log, worst = tmp_path / "hunt.jsonl", tmp_path / "worst.json"
    assert main(["hunt", "--m", "4", "--trials", "20", "--seed", "0", "--out", str(log)]) == 0
    capsys.readouterr()
    script = ROOT / "scripts" / "hunt_summary.py"
    monkeypatch.setattr(sys, "argv", [script.name, str(log), "--dump-worst", str(worst)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "CandidateCounterexample: 4", "ConsistentConverse: 4", "ConsistentProven: 12",
    ]
    assert lines[5].split()[0] == "12" and lines[5].split()[3] == "1.437e-03"
    assert lines[-1] == f"most marginal candidate (trial 12) written to {worst}"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert json.loads(worst.read_text()) == records[12]["source"]
    assert main(["omnivocality", str(worst), "--dps", "80"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: Necessary (methods agree)"


@pytest.mark.parametrize("script, args, message", [
    ("complete_graph_table.py", ["--max-m", "17"], "--max-m must be at most 16"),
    ("complete_graph_table.py", ["--mult", "0"], "--mult must be at least 1, got 0"),
    ("hunt_summary.py", ["missing.jsonl"], "cannot read missing.jsonl"),
    ("hunt_summary.py", ["truncated.jsonl"], "truncated.jsonl: line 2 is not JSON"),
    ("hunt_summary.py", ["other.jsonl"], "other.jsonl: line 2 has no 'classification'"),
    ("hunt_summary.py", ["bare.jsonl"], "bare.jsonl: line 2 is a candidate without 'gaps'"),
    ("hunt_summary.py", ["full.jsonl", "--dump-worst", "w.json"],
     "full.jsonl: line 1 is a candidate without 'source'"),
    ("hunt_summary.py", ["no_gaps.jsonl"], "no_gaps.jsonl: line 1: 'gaps' must be a nonempty list"),
    ("hunt_summary.py", ["int_gaps.jsonl"], "int_gaps.jsonl: line 1: 'gaps' must be a nonempty list"),
    ("hunt_summary.py", ["str_capacity.jsonl"], "str_capacity.jsonl: line 1: 'capacity' must be a number"),
    ("hunt_summary.py", ["latin1.jsonl"], "latin1.jsonl is not UTF-8 text (invalid start byte)"),
    ("hunt_summary.py", ["long_int.jsonl"],
     "long_int.jsonl: line 1 is not JSON (Exceeds the limit (4300 digits)"),
    ("hunt_summary.py", ["sourced.jsonl", "--dump-worst", "missing/w.json"],
     "cannot write missing/w.json: No such file or directory"),
    pytest.param("hunt_summary.py", ["sourced.jsonl", "--dump-worst", "/dev/full"],
                 "cannot write /dev/full: No space left on device", marks=NO_DEV_FULL),
    ("hunt_summary.py", ["full.jsonl", "--top", "-1"], "--top must be at least 0, got -1"),
    ("complete_graph_table.py", ["--max-m", "2"], "--max-m must be at least 3, got 2"),
    ("complete_graph_table.py", ["--max-m", "-4"], "--max-m must be at least 3, got -4"),
    ("complete_graph_table.py", ["--family", "wheel", "--max-m", "3"],
     "--max-m must be at least 4, got 3"),
    ("complete_graph_table.py", ["--family", "grid"], "invalid choice: 'grid'"),
    ("complete_graph_table.py", ["--family", "windmill", "--max-m", "4"],
     "--max-m must be at least 5, got 4"),
])
def test_scripts_reject_bad_arguments_before_any_output(
    tmp_path, monkeypatch, capsys, script, args, message
):
    monkeypatch.chdir(tmp_path)
    record = '{"classification": "ConsistentProven", "trial": 0}\n'
    (tmp_path / "truncated.jsonl").write_text(record + record[:20] + "\n")
    (tmp_path / "latin1.jsonl").write_bytes(record.encode() + b'{"classification": "\xff"}\n')
    (tmp_path / "long_int.jsonl").write_text('{"classification": "x", "trial": 1' + "0" * 5000 + "}\n")
    (tmp_path / "other.jsonl").write_text(record + '{"trial": 1}\n')
    candidate = '{"classification": "CandidateCounterexample", "trial": 3'
    (tmp_path / "bare.jsonl").write_text(record + candidate + "}\n")
    listed = ', "seed": 3, "atoms_digest": "0", "gaps": [0.1], "capacity": 1.0}\n'
    (tmp_path / "full.jsonl").write_text(candidate + listed)
    (tmp_path / "sourced.jsonl").write_text(candidate + ', "source": {}' + listed)
    for name, good, bad in [
        ("no_gaps", '"gaps": [0.1]', '"gaps": []'),
        ("int_gaps", '"gaps": [0.1]', '"gaps": 5'),
        ("str_capacity", '"capacity": 1.0', '"capacity": "x"'),
    ]:
        (tmp_path / f"{name}.jsonl").write_text(candidate + listed.replace(good, bad))
    path = ROOT / "scripts" / script
    monkeypatch.setattr(sys, "argv", [path.name] + args)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
