"""Smoke tests of the scripts under ``scripts/``, run through ``runpy``."""

import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
        assert (condition, lp) == ("Necessary", "Necessary")
        assert int(partitions) == 1
