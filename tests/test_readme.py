"""The README's command-line examples, run as written.

Every ``$ skomni ...`` line in the "Command line" and "Hunting for
counterexamples" sections runs through ``skomni.cli.main`` in a scratch
directory holding the README's xor model as ``xor.json``; where the README
shows output, stdout must equal it.  ``$ python scripts/...`` lines run
the script in the same directory, so the candidate workflow runs end to
end.  The "Library" section's Python block runs as written, and each line
it prints must equal the first word of that ``print`` line's comment.
"""

import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from skomni.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SECTIONS = ("Command line", "Hunting for counterexamples")


def _section(title):
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _examples():
    """(command, shown output lines) for every ``$`` line, in README order."""
    out = []
    for title in SECTIONS:
        for block in re.findall(r"^```\n(.*?)^```", _section(title), re.M | re.S):
            for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
                command, *shown = chunk.rstrip("\n").split("\n")
                out.append((command, shown))
    return out


def _xor_model():
    blocks = re.findall(r"^```json\n(.*?)^```", _section("Model files"), re.M | re.S)
    return next(b for b in blocks if '"atoms"' in b)


def test_readme_has_examples():
    commands = [command for command, _ in _examples()]
    assert "skomni omnivocality xor.json" in commands
    assert any(c.startswith("skomni hunt ") for c in commands)


def test_readme_examples_match_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xor.json").write_text(_xor_model())
    for command, shown in _examples():
        argv = shlex.split(command)
        if argv[0] == "skomni":
            code = main(argv[1:])
        else:
            assert argv[:1] == ["python"] and argv[1].startswith("scripts/"), command
            monkeypatch.setattr(sys, "argv", argv[1:])
            with pytest.raises(SystemExit) as exit_info:
                runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
            code = exit_info.value.code
        out = capsys.readouterr().out
        assert code == 0, command
        if shown:
            assert out.splitlines() == shown, command


def test_readme_library_example_prints_its_comments(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", _section("Library"), re.M | re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    shown = [line.partition("#")[2].split()[0] for line in prints]
    assert shown
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
