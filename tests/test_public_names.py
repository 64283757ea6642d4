"""Every public top-level name in ``src/skomni`` has a caller outside the tests.

A name that only the tests use is a test helper and belongs in
``tests/``.  A reference is any use of the name, or an attribute of that
name, in the code of ``src/``, ``scripts/`` or ``perfbench/``; a string
constant equal to the name counts too, since the benchmark's tracer names
what it wraps by ``(module, name)`` strings.  Docstrings do not count.
``cmd_*`` functions are exempt: ``cli.main`` dispatches them by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skomni"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _public_names(tree):
    """Names a module binds at top level that do not start with '_'."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_") and not n.startswith("cmd_")}


def _docstrings(tree):
    """The id of every docstring constant in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _references(tree):
    """Every name the code loads, reads as an attribute, imports or spells
    as a string constant outside a docstring."""
    docstrings = _docstrings(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                refs.add(node.value)
    return refs


def unused_public_names():
    """``module.name`` for each public name of the package that no code in
    ``src/``, ``scripts/`` or ``perfbench/`` refers to."""
    refs = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs |= _references(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unused += [f"{path.stem}.{n}" for n in sorted(_public_names(tree) - refs)]
    return unused


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_the_name_check_sees_a_name_only_a_docstring_mentions():
    code = '"""helper is documented here."""\ndef helper():\n    """helper"""\n'
    tree = ast.parse(code)
    assert _public_names(tree) - _references(tree) == {"helper"}
    tree = ast.parse(code + 'WRAPPED = [("skomni.x", "helper")]\n')
    assert _public_names(tree) - _references(tree) == {"WRAPPED"}
