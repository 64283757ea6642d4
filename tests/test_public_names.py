"""Every public top-level name in ``src/skomni`` has a caller outside the tests.

A name that only the tests use is a test helper and belongs in
``tests/``.  A reference is any use of the name, or an attribute of that
name, in the code of ``src/``, ``scripts/`` or ``perfbench/``; a string
constant equal to the name counts too, since the benchmark's tracer names
what it wraps by ``(module, name)`` strings.  Docstrings do not count.
``cmd_*`` functions are exempt: ``cli.main`` dispatches them by name.

No code in ``src/`` asks whether a model is a ``JointSource`` or a
``PinGraph`` with ``isinstance``: each model class gives its own oracle
and capacity, and ``cli._load_model`` tells files apart by their keys.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skomni"
CALLER_DIRS = ("src", "scripts", "perfbench")
MODEL_CLASSES = {"JointSource", "PinGraph"}


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


def _model_isinstance_calls(tree):
    """The line of each ``isinstance`` call whose class argument names a
    model class, by name or as a module attribute."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & MODEL_CLASSES:
                lines.append(node.lineno)
    return lines


def test_no_code_in_src_dispatches_on_the_model_class():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.stem}.py:{line}" for line in _model_isinstance_calls(tree)]
    assert found == []


def test_the_dispatch_check_sees_a_model_class_in_a_tuple_or_an_attribute():
    code = (
        "isinstance(data, dict)\n"
        "isinstance(model, (JointSource, int))\n"
        "isinstance(model, pin.PinGraph)\n"
        "type(model) is JointSource\n"
    )
    assert _model_isinstance_calls(ast.parse(code)) == [2, 3]
