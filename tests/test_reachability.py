"""Every function and class of ``src/enslab`` is reached by the program.

A definition in ``src/enslab`` that no module of ``src/enslab`` or ``demos``
refers to runs only in the tests: it belongs in ``tests/oracles.py``, or
nowhere.  This scan parses those modules with ``ast`` and fails on any
function, method or class whose name is not read outside its own
definition.

The match is by name alone, so it is coarse.  A method counts as reached
when an attribute of its name is read anywhere (a ``solve`` of one class is
covered by another class's ``solve``), and a name held in a string or in
``__all__`` does not count.  Dunder methods are called by the language and
are exempt, as are the entry points that ENTRY_POINTS lists.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/enslab").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "demos").glob("*.py"))

# module -> definitions called from outside the program
ENTRY_POINTS = {
    # the console script `enslab`
    "cli.py": {"main"},
    # the documented readers of the ENSF1 field format
    "fieldio.py": {"read_scalar", "read_vector"},
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute the module reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node.lineno))
    return found


def unreached(package, callers) -> list[str]:
    """'<module>:<line>: <name>' for each definition of the package modules
    that no caller module reads outside the definition's own lines."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in {*package, *callers}}
    reads = {p: references(trees[p]) for p in callers}
    missing = []
    for path in package:
        exempt = ENTRY_POINTS.get(path.name, set())
        for node in ast.walk(trees[path]):
            if not isinstance(node, DEFINITIONS) or node.name in exempt:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (p == path and line in span)
                       for p, found in reads.items() for name, line in found):
                missing.append(f"{path.name}:{node.lineno}: {node.name}")
    return missing


def test_every_definition_is_reached():
    assert unreached(PACKAGE, CALLERS) == []


def test_scan_finds_an_unreached_function(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def used():\n    return helper()\n\n"
                      "def helper():\n    return 1\n\n"
                      "def unused():\n    return unused()\n\n"
                      "class Box:\n    def __init__(self):\n        pass\n\n"
                      "    def open(self):\n        return self\n\n"
                      "print(used(), Box)\n")
    assert unreached([module], [module]) == ["module.py:7: unused", "module.py:14: open"]
