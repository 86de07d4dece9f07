"""No module imports a name it never reads.

No linter runs in tier-1, so this scan stands in for one: it parses each
module of ``src/enslab``, ``tests`` and ``demos`` with ``ast`` and fails on
any name bound by an import that the module never reads.  Exempt are
``from __future__`` imports, names the module lists in ``__all__`` (its
re-exports) and imports on a line marked ``# noqa: F401``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/enslab", "tests", "demos") for p in (ROOT / d).glob("*.py"))


def exported(tree: ast.Module) -> set[str]:
    """The names of the module's literal ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    """'<line>: <name>' for each imported name the module never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    keep = read | exported(tree)
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in keep]


def test_every_import_is_read():
    unused = {str(p.relative_to(ROOT)): found for p in MODULES if (found := unused_imports(p))}
    assert unused == {}


def test_scan_finds_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport sys  # noqa: F401\n"
                      "from math import pi, tau\n"
                      "__all__ = ['tau']\n")
    assert unused_imports(module) == ["2: os", "4: pi"]
