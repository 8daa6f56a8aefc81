"""No module of the package or of ``tools/`` imports a name it never uses.

A name listed in the module's ``__all__`` counts as used: the package
re-exports what it imports there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "spdcsim").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names that ``source`` imports and never reads or exports, sorted."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used - {"*"})


def test_scanner_flags_an_unused_import_and_counts_exports_as_used():
    source = "import os\nimport sys, json as js\nfrom a.b import c, d\nsys.exit(c)\n"
    assert unused_imports(source) == ["d", "js", "os"]
    assert unused_imports(source + "__all__ = ['d', 'js', 'os']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
