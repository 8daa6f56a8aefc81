"""No module of the package, of ``tools/`` or of ``tests/`` imports a name it
never uses, no module of the package reaches into another one's private
names, and the independent references take nothing from the package but
constants, types and errors.

A name listed in the module's ``__all__`` counts as used: the package
re-exports what it imports there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spdcsim").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tools").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list:
    """The other modules' private names that ``source`` uses, sorted: what
    it imports by ``from .m import _x``, and ``m._x`` of a module ``m`` that
    came in through ``from . import m``."""
    tree = ast.parse(source)
    modules = set()
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                reached.update(
                    f"{node.module}.{alias.name}" for alias in node.names if _private(alias.name)
                )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            reached.add(f"{node.value.id}.{node.attr}")
    return sorted(reached)


def test_scanner_flags_private_names_of_sibling_modules():
    source = (
        "from . import a, b as c\n"
        "from .d import _e, f\n"
        "from os import _g\n"
        "x = a._h + a.i + a.__name__ + c._j\n"
        "def k(self):\n    return self._l, z._m\n"
    )
    assert private_reaches(source) == ["a._h", "c._j", "d._e"]
    assert private_reaches("from . import a\nfrom .d import e, __version__\na.f(a.__doc__)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


# The modules that the library is checked against, and what they may import
# from it: constants, types and errors, never a function they would then
# compare with itself.
REFERENCES = [
    ROOT / "tests" / "reference_kernels.py",
    ROOT / "tests" / "dense_joint.py",
    ROOT / "src" / "spdcsim" / "oracle.py",
]
REFERENCE_ALLOWED = {
    # constants
    "ALIAS_WINDOW_FRACTION", "DEGENERATE_MASS_FRACTION", "INTER_FREQ", "INTER_TIME",
    "INTRA_TIME", "PHYSICAL", "TEMPORAL", "_SERIES_CUTOFF", "_UNITARITY_TOL",
    # types
    "Correlation1D", "DispersiveElement", "FrequencyGrid", "PhaseMismatch", "SourceFields",
    "WidthReport",
    # errors
    "AliasRisk", "DegenerateTrace", "PreconditionError",
}


def package_imports_beyond(source: str, allowed: set) -> list:
    """What ``source`` imports from ``spdcsim`` (relative imports included)
    outside ``allowed``, sorted; a module imported whole counts by its name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "spdcsim"
        ):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name for alias in node.names if alias.name.split(".")[0] == "spdcsim"
            )
    return sorted(names - allowed)


def test_scanner_flags_a_library_function_imported_by_a_reference():
    planted = "from spdcsim.correlators import _rms_bandwidth\n"
    assert package_imports_beyond(planted, REFERENCE_ALLOWED) == ["_rms_bandwidth"]
    source = (
        "import numpy as np\nimport spdcsim.source\nfrom os import path\n"
        "from spdcsim.correlators import INTER_FREQ\n"
        "from .elements import DispersiveElement, dispersive_transfer\n"
        "from . import analysis\n"
    )
    assert package_imports_beyond(source, REFERENCE_ALLOWED) == [
        "analysis", "dispersive_transfer", "spdcsim.source"
    ]


@pytest.mark.parametrize("path", REFERENCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_references_import_only_constants_types_and_errors(path):
    assert package_imports_beyond(path.read_text(encoding="utf-8"), REFERENCE_ALLOWED) == []
