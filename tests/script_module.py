"""Import a script that sits outside any package, such as ``tools/*.py``."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str, relative_path: str):
    """The file at ``relative_path`` under the repository root, run as the
    module ``name`` and registered in ``sys.modules`` under that name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
