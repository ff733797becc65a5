"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discretum"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Sorted names bound by an import in `source` and never read there."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detection():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b", "os"]
    assert unused_imports("import os.path\nimport numpy as np\n"
                          "np.zeros(os.sep)\n") == []


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "dynamics.py", "errors.py",
                                         "lattice.py", "scattering.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
