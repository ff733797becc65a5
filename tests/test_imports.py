"""Every name a module of the package imports is used in that module, and
every name the package exports has a reader outside the unit tests."""

import ast
from pathlib import Path

import pytest

from conftest import readme_blocks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discretum"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unused_imports(source):
    """Sorted names bound by an import in `source` and never read there."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def read_names(source):
    """Names that `source` reads as a name or an attribute, leaving out the
    reads inside the top-level function or class of the same name."""
    reads = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name is not None and name != own:
                    reads.add(name)
    return reads


def unread_exports(init_source, reader_sources):
    """Sorted names `init_source` imports from its modules, read by none of
    `reader_sources`."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(exported - set().union(*map(read_names, reader_sources)))


def test_unused_import_detection():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b", "os"]
    assert unused_imports("import os.path\nimport numpy as np\n"
                          "np.zeros(os.sep)\n") == []


def test_unread_export_detection():
    init = "from .m import f, g, h, k, n\n"
    readers = ["def f():\n    return f()  # g\n",  # own and commented reads
               "from .m import h\nx = m.k\nn = 1\n"]  # import, store, read
    assert unread_exports(init, readers) == ["f", "g", "h", "n"]
    assert unread_exports(init, readers + ["f(g, h, n)\n"]) == []


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "dynamics.py", "errors.py",
                                         "lattice.py", "scattering.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_has_a_reader():
    """A name `discretum` exports is read by a module of the package, a
    README python example or an acceptance test."""
    readers = ([p.read_text() for p in MODULES] + readme_blocks("python")
               + [ACCEPTANCE.read_text()])
    assert unread_exports((PACKAGE / "__init__.py").read_text(),
                          readers) == []
