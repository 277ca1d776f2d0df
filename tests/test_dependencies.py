"""The package depends on numpy alone: every import in src/musclerl is the
standard library, numpy or the package itself. Other packages may be
installed where the tests run, so an accidental import would otherwise pass."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "musclerl"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "musclerl"}


def imported_modules(path: pathlib.Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {f"{p.name}: {m}" for p in sources for m in imported_modules(p) - ALLOWED}
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"


def test_import_scan_sees_nested_and_dotted_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path\nfrom . import nets\n"
                   "def f():\n    import scipy.linalg\n    from numpy import linalg\n")
    assert imported_modules(src) == {"os", "scipy", "numpy"}
