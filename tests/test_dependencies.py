"""The package depends on numpy alone: every import in src/musclerl is the
standard library, numpy or the package itself. Other packages may be
installed where the tests run, so an accidental import would otherwise pass.
It also uses only numpy's public API: no private name (np._core, ...) and no
numpy.core, which numpy 2 renamed and pyproject's numpy>=1.24 does not pin.
And it holds only production code: every module-level function and class,
and every public method and property of those classes, is named by the
package, the benchmark or the scripts, not by tests alone."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "musclerl"
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


def _private_numpy_path(parts: list[str]) -> bool:
    """A dotted name under numpy that is private: a _name (not a dunder) or core."""
    if len(parts) > 1 and parts[1] == "core":
        return True
    return any(p.startswith("_") and not (p.startswith("__") and p.endswith("__"))
               for p in parts[1:])


def private_numpy_uses(path: pathlib.Path) -> set[str]:
    """Dotted private numpy names a source file imports or reads as attributes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {"numpy"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    if alias.asname and len(parts) == 1:
                        aliases.add(alias.asname)
                    if _private_numpy_path(parts):
                        found.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] == "numpy":
                for alias in node.names:
                    if _private_numpy_path(parts + [alias.name]):
                        found.add(f"{node.module}.{alias.name}")
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:  # whole chains only
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                parts = ["numpy"] + chain[::-1]
                if _private_numpy_path(parts):
                    found.add(".".join(parts))
    return found


def test_package_uses_only_public_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    private = {f"{p.name}: {n}" for p in sources for n in private_numpy_uses(p)}
    assert not private, f"private numpy names: {sorted(private)}"


def test_private_numpy_scan_sees_attributes_and_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\nimport numpy.core.numeric\nfrom numpy._core import umath\n"
        "from numpy import _core, linalg\n"
        "def f(x):\n    return np._core.umath.clip(x, 0, 1) + np.random._generator.Generator\n"
        "ok = (np.clip, np.__version__, np.lib.stride_tricks, numpy.linalg.norm)\n"
    )
    assert private_numpy_uses(src) == {
        "numpy.core.numeric", "numpy._core.umath", "numpy._core",
        "numpy._core.umath.clip", "numpy.random._generator.Generator",
    }


# The production callers: the package (its __init__ only re-exports), the
# benchmark without its tests, and the scripts.
PRODUCTION = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    + list((ROOT / "scripts").glob("*.py"))
)
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def defined_names(path: pathlib.Path) -> set[str]:
    """Names of the module-level functions and classes of one source file, and
    Class.name for each public method and property of its classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for n in tree.body:
        if isinstance(n, (*functions, ast.ClassDef)):
            names.add(n.name)
        if isinstance(n, ast.ClassDef):
            names.update(f"{n.name}.{m.name}" for m in n.body
                         if isinstance(m, functions) and not m.name.startswith("_"))
    return names


def referenced_names(path: pathlib.Path) -> set[str]:
    """Names one source file reads: identifiers, attributes, imported names and
    the parts of strings that are a dotted name (the benchmark looks some up)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED_NAME.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_package_holds_only_production_code():
    used = set().union(*map(referenced_names, PRODUCTION))
    unreached = sorted(f"{p.stem}.{n}" for p in sorted(PACKAGE.glob("*.py"))
                       for n in defined_names(p) if n.rsplit(".", 1)[-1] not in used)
    assert not unreached, f"no code in src, perfbench or scripts names: {unreached}"


def test_reference_scan_sees_names_attributes_imports_and_dotted_strings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        '"""Docstring naming forward and backward."""\n'
        "from .nets import alpha as a\nimport pkg.beta\n"
        "def gamma():\n    return delta(pkg.epsilon, 'pkg.zeta', 'two words')\n"
        "class Eta:\n    def theta(self):\n        pass\n"
        "    @property\n    def iota(self):\n        pass\n"
        "    def _kappa(self):\n        pass\n    def __len__(self):\n        pass\n"
    )
    assert defined_names(src) == {"gamma", "Eta", "Eta.theta", "Eta.iota"}
    assert referenced_names(src) == {"alpha", "pkg", "beta", "delta", "epsilon", "zeta",
                                     "property"}
