"""Every name a library module imports at module level is used there, no
module imports another's private names, every ``__all__`` lists only names
that exist, the package re-exports only listed names, only linalg imports
csv (no script in scripts/ does), and the package imports nothing from
scipy, anywhere."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import spectrace

SRC = Path(spectrace.__file__).parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Imported but unused on purpose, each pinned by a benchmark test.
ALLOWED = {
    # bench/bench_tests.py::test_wrappers_reach_every_import_site_and_are_removed
    ("montecarlo", "sym_eigvalues"),
    # bench/bench_tests.py::test_wrappers_reach_every_import_site_and_are_removed
    ("cli", "sym_eigvalues"),
    # bench/bench_tests.py::test_wrappers_reach_every_import_site_and_are_removed
    ("estimators", "derive_seed"),
    # bench/bench_tests.py::test_wrappers_reach_every_import_site_and_are_removed
    ("estimators", "sample_gaussian"),
}


def _imports_and_loads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                    continue
                imported.add((alias.asname or alias.name).split(".")[0])
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported, loaded


def test_module_imports_are_all_used():
    unused, missing = [], set(ALLOWED)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, loaded = _imports_and_loads(path)
        missing -= {(path.stem, name) for name in imported}
        unused += [f"{path.stem}: {name}" for name in sorted(imported - loaded)
                   if (path.stem, name) not in ALLOWED]
    assert unused == []
    assert missing == set()  # every allow-listed import still exists


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "spectrace"
            ):
                found += [f"{path.stem}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _modules_with_all():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"spectrace.{path.stem}")
        if path.stem != "__init__" and hasattr(module, "__all__"):
            yield path.stem, module


def test_every_name_in_a_module_all_exists():
    missing = [f"{stem}.{name}" for stem, module in _modules_with_all()
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_imports_only_names_its_modules_list():
    listed = {stem: set(module.__all__) for stem, module in _modules_with_all()}
    tree = ast.parse((SRC / "__init__.py").read_text())
    unlisted = [f"{node.module}.{alias.name}" for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name not in listed.get(node.module, ())]
    assert unlisted == []


def _imported_modules(path):
    """Every module an import statement or import call in the file names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("import_module", "__import__")):
            yield node.args[0].value


def test_no_scipy_import_anywhere_in_the_package():
    found = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in _imported_modules(path) if name.split(".")[0] == "scipy"]
    assert found == []


def test_only_linalg_imports_csv():
    # every table, the scripts' included, goes through linalg.write_csv,
    # so CSV has one home
    scripts = sorted(SCRIPTS.rglob("*.py"))
    assert scripts
    found = [path.stem for path in sorted(SRC.glob("*.py")) + scripts
             if "csv" in _imported_modules(path)]
    assert found == ["linalg"]


def test_importing_the_package_and_cli_loads_no_scipy():
    code = ("import sys, spectrace, spectrace.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
