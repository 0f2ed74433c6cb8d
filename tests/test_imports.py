"""Every name a library module imports at module level is used there, no
module imports another's private names, every ``__all__`` lists only names
that exist, the package re-exports only listed names, only linalg imports
csv (no script in scripts/ does), the package imports nothing from
scipy, anywhere, every name the benchmark's tracer wraps exists, no
test oracle in ``tests/oracles.py`` is also a library name, and every
public name has a caller outside the tests, or is on a table of those
that only an acceptance check calls."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import spectrace

SRC = Path(spectrace.__file__).parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

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

# Public names whose only caller is an acceptance check, with the check whose
# body calls it; no check body may change, so they stay in the library.
ACCEPTANCE_ONLY = {
    ("estimators", "taylor_remainder"): "c04",
    ("linalg", "sample_covariance"): "c04's _pair, c10",
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


def test_every_name_the_bench_tracer_wraps_resolves():
    # bench/tracer.py's TARGETS, read as a literal: no bench code is imported
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    assert ("functions", "TestFunction.deriv") in targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"spectrace.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_oracles_are_not_library_names():
    # an oracle that drifts back into the library, or is re-exported as an
    # alias, would check the code against itself
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    oracles = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert oracles
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in oracles
             if hasattr(importlib.import_module(f"spectrace.{path.stem}"), name)]
    assert found == []


def _references_by_top_level_def(path):
    """{name of each top-level def or class, None for the rest of the module:
    the names it loads or reads as attributes}. Import lines and ``__all__``'s
    strings load no name, so they do not count."""
    refs = {}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        refs.setdefault(own, set()).update(
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)))
    return refs


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name's caller is library code outside its own def or class (the
    # package's re-exports are not callers), a script or the benchmark, whose
    # text is searched as is, since the tracer names its targets in strings
    library = {path.stem: _references_by_top_level_def(path)
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    outside = "\n".join(path.read_text()
                         for path in sorted(SCRIPTS.rglob("*.py")) + sorted(BENCH.rglob("*.py")))
    uncalled = set()
    for stem, module in _modules_with_all():
        for name in module.__all__:
            called = any(name in names for caller, refs in library.items()
                         for own, names in refs.items() if (caller, own) != (stem, name))
            if not called and re.search(rf"\b{re.escape(name)}\b", outside) is None:
                uncalled.add((stem, name))
    assert uncalled == set(ACCEPTANCE_ONLY)
    # each listed name is one the acceptance battery imports, so the table
    # cannot outlive the check that calls it
    imported = {(node.module.rpartition(".")[2], alias.name)
                for node in ast.parse(ACCEPTANCE.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    assert set(ACCEPTANCE_ONLY) <= imported
