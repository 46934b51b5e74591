"""Every name a package or test module imports is read in that module,
every private module-level name of the package is read somewhere in
the package, and every public name is read by the package, the
benchmark or the acceptance tests.

There is no linter among the test dependencies, so this stands in for
its unused-import and dead-code rules.  A module's public names are the
names its top-level functions, classes and assignments bind without a
leading underscore; no package module lists them again in an
``__all__``.  The acceptance tests are left out of the import check:
that file is kept as written.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "elm_mimo"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p for p in TESTS.glob("test_*.py")
                      if p.name != "test_acceptance.py")


def _defined(tree) -> list:
    """The names a module's top-level functions, classes and assignments
    bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return names


def _exported(tree) -> set:
    """A module's public names: those it defines without a leading
    underscore."""
    return {name for name in _defined(tree) if not name.startswith("_")}


def _read(trees) -> set:
    """Every name the trees read, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "from dataclasses import dataclass, field\n"
           "import os.path\n"
           "@dataclass\nclass A:\n    x: int\n")
    assert _unused_imports(src) == ["field (line 2)", "os (line 3)"]


def _unread_private_names(sources: dict) -> list:
    """Module-level _private functions, classes and constants of the
    {file name: source} modules that no module reads, as a name or as an
    attribute."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = _read(trees.values())
    return sorted(f"{name}: {target}" for name, tree in trees.items()
                  for target in _defined(tree)
                  if target.startswith("_") and not target.startswith("__")
                  and target not in read)


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_guard_sees_an_unread_private_name():
    sources = {"a.py": ("_TABLE = {}\n_N: int = 3\n"
                        "def _left_behind():\n    return _TABLE\n"
                        "class _Kept:\n    pass\n"
                        "def __getattr__(name):\n    return _N\n"),
               "b.py": "from .a import _Kept\nx = a._Kept\n"}
    assert _unread_private_names(sources) == ["a.py: _left_behind"]


def _unread_public_names(exporters: dict, readers: list) -> list:
    """Public names of the {file name: source} exporters that none of
    the reader sources reads, as a name or as an attribute."""
    read = _read(ast.parse(src) for src in readers)
    return sorted(f"{name}: {public}" for name, src in exporters.items()
                  for public in _exported(ast.parse(src))
                  if public not in read)


def test_no_unread_public_names():
    # a public name is kept for a program that uses it: the package
    # itself (not its re-exports), the benchmark or the acceptance
    # criteria, which the other tests do not stand in for
    exporters = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8")
               for p in [*MODULES, *PERFBENCH.rglob("*.py"),
                         TESTS / "test_acceptance.py"]]
    assert _unread_public_names(exporters, readers) == []


def test_guard_sees_an_unread_public_name():
    # no list names the public names: a function, a class and a
    # constant are flagged, an imported or private name is not
    exporters = {"a.py": ("import os\n"
                          "def f():\n    return g()\n"
                          "def g():\n    pass\n"
                          "def h():\n    pass\n"
                          "class C:\n    pass\n"
                          "class D:\n    pass\n"
                          "K = 3\nLIMIT: int = 4\n_P = 5\n")}
    readers = [*exporters.values(),
               "from .a import f, h\nimport a\nx = a.LIMIT + f() + a.D()\n"]
    assert _unread_public_names(exporters, readers) == [
        "a.py: C", "a.py: K", "a.py: h"]


def _all_assignments(source: str) -> list:
    """Lines of the source that assign a module's __all__."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "__all__"
            and isinstance(node.ctx, ast.Store)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_package_module_lists_its_public_names(path):
    # the definitions are the one declaration of a public name; the
    # library API is the imports of __init__.py
    assert _all_assignments(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_all_list():
    src = ("__all__ = ['f']\n"
           "def f():\n    pass\n"
           "__all__ += ['g']\n"
           "g = f\n"
           "names: list = __all__\n")
    assert _all_assignments(src) == [1, 4]


@pytest.mark.parametrize("module", ["scipy.special", "scipy.constants"])
def test_package_import_leaves_scipy_module_unloaded(module):
    # the sigmoid layer is numpy's; importing scipy.special cost every
    # run 47-72 ms of start-up (-X importtime, 2-vCPU x86-64 VM).  The
    # speed of light is written out; scipy.constants cost 12-16 ms.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import elm_mimo; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(sys.argv[2])))")
    out = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent),
                          module],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
