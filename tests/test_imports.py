"""Every name a package or test module imports is read in that module,
every private module-level name of the package is read somewhere in
the package, and every public name is read by the package, the
benchmark or the acceptance tests.

There is no linter among the test dependencies, so this stands in for
its unused-import and dead-code rules.  Names listed in a module's
``__all__`` count as read by that module: they are re-exported on
purpose, and the public-name guard checks that someone reads them.  The
acceptance tests are left out of the import check: that file is kept as
written.
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


def _exported(tree) -> set:
    """The names a module lists in __all__."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


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
    read |= _exported(tree)
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
           "__all__ = ['field']\n"
           "@dataclass\nclass A:\n    x: int\n")
    assert _unused_imports(src) == ["os (line 3)"]


def _unread_private_names(sources: dict) -> list:
    """Module-level _private functions, classes and constants of the
    {file name: source} modules that no module reads, as a name or as an
    attribute."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = _read(trees.values())
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                targets = [node.target.id]
            else:
                continue
            unread += [f"{name}: {target}" for target in targets
                       if target.startswith("_")
                       and not target.startswith("__")
                       and target not in read]
    return sorted(unread)


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
    """Names in the __all__ of the {file name: source} exporters that
    none of the reader sources reads, as a name or as an attribute."""
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
    exporters = {"a.py": ("__all__ = ['f', 'g', 'h', 'K']\n"
                          "def f():\n    return g()\n"
                          "def g():\n    pass\n"
                          "def h():\n    pass\n"
                          "K = 3\n")}
    readers = [*exporters.values(),
               "from .a import f, h\nimport a\nx = a.K + f()\n"]
    assert _unread_public_names(exporters, readers) == ["a.py: h"]


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
