"""Every name a package or test module imports is read in that module.

There is no linter among the test dependencies, so this stands in for
its unused-import rule.  Names listed in a module's ``__all__`` count as
read: they are re-exported on purpose.  The acceptance tests are left
out: that file is kept as written.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "elm_mimo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p for p in TESTS.glob("test_*.py")
                      if p.name != "test_acceptance.py")


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
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
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
