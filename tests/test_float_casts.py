"""Input reaches float64 through one rule: `core._real`.

``np.asarray(a, dtype=float)`` keeps only the real part of a complex
``a``, with a ComplexWarning at most; `core._real` raises a ValueError
that names the argument.  This check keeps every other float cast out of
the package.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "elm_mimo"
_FLOAT = ("float", "np.float64")


def _float_casts(source: str) -> list:
    """(enclosing function, line) of each np.array / np.asarray call that
    casts to float; calls outside any function are under '<module>'."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):  # outer functions first, inner ones win
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            owner.update((id(n), name) for n in ast.walk(node))
    casts = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("np.array", "np.asarray")):
            continue
        dtype = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(ast.unparse(d) in _FLOAT for d in dtype + node.args[1:2]):
            casts.append((owner.get(id(node), "<module>"), node.lineno))
    return sorted(casts, key=lambda cast: cast[1])


def test_only_core_real_casts_to_float():
    casts = {(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             for fn, _ in _float_casts(path.read_text(encoding="utf-8"))}
    assert casts == {("core.py", "_real")}


def test_guard_sees_a_float_cast():
    src = ("import numpy as np\n"
           "x = np.array([1], dtype=float)\n"
           "def f(a):\n"
           "    g = lambda b: np.asarray(b, np.float64)\n"
           "    return np.asarray(a, dtype=complex), g\n"
           "def _real(a):\n"
           "    return np.asarray(a, dtype=float)\n")
    assert _float_casts(src) == [("<module>", 2), ("<lambda>", 4),
                                 ("_real", 7)]
