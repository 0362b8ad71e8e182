"""Static checks on the package source, with the standard library's ast."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "choremms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. A name read only inside a
    quoted annotation counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: Sequence) -> 'Iterable':\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 2: system"]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def float_uses(source: str) -> list[str]:
    """Float literals and calls of the builtin `float` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float(...)")
    return found


def test_float_uses_are_found():
    source = ("x = 1.5\n"
              "y = float('2')\n"
              "z = 3 / 4  # true division gives a float but is not flagged\n"
              "w = 1e3\n"
              "v = 2\n")
    assert float_uses(source) == ["line 1: literal 1.5", "line 2: float(...)",
                                  "line 4: literal 1000.0"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def called_name(call: ast.Call) -> str | None:
    """`f` for a call `f(...)` or `m.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def scaling_uses(source: str) -> list[str]:
    """Reads of `.denominator` and calls of `lcm`, bare or as `math.lcm`:
    the decision of how a row becomes integers, which only core.py makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            found.append(f"line {node.lineno}: .denominator")
        elif isinstance(node, ast.Call) and called_name(node) == "lcm":
            found.append(f"line {node.lineno}: lcm(...)")
    return found


def test_scaling_uses_are_found():
    source = ("import math\n"
              "from math import lcm\n"
              "d = tau.denominator\n"
              "s = math.lcm(2, 3) + lcm(4, 6)\n"
              "n = tau.numerator\n"
              "f = math.lcm\n")
    assert scaling_uses(source) == ["line 3: .denominator", "line 4: lcm(...)",
                                    "line 4: lcm(...)"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_scales_rows(path):
    assert scaling_uses(path.read_text(encoding="utf-8")) == []


def calls_of(source: str, name: str) -> list[str]:
    """Calls of the function `name`, bare or as an attribute."""
    return [f"line {node.lineno}: {name}(...)" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == name]


def test_calls_of_are_found():
    source = ("from choremms import packing\n"
              "from choremms.packing import first_fit_places_all\n"
              "ok = first_fit_places_all([3, 2], 5, 1)\n"
              "probe = first_fit_places_all\n"
              "ok = packing.first_fit_places_all([3], 3, 1) or first_fit([3], 3)\n")
    assert calls_of(source, "first_fit_places_all") == [
        "line 3: first_fit_places_all(...)", "line 5: first_fit_places_all(...)"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "packing.py"],
                         ids=lambda p: p.name)
def test_only_packing_probes_first_fit(path):
    # every threshold search goes through packing.smallest_fitting_cap
    assert calls_of(path.read_text(encoding="utf-8"), "first_fit_places_all") == []


def stderr_uses(source: str) -> list[str]:
    """`sys.stderr` named outside a function `main`: where an error is
    printed, which in cli.py only `main` does."""
    found = []

    def visit(node, function):
        if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
                and function != "main"):
            found.append(f"line {node.lineno}: sys.stderr in {function}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), "<module>")
    return found


def test_stderr_uses_are_found():
    source = ("import sys\n"
              "def cmd(args):\n"
              "    print('error', file=sys.stderr)\n"
              "    def inner():\n"
              "        sys.stderr.write('x')\n"
              "def main(argv=None):\n"
              "    print('error', file=sys.stderr)\n"
              "sys.stderr.flush()\n")
    assert stderr_uses(source) == ["line 3: sys.stderr in cmd", "line 5: sys.stderr in inner",
                                   "line 8: sys.stderr in <module>"]


def test_only_cli_main_prints_errors():
    # cli.main is the one exit-code boundary: it alone prints the error line
    assert stderr_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []
