"""Source rules that no single behaviour test would catch."""

import ast
from pathlib import Path

import dynkin

SOURCES = sorted(Path(dynkin.__file__).parent.glob("*.py"))


def test_sources_use_no_assert_statements():
    # python -O strips assert, so a load-bearing check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _inexact(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)


def test_sources_use_no_floats_or_true_division():
    # every value is a Fraction or an int; a float anywhere loses exactness
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _inexact(node)
    ]
    assert SOURCES and found == []


def test_verify_shares_no_sweep_code():
    # the certifier must not reuse the sweep code it certifies: nothing
    # from snell, and from scheme only the types it audits
    path = Path(dynkin.__file__).parent / "verify.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:  # from . import snell names a module
                package = module in ("", "dynkin")
                imported.add((alias.name, "*") if package else (module, alias.name))
        elif isinstance(node, ast.Import):
            imported |= {(alias.name.rsplit(".", 1)[-1], "*") for alias in node.names}
    assert not any(module == "snell" for module, _ in imported)
    assert {name for module, name in imported if module == "scheme"} <= {
        "EquilibriumProfile",
        "SchemeStep",
    }
