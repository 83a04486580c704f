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
