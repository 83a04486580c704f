"""Source rules that no single behaviour test would catch."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import dynkin

SOURCES = sorted(Path(dynkin.__file__).parent.glob("*.py"))
TESTS = Path(__file__).resolve().parent
SCRIPTS = sorted((TESTS.parent / "scripts").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree):
    """Every identifier a syntax tree reads, imports or looks up as an
    attribute, with its number of occurrences."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_sources_use_no_assert_statements():
    # python -O strips assert, so a load-bearing check must raise explicitly;
    # the scripts' checks too
    found = [
        f"{path.name}:{node.lineno}"
        for path in [*SOURCES, *SCRIPTS]
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and SCRIPTS and found == []


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


def test_every_public_function_has_a_caller_outside_the_tests():
    # a module-level function, method or property that only the tests name
    # belongs in tests/; private and dunder methods start with "_"
    modules = {path: _parse(path) for path in SOURCES if path.name != "__init__.py"}
    named = Counter()
    for tree in [*modules.values(), *map(_parse, SCRIPTS)]:
        named += _names(tree)
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in modules.items()
        for top in tree.body
        for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and named[node.name] == _names(node)[node.name]  # only its own body
    ]
    assert SCRIPTS and unused == []


def test_sources_import_only_the_standard_library():
    found = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one: the package itself
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] not in {"dynkin", *sys.stdlib_module_names}
            ]
    assert SOURCES and found == []


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # every command pays for its imports first: dataclasses pulls in
    # inspect, ast, dis and tokenize, and each dataclass is slow to create
    code = (
        "import sys; before = set(sys.modules); import dynkin, dynkin.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dynkin.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "[]\n"


def test_reference_code_reads_none_of_the_kernels_it_checks():
    kernels = {
        "integer_snell",
        "leaf_stop_nodes",
        "leaf_stop_times",
        "leaf_outcomes",
        "expected_payoffs",
        "best_response_value",
    }
    references = sorted(TESTS.glob("*_reference.py"))
    found = [
        f"{path.name}:{name}"
        for path in references
        for name in sorted(_names(_parse(path)).keys() & kernels)
    ]
    assert references and found == []


def test_sources_write_json_text_in_one_place():
    # every JSON text comes from documents.json_text, which the tests hold
    # byte for byte to json.dumps(indent=2): src/ names neither dumps nor dump
    found = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in sorted(_names(_parse(path)).keys() & {"dumps", "dump"})
    ]
    assert SOURCES and found == []


def test_only_games_and_documents_read_payoffs_by_node_id():
    # every consumer reads the one integer table, spec.table; the Fraction
    # processes of spec.payoff(...) and spec.payoffs[...] are for the game's
    # own module, the parser and the tests
    found = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in SOURCES
        if path.name not in {"games.py", "documents.py"}
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr in {"payoff", "payoffs"}
    ]
    assert SOURCES and found == []
