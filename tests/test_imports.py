"""Source hygiene: every name a module of the package imports is used,
every function, class and method it defines is named somewhere else, the
package exports exactly its modules' public APIs, and every name the
benchmark's tracer patches exists."""

import ast
import importlib.util
import re
from collections import defaultdict
from functools import reduce
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algcool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of the module refers to.
    ``from __future__`` imports are directives, not names, and exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from .circuit import Cut, Count\n\ndef f(x: Count):\n    return np.zeros(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Cut"]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"circuit.py", "cli.py", "cooling.py", "ensemble.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unnamed_definitions(sources: dict[str, str], others: list[str]) -> list[str]:
    """Functions, classes and methods defined in ``sources`` (a name for
    each text) that no text names outside every definition of that name:
    not the rest of ``sources``, nor ``others``. Dunders, which Python
    calls, are exempt."""
    own = defaultdict(lambda: defaultdict(set))  # name -> source -> lines of its definitions
    for key, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DEFINITIONS) and not re.fullmatch(r"__\w+__", node.name):
                own[node.name][key].update(range(node.lineno - 1, node.end_lineno))
    unnamed = []
    for name, lines in own.items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        outside = [line for key, text in sources.items()
                   for i, line in enumerate(text.splitlines()) if i not in lines[key]]
        if not any(word.search(text) for text in outside + others):
            unnamed.append(name)
    return sorted(unnamed)


def test_checker_finds_unnamed_definitions():
    source = ("class A:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n\n"
              "def lone(n):\n    return lone(n - 1)  # named only in itself\n\n\n"
              "def elsewhere():\n    pass\n")
    assert unnamed_definitions({"m.py": source}, ["elsewhere()\n"]) == ["A", "lone"]


def test_every_definition_is_named_elsewhere():
    """A function, class or method of the package that nothing in ``src/``,
    ``tests/`` or ``benchmarks/`` names is a leftover."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for folder in ("tests", "benchmarks")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unnamed_definitions(sources, others) == []


def test_package_exports_each_module_api():
    import algcool
    from algcool import analytic, circuit, compression, cooling, ensemble

    modules = (analytic, circuit, compression, cooling, ensemble)
    public = {name for name, value in vars(algcool).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(algcool, name) is getattr(module, name), name


def test_benchmark_hooks_resolve():
    """The tracer reports a target it cannot find as a ``None`` metric and
    still exits 0, so a renamed or moved function must fail here instead.
    ``benchmarks/child.py`` is a script, not a package: it is loaded by path."""
    spec = importlib.util.spec_from_file_location("benchmark_child", ROOT / "benchmarks" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = [(module, path) for module, path, _ in child.SPAN_TARGETS + child.LEAF_TARGETS]
    assert targets
    missing = []
    for module, path in targets:
        try:
            reduce(getattr, path.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []
