"""Source hygiene: every name a module of the package imports is used,
the package exports exactly its modules' public APIs, and every name the
benchmark's tracer patches exists."""

import ast
import importlib.util
from functools import reduce
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algcool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
