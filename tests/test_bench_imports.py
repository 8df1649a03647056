"""The benchmark (bench/) imports the package by name, but Tier-1 collects
only tests/. These tests read the benchmark's sources without running them
and fail as soon as a package name they use is deleted or renamed: every
``from pufstack... import name`` and every ``module.attr`` access on an
imported pufstack module must resolve."""

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _imported(module: str, name: str):
    """``from module import name``: an attribute, or else a submodule."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _chain(node: ast.Attribute):
    """(base name, [attr, ...]) of a dotted access such as ``a.b.c``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else (None, [])


def unresolved_names(source: str) -> list[str]:
    """Package names used by ``source`` that do not exist."""
    tree = ast.parse(source)
    modules: dict[str, types.ModuleType] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pufstack":
            for alias in node.names:
                obj = _imported(node.module, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base, attrs = _chain(node)
        if base not in modules:
            continue
        obj = modules[base]
        for i, attr in enumerate(attrs):
            if not hasattr(obj, attr):
                missing.append(".".join([base, *attrs[:i + 1]]))
                break
            obj = getattr(obj, attr)
    return sorted(set(missing))


@pytest.mark.parametrize("name", ["workloads.py", "reference.py"])
def test_benchmark_names_resolve(name):
    assert unresolved_names((BENCH / name).read_text()) == []


def test_deleted_names_are_reported():
    source = ("from pufstack import harness\n"
              "from pufstack.puf import Challenge, NoSuchPuf\n"
              "harness.Channel(harness.AdversaryPolicy())\n"
              "harness.NoSuchConfig()\n"
              "harness.Channel.no_such_method\n")
    assert unresolved_names(source) == ["harness.Channel.no_such_method",
                                        "harness.NoSuchConfig",
                                        "pufstack.puf.NoSuchPuf"]
