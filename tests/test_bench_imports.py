"""The benchmark (bench/) imports the package by name, but Tier-1 collects
only tests/. These tests read the benchmark's sources without running them
and fail as soon as a package name they use is deleted or renamed: every
``from pufstack... import name`` and every ``module.attr`` access on an
imported pufstack module must resolve. Every call on a resolved pufstack
callable must also bind to its signature: no more positional arguments
than it takes, no keyword it lacks, and every required argument given."""

import ast
import importlib
import inspect
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


def _imports(tree: ast.AST):
    """({local name: module} of the imported pufstack modules,
    {local name: object} of every imported pufstack name, [missing names])."""
    modules: dict[str, types.ModuleType] = {}
    objects: dict[str, object] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pufstack":
            for alias in node.names:
                obj = _imported(node.module, alias.name)
                local = alias.asname or alias.name
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                    continue
                objects[local] = obj
                if isinstance(obj, types.ModuleType):
                    modules[local] = obj
    return modules, objects, missing


def unresolved_names(source: str) -> list[str]:
    """Package names used by ``source`` that do not exist."""
    tree = ast.parse(source)
    modules, _, missing = _imports(tree)
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


def unbound_calls(source: str) -> list[str]:
    """``name: reason`` for each call in ``source`` on an imported pufstack
    callable whose arguments do not bind to that callable's signature.
    Calls that unpack ``*args`` or ``**kwargs`` are not checked."""
    tree = ast.parse(source)
    _, objects, _ = _imports(tree)
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        base, attrs = _chain(node.func) if isinstance(node.func, ast.Attribute) \
            else (getattr(node.func, "id", None), [])
        if base not in objects:
            continue
        obj = objects[base]
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj) or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(obj).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{'.'.join([base, *attrs])}: {exc}")
    return sorted(unbound)


@pytest.mark.parametrize("name", ["workloads.py", "reference.py"])
def test_benchmark_names_resolve(name):
    assert unresolved_names((BENCH / name).read_text()) == []


@pytest.mark.parametrize("name", ["workloads.py", "reference.py"])
def test_benchmark_calls_bind(name):
    assert unbound_calls((BENCH / name).read_text()) == []


def test_deleted_names_are_reported():
    source = ("from pufstack import harness\n"
              "from pufstack.puf import Challenge, NoSuchPuf\n"
              "harness.Channel(harness.AdversaryPolicy())\n"
              "harness.NoSuchConfig()\n"
              "harness.Channel.no_such_method\n")
    assert unresolved_names(source) == ["harness.Channel.no_such_method",
                                        "harness.NoSuchConfig",
                                        "pufstack.puf.NoSuchPuf"]


def test_unbound_calls_are_reported():
    source = ("from pufstack import harness, puf\n"
              "from pufstack.puf import create_puf\n"
              "p = create_puf('photonic', 1)\n"
              "harness.Channel(harness.AdversaryPolicy(mode='replay'))\n"
              "harness.harvest_crps(p, 3, no_such=1)\n"
              "puf.create_puf('photonic', 1, {}, 4)\n"
              "create_puf(kind='photonic')\n"
              "harness.run_scenario(*args)\n")
    reported = unbound_calls(source)
    assert [entry.split(":")[0] for entry in reported] == [
        "create_puf", "harness.harvest_crps", "puf.create_puf"]
    assert "device_seed" in reported[0]
