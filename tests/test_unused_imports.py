"""No linter ships with the project, so this stdlib-``ast`` check stands in
for one rule: a non-``__init__`` module of the package uses every name it
imports. Package ``__init__`` modules import names to re-export them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pufstack"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imported[local] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in imported.items() if name not in used)]


def test_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
