"""Every name a module imports is used in that module.

The package's ``__init__.py`` is left out: its imports are re-exports,
checked against ``__all__`` by ``test_exports.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/clustercolor", "bench", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as read\nread('1')\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: dumps"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []
