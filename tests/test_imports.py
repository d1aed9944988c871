"""Every name a module imports is used in that module, every private
helper of the package, and of the tests, is used somewhere in it, every
public function or class of the package is exported or named by the
package or the benchmark, and every function of ``tests/helpers.py`` is
named by another test module.

The package's ``__init__.py`` is left out of the import check: its imports
are re-exports, checked against ``__all__`` by ``test_exports.py``.
"""

import ast
from pathlib import Path

import pytest

import clustercolor

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/clustercolor", "bench", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)

PACKAGE = sorted((ROOT / "src/clustercolor").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unreferenced_helpers(
    sources: dict[str, str], owner: str | None = None, public: bool = False
) -> list[str]:
    """The module-level functions and classes, as "module.name", that no code
    of ``sources`` (module name -> source) names outside their own
    definition. Without ``owner`` these are the private ones of every
    module, or the public ones with ``public``; with it, all those of
    module ``owner``, which only the other modules' code can name. Any name
    or attribute of the same spelling counts, so a helper it reports is one
    that nothing in ``sources`` can reach."""
    helpers = []
    named: set[str] = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                private = own.startswith("_") and not own.startswith("__")
                if (module == owner) if owner else private != public:
                    helpers.append((module, own))
            if module == owner:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    named.add(name)
    return [f"{module}.{name}" for module, name in helpers if name not in named]


def test_finds_an_unreferenced_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
        "class _Gone:\n    pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert _unreferenced_helpers(sources) == ["a._dead", "a._Gone"]


def test_package_uses_every_private_helper():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert _unreferenced_helpers(sources) == []


# The public names of the package's modules that it does not export and
# that no code of the package or the benchmark names: the file readers that
# README's library tour gives its users beside ``read_edges``.
LIBRARY_ONLY = {"clustercolor.pace.read_bags", "clustercolor.pace.read_rows"}


def _unexported_public_code() -> list[str]:
    """The public functions and classes of the package, as "module.name",
    that its ``__all__`` leaves out and that no code of the package or the
    benchmark names: code that only the tests, or users, can reach."""
    sources = {
        f"{path.parent.name}.{path.stem}": path.read_text(encoding="utf-8")
        for path in [*PACKAGE, *(ROOT / "bench").glob("*.py")]
    }
    exported = set(clustercolor.__all__)
    return [
        name
        for name in _unreferenced_helpers(sources, public=True)
        if name.startswith("clustercolor.") and name.split(".")[-1] not in exported
    ]


def test_finds_an_unreferenced_public_name():
    sources = {
        "a": "def used():\n    pass\n\ndef alone():\n    return alone()\n\n"
        "def _private():\n    pass\n",
        "b": "from a import used\nused()\n",
    }
    assert _unreferenced_helpers(sources, public=True) == ["a.alone"]


def test_package_has_no_public_code_that_only_tests_reach():
    """A public name of the package is exported, or the package or the
    benchmark names it; one kept only for the tests belongs in them, and
    one kept for users joins ``LIBRARY_ONLY`` on purpose."""
    assert set(_unexported_public_code()) == LIBRARY_ONLY


def test_finds_a_shared_test_helper_that_no_other_module_names():
    sources = {
        "helpers": "def used():\n    return _inner()\n\ndef _inner():\n    pass\n\n"
        "def gone():\n    return gone()\n",
        "test_a": "from helpers import used\nused()\n",
    }
    assert _unreferenced_helpers(sources, owner="helpers") == [
        "helpers._inner",
        "helpers.gone",
    ]


def test_every_shared_test_helper_is_named_by_another_test_module():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in TESTS}
    assert _unreferenced_helpers(sources, owner="helpers") == []


def test_tests_use_every_private_helper():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in TESTS}
    assert _unreferenced_helpers(sources) == []
