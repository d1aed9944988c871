import types

import clustercolor

from test_imports import ROOT, _unreferenced_helpers

# The exported names that no code of the package or the benchmark names:
# the library's own entry points, which only callers outside it reach. Each
# is kept for the user named beside it.
LIBRARY_ONLY = {
    # tests/corpus.py builds instances with it.
    "bfs_layering",
    # README's constants chain, and the bound g of criterion 01.
    "compute_constants",
    # Criterion 07's reference oracle.
    "trigrid_path_oracle",
    # The library's only 2-colorer: README's first bullet, criterion 10.
    "two_color_bounded_treewidth",
}


def test_export_list_matches_the_public_top_level_names():
    exported = clustercolor.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(clustercolor, name), name
    public = {
        name
        for name, value in vars(clustercolor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)


def _unnamed_exports(exported, sources):
    """The names of ``exported`` that no code of ``sources`` (module name ->
    source) names outside their own definition: ``_unreferenced_helpers``
    over one more module that defines each exported name, which only the
    code of ``sources`` can name."""
    stub = "".join(f"def {name}():\n    pass\n" for name in exported)
    found = _unreferenced_helpers({**sources, "__all__": stub}, owner="__all__")
    return {name.removeprefix("__all__.") for name in found}


def test_finds_an_export_that_no_code_names():
    sources = {
        "a": "def used():\n    return kept()\n\ndef kept():\n    pass\n\n"
        "def alone():\n    return alone()\n",
        "b": "import a\na.used()\n",
    }
    assert _unnamed_exports(["used", "kept", "alone"], sources) == {"alone"}


def test_library_only_exports_are_pinned():
    """A new exported name that nothing in the package or the benchmark
    calls joins ``LIBRARY_ONLY`` on purpose."""
    sources = {
        f"{path.parent.name}.{path.stem}": path.read_text(encoding="utf-8")
        for folder in ("src/clustercolor", "bench")
        for path in (ROOT / folder).glob("*.py")
        if path.name != "__init__.py"
    }
    assert _unnamed_exports(clustercolor.__all__, sources) == LIBRARY_ONLY
