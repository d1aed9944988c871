import types

import clustercolor


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
