import pytest

from clustercolor import (
    add_apex,
    gen_grid,
    gen_kst,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
    has_kst_subgraph,
    layered_width,
    validate_layering,
    validate_tree_decomposition,
)


def test_plain_grid_shape():
    g, ltd, delta = gen_grid(3)
    assert g.n == 9
    assert len(g.edges) == 12
    assert delta == 4
    assert validate_tree_decomposition(g, ltd.td).ok
    assert validate_layering(g, ltd.layering).ok
    assert layered_width(ltd) == 2


def test_triangulated_grid_shape():
    g, ltd, delta = gen_grid(3, triangulated=True)
    assert g.n == 9
    assert len(g.edges) == 16
    assert delta == 6
    assert g.has_edge(0, 4)
    assert validate_tree_decomposition(g, ltd.td).ok
    assert validate_layering(g, ltd.layering).ok
    assert layered_width(ltd) == 2


def test_grid_single_vertex():
    g, ltd, delta = gen_grid(1)
    assert g.n == 1
    assert len(g.edges) == 0
    assert delta == 0
    assert validate_tree_decomposition(g, ltd.td).ok
    assert validate_layering(g, ltd.layering).ok
    assert layered_width(ltd) == 1


def test_triangulated_grid_degrees():
    g, _, delta = gen_grid(5, triangulated=True)
    assert max(g.degree(v) for v in g.vertices()) == 6 == delta


def test_rect_grid():
    g, ltd, delta = gen_rect_grid(3, 5)
    assert g.n == 15
    assert delta == 4
    assert validate_tree_decomposition(g, ltd.td).ok
    assert validate_layering(g, ltd.layering).ok
    assert ltd.td.width() == 3
    with pytest.raises(ValueError):
        gen_rect_grid(0, 3)


def test_path_instance():
    g, ltd, delta = gen_path(6)
    assert g.n == 6
    assert len(g.edges) == 5
    assert delta == 2
    assert validate_tree_decomposition(g, ltd.td).ok
    assert validate_layering(g, ltd.layering).ok
    assert layered_width(ltd) == 1
    g1, ltd1, delta1 = gen_path(1)
    assert g1.n == 1 and delta1 == 0
    assert validate_tree_decomposition(g1, ltd1.td).ok


def test_kst_graph_and_instance():
    g = gen_kst(2, 3)
    assert g.n == 5
    assert len(g.edges) == 6
    found, witness = has_kst_subgraph(g, 2, 3)
    assert found
    left, right = witness
    assert len(left) == 2 and len(right) == 3

    gi, ltd, delta = gen_kst_instance(2, 3)
    assert gi.edges == g.edges
    assert delta == 3
    assert validate_tree_decomposition(gi, ltd.td).ok
    assert validate_layering(gi, ltd.layering).ok
    assert layered_width(ltd) == 3


def test_add_apex():
    g, _, _ = gen_grid(3)
    g2, apexes = add_apex(g, 2)
    assert g2.n == 11
    assert apexes == frozenset({9, 10})
    for z in apexes:
        assert g2.degree(z) == 9
    assert not g2.has_edge(9, 10)
    same, none = add_apex(g, 0)
    assert same.edges == g.edges and none == frozenset()
