import hashlib

import pytest

from clustercolor import (
    check_decomposition,
    gen_grid,
    gen_kst,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
)
from clustercolor import pace
from clustercolor.graph import bags_layered_width, edge_span, layer_index


def _checked_width(g, ltd):
    """The layered width of ``ltd``, after asserting that its decomposition
    and its layering are valid for ``g``."""
    td = ltd.td
    assert check_decomposition(g.n, g.edges, td.bags, td.edges, td.root).ok
    layer_of, partition = layer_index(g.n, ltd.layering.layers)
    assert partition.passed and edge_span(g.edges, layer_of).passed
    return bags_layered_width(td.bags, layer_of)


def test_plain_grid_shape():
    g, ltd, delta = gen_grid(3)
    assert g.n == 9
    assert len(g.edges) == 12
    assert delta == 4
    assert _checked_width(g, ltd) == 2


def test_triangulated_grid_shape():
    g, ltd, delta = gen_grid(3, triangulated=True)
    assert g.n == 9
    assert len(g.edges) == 16
    assert delta == 6
    assert (0, 4) in g.edges
    assert _checked_width(g, ltd) == 2


def test_grid_single_vertex():
    g, ltd, delta = gen_grid(1)
    assert g.n == 1
    assert len(g.edges) == 0
    assert delta == 0
    assert _checked_width(g, ltd) == 1


def test_triangulated_grid_degrees():
    g, _, delta = gen_grid(5, triangulated=True)
    assert g.max_degree() == 6 == delta


def test_rect_grid():
    g, ltd, delta = gen_rect_grid(3, 5)
    assert g.n == 15
    assert delta == 4
    assert _checked_width(g, ltd) == 3
    assert ltd.td.width() == 3
    with pytest.raises(ValueError):
        gen_rect_grid(0, 3)


def test_path_instance():
    g, ltd, delta = gen_path(6)
    assert g.n == 6
    assert len(g.edges) == 5
    assert delta == 2
    assert _checked_width(g, ltd) == 1
    g1, ltd1, delta1 = gen_path(1)
    assert g1.n == 1 and delta1 == 0
    assert _checked_width(g1, ltd1) == 1


def test_kst_graph_and_instance():
    g = gen_kst(2, 3)
    assert g.n == 5
    assert g.edges == {(a, 2 + b) for a in range(2) for b in range(3)}

    gi, ltd, delta = gen_kst_instance(2, 3)
    assert gi.edges == g.edges
    assert delta == 3
    assert _checked_width(gi, ltd) == 3


# SHA-256 of the .gr, .td and .layers files of two rectangular grids.
RECT_FILES_SHA256 = {
    (3, 5): (
        "3cf219c64a49e592231f2dc8c1200eec890b10fec5a270a411860c912a1e9547",
        "fe2d8ab812b90a55bb400aaa80876d03a708da2acbc9d20351579d5acbe91bd6",
        "695eccd755914f6d05de6e7b9df30cdcb73c965bec0596f1708d217c06461937",
    ),
    (1, 4): (
        "260ffd6b6cb30d0151096912c3232d3d334c749f21a27f49314bd92e7ffc311f",
        "e5e510618092c9308b3c3b2975149cd5a42ac763ef863851a688183aabd34051",
        "16fbd7d1f18d2fedb247d73edc3bc6aa040f5ab99bd3b48c35b79e543d22179b",
    ),
}


@pytest.mark.parametrize("shape", sorted(RECT_FILES_SHA256))
def test_rect_grid_file_bytes_are_pinned(tmp_path, shape):
    g, ltd, _ = gen_rect_grid(*shape)
    paths = [tmp_path / f"rect.{ext}" for ext in ("gr", "td", "layers")]
    pace.write_graph(g, paths[0])
    pace.write_td(ltd.td, g.n, paths[1])
    pace.write_layering(ltd.layering, paths[2])
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == RECT_FILES_SHA256[shape]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gen_grid(0), "grid size must be positive"),
        (lambda: gen_path(0), "path length must be positive"),
        (lambda: gen_kst(0, 3), "both sides must be nonempty"),
        (lambda: gen_kst(2, 0), "both sides must be nonempty"),
    ],
)
def test_generators_reject_empty_sizes(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
