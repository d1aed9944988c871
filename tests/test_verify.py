import random

import pytest

from clustercolor import (
    BudgetExceeded,
    Graph,
    edge_components,
    trigrid_path_oracle,
)


@pytest.mark.parametrize("edge", [(-1, 0), (0, 5), (3, 0)])
def test_edge_components_names_an_edge_out_of_range(edge):
    """A negative end would index the colors from the back and merge
    vertices that share no edge; an end >= n has no color. Both are named."""
    u, v = edge
    with pytest.raises(ValueError) as err:
        edge_components(3, [(0, 1), edge], [1, 1, 1])
    assert str(err.value) == f"edge ({u}, {v}) out of range for n=3"


def test_edge_components_accepts_self_loops_and_repeats():
    report = edge_components(3, [(0, 0), (0, 1), (1, 0), (2, 2)], [1, 1, 1])
    assert report.components == ((1, (0, 1)), (1, (2,)))


def test_components_proper_two_coloring_of_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    report = edge_components(g.n, g.edges, {0: 1, 1: 2, 2: 1, 3: 2})
    assert report.max_size == 1
    assert len(report.components) == 4
    assert report.per_color_max == {1: 1, 2: 1}


def test_components_single_color_connected_graph():
    g = Graph(3, [(0, 1), (1, 2)])
    report = edge_components(g.n, g.edges, {v: 5 for v in range(3)})
    assert report.components == ((5, (0, 1, 2)),)
    assert report.max_size == 3


def test_components_four_cycle_split():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = edge_components(g.n, g.edges, {0: 1, 1: 1, 2: 2, 3: 2})
    assert report.max_size == 2
    assert len(report.components) == 2


def test_components_cover_all_vertices():
    g = Graph(5, [(0, 1), (3, 4)])
    report = edge_components(g.n, g.edges, {0: 1, 1: 2, 2: 1, 3: 3, 4: 3})
    covered = sorted(v for _, verts in report.components for v in verts)
    assert covered == [0, 1, 2, 3, 4]
    assert report.max_size == 2
    assert report.per_color_max == {1: 1, 2: 1, 3: 2}


def test_components_require_total_coloring():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        edge_components(g.n, g.edges, {0: 1})


def test_missing_vertex_message_names_the_smallest():
    coloring = {0: 1, 2: 1, 4: 2}
    for run in (
        lambda: edge_components(6, [(0, 5)], coloring),
        lambda: edge_components(6, [(0, 5)], [1]),
    ):
        with pytest.raises(ValueError, match=r"^coloring missing vertex 1$"):
            run()


def bfs_components(n, edges, coloring):
    """Reference: breadth-first search from each unvisited vertex in order."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        piece, queue = [start], [start]
        for v in queue:
            for u in adj[v]:
                if not seen[u] and coloring[u] == coloring[v]:
                    seen[u] = True
                    piece.append(u)
                    queue.append(u)
        components.append((coloring[start], tuple(sorted(piece))))
    per_color = {}
    for color, verts in components:
        per_color[color] = max(per_color.get(color, 0), len(verts))
    max_size = max((len(verts) for _, verts in components), default=0)
    return tuple(components), max_size, per_color


def test_edge_components_match_distinct_edges_and_a_bfs():
    rng = random.Random(29)
    for trial in range(300):
        n = 0 if trial < 3 else rng.randint(1, 40)
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v:
                edges.append((u, v))
        # Repeat some edges, in both orientations.
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
        edges += rng.sample(edges, len(edges) // 4)
        rng.shuffle(edges)
        palette = rng.choice([(1, 2, 3), (0, 7), (-1, 4, 5, 9), ("a", "b")])
        coloring = {v: rng.choice(palette) for v in range(n)}
        report = edge_components(n, edges, coloring)
        # The graph's distinct edges give the same report.
        assert report == edge_components(n, Graph(n, edges).edges, coloring)
        components, max_size, per_color = bfs_components(n, edges, coloring)
        assert report.components == components
        assert report.max_size == max_size
        assert report.per_color_max == per_color


def test_refining_colors_never_grows_components():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 10)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        coarse = {v: rng.randint(1, 2) for v in range(n)}
        fine = {v: (coarse[v], rng.randint(1, 2)) for v in range(n)}
        coarse_max = edge_components(g.n, g.edges, coarse).max_size
        fine_max = edge_components(g.n, g.edges, fine).max_size
        assert fine_max <= coarse_max


def test_path_oracle_small_sizes():
    assert trigrid_path_oracle(2)
    assert trigrid_path_oracle(3)


def test_path_oracle_guards():
    with pytest.raises(BudgetExceeded):
        trigrid_path_oracle(5)
    with pytest.raises(ValueError):
        trigrid_path_oracle(0)
