import random

import pytest

from clustercolor import (
    Graph,
    InvalidLayering,
    Layering,
    gen_grid,
    validate_layering,
)
from clustercolor.lists import (
    StandardPair,
    apex_split,
    compatible_lists,
    forbidden_color,
    gates,
    is_compatible,
    progress,
    segment_local_clustering_check,
    segments,
    validate_standard_pair,
)
from clustercolor.neighborhoods import has_kst_subgraph

from helpers import random_kst_free_graph, random_layered_graph, random_standard_pair


def test_forbidden_color_cycles_through_palette():
    assert [forbidden_color(i, 1) for i in range(1, 8)] == [1, 2, 3, 1, 2, 3, 1]
    assert forbidden_color(4, 2) == 4
    assert forbidden_color(5, 2) == 1


def test_segments_four_singleton_layers():
    ly = Layering([(0,), (1,), (2,), (3,)])
    level3 = segments(ly, 1, 3)
    assert [(seg.start, sorted(seg.vertices)) for seg in level3] == [
        (1, [0, 1]),
        (4, [3]),
    ]
    level1 = segments(ly, 1, 1)
    assert [(seg.start, sorted(seg.vertices)) for seg in level1] == [(2, [1, 2])]


def test_segments_skip_all_empty_windows():
    # layer 6 is congruent to the level, so only the window at 1 has
    # vertices; the all-empty window at 4 is dropped
    ly = Layering([(0,), (), (), (), (), (1,)])
    segs = segments(ly, 1, 3)
    assert [(seg.start, sorted(seg.vertices)) for seg in segs] == [(1, [0])]


def test_segments_cover_each_level_disjointly():
    rng = random.Random(71)
    for _ in range(30):
        _, ly = random_layered_graph(rng)
        s = rng.randint(1, 3)
        for level in range(1, s + 3):
            segs = segments(ly, s, level)
            assert all(seg.vertices for seg in segs)
            seen = set()
            for seg in segs:
                assert not seen & seg.vertices
                seen |= seg.vertices
            # the union misses exactly the layers congruent to the
            # forbidden start offset
            missing = ly.vertices - seen
            for v in missing:
                assert (ly.layer_of(v) - (level + 1)) % (s + 2) == s + 1


def test_compatible_lists_avoid_layer_forbidden_color():
    ly = Layering([(0,), (1,), (2,), (3,)])
    lists = compatible_lists(ly, 1)
    assert lists == {
        0: frozenset({2, 3}),
        1: frozenset({1, 3}),
        2: frozenset({1, 2}),
        3: frozenset({2, 3}),
    }
    ok, witness = is_compatible(ly, lists, 1)
    assert ok and witness is None


def test_is_compatible_flags_violations():
    ly = Layering([(0,), (1,)])
    ok, witness = is_compatible(ly, {0: {1}, 1: {1, 3}}, 1)
    assert not ok and witness == 0
    ok, witness = is_compatible(ly, {0: {2}, 1: {9}}, 1)
    assert not ok and witness == 1
    ok, witness = is_compatible(ly, {0: {2}}, 1)
    assert not ok and witness == 1
    ok, witness = is_compatible(ly, {0: {2}, 1: {1}, 5: {1, 2}}, 1, apex={5})
    assert ok
    ok, witness = is_compatible(ly, {0: {2}, 1: {1}, 5: set()}, 1, apex={5})
    assert not ok and witness == 5


def test_validate_standard_pair_axioms():
    g = Graph(3, [(0, 1), (1, 2)])
    ly = Layering([(0,), (1,), (2,)])
    lists = compatible_lists(ly, 2)
    good = StandardPair(precolored=frozenset(), lists=lists)
    assert validate_standard_pair(g, good, 2).ok

    missing = StandardPair(precolored=frozenset(), lists={0: {1}, 1: {2}})
    report = validate_standard_pair(g, missing, 2)
    assert any(c.axiom == "list-domain" for c in report.failures())

    stray_single = StandardPair(
        precolored=frozenset(),
        lists={0: {1}, 1: {1, 2, 3}, 2: {1, 2, 3}},
    )
    report = validate_standard_pair(g, stray_single, 2)
    assert any(c.axiom == "singleton-set" for c in report.failures())

    clash = StandardPair(
        precolored=frozenset({0}),
        lists={0: {1}, 1: {1, 2, 3}, 2: {1, 2, 3}},
    )
    report = validate_standard_pair(g, clash, 2)
    assert any(c.axiom == "boundary-lists" for c in report.failures())

    short_interior = StandardPair(
        precolored=frozenset({0}),
        lists={0: {1}, 1: {2, 3}, 2: {1, 2}},
    )
    report = validate_standard_pair(g, short_interior, 2)
    assert any(c.axiom == "interior-lists" for c in report.failures())


def test_standard_pair_failures_describe_their_witness():
    g = Graph(3, [(0, 1), (1, 2)])
    failing = {
        "list-domain axiom fails at 1": StandardPair(
            frozenset(), {0: frozenset({1, 2})}
        ),
        "singleton-set axiom fails at 0": StandardPair(
            frozenset(), {0: {1}, 1: {1, 2, 3}, 2: {1, 2, 3}}
        ),
        "boundary-lists axiom fails at (1,)": StandardPair(
            frozenset({0}), {0: {1}, 1: {1, 2, 3}, 2: {1, 2, 3}}
        ),
        "interior-lists axiom fails at 2": StandardPair(
            frozenset({0}), {0: {1}, 1: {2, 3}, 2: {1, 2}}
        ),
    }
    for message, pair in failing.items():
        report = validate_standard_pair(g, pair, 2)
        assert report.failures()[0].describe() == message
        with pytest.raises(InvalidLayering) as err:
            report.require(InvalidLayering)
        assert str(err.value) == f"invalid layering: {message}"


def test_progress_forces_smallest_color_and_shrinks_neighbors():
    g = Graph(3, [(0, 1), (1, 2)])
    ly = Layering([(0, 1, 2)])
    lists = compatible_lists(ly, 2)
    pair = StandardPair(precolored=frozenset(), lists=lists)
    out = progress(g, pair, {1}, 2, 2)
    assert out.precolored == frozenset({1})
    assert out.lists[1] == frozenset({3})
    assert out.lists[0] == frozenset({2, 4})
    assert out.lists[2] == frozenset({2, 4})
    again = progress(g, out, {1}, 4, 2)
    assert again.lists[1] == frozenset({3})


def test_progress_raises_when_no_color_remains():
    g = Graph(2, [(0, 1)])
    pair = StandardPair(
        precolored=frozenset({0}), lists={0: frozenset({2}), 1: frozenset({3})}
    )
    with pytest.raises(ValueError):
        progress(g, pair, {1}, 3, 2)


def test_progress_chain_stays_valid_and_monotone():
    rng = random.Random(83)
    for _ in range(40):
        s = rng.randint(1, 3)
        g, ly, pair = random_standard_pair(rng, s)
        assert validate_standard_pair(g, pair, s).ok
        avoid = rng.randint(1, s + 2)
        candidates = [v for v in g.vertices() if pair.lists[v] - {avoid}]
        if not candidates:
            continue
        force = frozenset(rng.sample(candidates, rng.randint(1, len(candidates))))
        out = progress(g, pair, force, avoid, s)
        assert validate_standard_pair(g, out, s).ok
        for v in g.vertices():
            assert out.lists[v] <= pair.lists[v]
        assert out.precolored >= pair.precolored


def test_gates_collect_conflicting_neighbors():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    pair = StandardPair(
        precolored=frozenset({0}),
        lists={
            0: frozenset({2}),
            1: frozenset({2, 3}),
            2: frozenset({1, 3}),
            3: frozenset({2, 4}),
        },
    )
    assert gates(g, pair, {0}) == frozenset({1, 3})
    assert gates(g, pair, set()) == frozenset()
    with pytest.raises(ValueError):
        gates(g, pair, {1})


def test_segment_local_clustering_check_matches_global():
    g, ltd, _ = gen_grid(4)
    ly = ltd.layering
    s = 1
    lists = compatible_lists(ly, s)
    coloring = {v: min(lists[v]) for v in g.vertices()}
    assert segment_local_clustering_check(g, ly, lists, coloring, s, 16)
    assert not segment_local_clustering_check(g, ly, lists, coloring, s, 0)


def test_segment_local_clustering_check_rejects_bad_inputs():
    g, ltd, _ = gen_grid(3)
    ly = ltd.layering
    lists = compatible_lists(ly, 1)
    coloring = {v: min(lists[v]) for v in g.vertices()}
    with pytest.raises(InvalidLayering):
        segment_local_clustering_check(g, Layering([(0,)]), lists, coloring, 1, 5)
    with pytest.raises(ValueError):
        bad_lists = dict(lists)
        bad_lists[0] = frozenset({1})
        segment_local_clustering_check(g, ly, bad_lists, coloring, 1, 5)
    with pytest.raises(ValueError):
        bad_coloring = dict(coloring)
        bad_coloring[0] = 9
        segment_local_clustering_check(g, ly, lists, bad_coloring, 1, 5)


def test_segment_check_agrees_with_global_on_random_instances():
    rng = random.Random(97)
    for _ in range(40):
        g, ly = random_layered_graph(rng)
        s = rng.randint(1, 3)
        lists = compatible_lists(ly, s)
        coloring = {v: sorted(lists[v])[rng.randrange(len(lists[v]))] for v in g.vertices()}
        k = rng.randint(0, 6)
        # the call itself cross-checks the segment count against the
        # global one and raises on disagreement
        segment_local_clustering_check(g, ly, lists, coloring, s, k)


def test_apex_split_triangle():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    res = apex_split(tri, {2}, Layering([(0,), (1,)]))
    assert res.graph.n == 4
    assert res.graph.edges == frozenset({(0, 1), (0, 2), (1, 3)})
    assert res.copies == {2: {1: 2, 2: 3}}
    assert res.vertex_map == {0: 0, 1: 1}
    assert res.layering.layers == ((0, 2), (1, 3))
    assert validate_layering(res.graph, res.layering).ok


def test_apex_split_star_center():
    star = Graph(4, [(3, 0), (3, 1), (3, 2)])
    res = apex_split(star, {3}, Layering([(0,), (1,), (2,)]))
    copies = res.copies[3]
    assert len(copies) == 3
    for layer, copy in copies.items():
        assert res.graph.degree(copy) == 1
    assert res.graph.n == 6


def test_apex_split_without_apexes_is_identity():
    g = Graph(3, [(0, 1), (1, 2)])
    ly = Layering([(0,), (1,), (2,)])
    res = apex_split(g, set(), ly)
    assert res.graph is g
    assert res.layering is ly
    assert res.copies == {}


def test_apex_split_single_layer_gets_padding():
    g = Graph(2, [(0, 1)])
    res = apex_split(g, {1}, Layering([(0,)]))
    assert res.layering.m == 2
    assert res.copies[1] == {1: 1, 2: 2}
    assert res.graph.has_edge(0, 1)
    assert not res.graph.has_edge(0, 2)


def test_apex_split_prunes_forbidden_copies_and_rewires():
    g = Graph(3, [(0, 1), (2, 0), (2, 1)])
    ly = Layering([(0,), (1,)])
    lists = {0: {2, 3}, 1: {1, 3}, 2: {1}}
    res = apex_split(g, {2}, ly, lists=lists, s=1)
    # the layer-1 copy would sit where color 1 is forbidden, so it is
    # deleted and its edge moves to the layer-2 copy
    assert res.copies[2] == {2: 2}
    assert res.graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert res.lists[2] == frozenset({1})


def test_apex_split_requires_s_with_lists():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        apex_split(g, {1}, Layering([(0,)]), lists={0: {1}, 1: {1}})


def test_apex_split_rejects_bad_layerings():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidLayering):
        apex_split(g, {2}, Layering([(0,)]))
    span = Graph(3, [(0, 2)])
    with pytest.raises(InvalidLayering):
        apex_split(span, {1}, Layering([(0,), (), (2,)]))


def test_apex_split_preserves_kst_freeness():
    rng = random.Random(59)
    for _ in range(30):
        s, t = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3)])
        g = random_kst_free_graph(rng, s, t, max_n=6)
        if g.n < 2:
            continue
        z = frozenset(rng.sample(range(g.n), rng.randint(1, min(2, g.n - 1))))
        rest = sorted(set(range(g.n)) - z)
        m = rng.randint(1, 3)
        layers = [[] for _ in range(m)]
        for idx, v in enumerate(rest):
            layers[idx % m].append(v)
        base = Graph(
            g.n,
            [e for e in g.edges if e[0] not in z and e[1] not in z],
        )
        assignment = {}
        for i, row in enumerate(layers):
            for v in row:
                assignment[v] = i + 1
        edges_ok = all(
            abs(assignment[u] - assignment[v]) <= 1
            for u, v in base.edges
        )
        if not edges_ok:
            continue
        res = apex_split(g, z, Layering([tuple(row) for row in layers]))
        found, _ = has_kst_subgraph(res.graph, s, t)
        assert not found
