import hashlib
import random
from collections import deque

import pytest

from clustercolor import (
    ClusteringBoundError,
    EdgeGroup,
    Graph,
    GroupBudgetError,
    InvalidDecomposition,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    bfs_layering,
    compute_constants,
    gen_grid,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
    monochromatic_components,
    three_color,
)
from helpers import spine_path, without_vertex_zero


def test_constants_chain_small_case():
    c = compute_constants(1, 2)
    assert c.f1 == 16
    assert c.delta2 == 66
    assert c.w2 == 4097
    assert c.f2 == 4 * (c.w2 + 1) * c.delta2
    assert c.delta3 == 2 + c.f2 * 4
    assert c.w3 == 1 + 4 * (c.w2 + 1) * c.f2 * c.f2 * 4
    assert c.f3 == 4 * (c.w3 + 1) * c.delta3
    assert c.g == (1 + c.f2 * 2) * c.f3


def test_constants_default_factor_and_monotonicity():
    c = compute_constants(2, 6)
    assert c.cluster_factor == 4
    assert c.f1 == 4 * 3 * 6
    assert compute_constants(3, 6).g > c.g
    assert compute_constants(2, 7).g > c.g


def test_constants_reject_degenerate_inputs():
    with pytest.raises(ValueError):
        compute_constants(0, 2)
    with pytest.raises(ValueError):
        compute_constants(1, 0)


def _layer_class(ly, v):
    """The class of v's layer: layers 1, 4, 7, ... are class 1, and so on."""
    return (ly.layer_of(v) - 1) % 3 + 1


def _palette_violations(result, ly):
    palettes = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    return [
        (v, result.coloring[v])
        for v in sorted(ly.vertices)
        if result.coloring[v] not in palettes[_layer_class(ly, v)]
    ]


def _connected_within(g: Graph, verts) -> bool:
    verts = set(verts)
    if len(verts) <= 1:
        return True
    start = min(verts)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == verts


def _three_color_with_pairs(monkeypatch, g, ltd, delta):
    """``three_color``'s result, and the distinct fake pairs of each layer
    class in original ids, read from the groups ``_layer_view`` returns."""
    from clustercolor import threecolor

    layer_view = threecolor._layer_view
    pairs = {1: set(), 2: set(), 3: set()}

    def capturing(*args):
        view = layer_view(*args)
        ids = args[6]
        cls = _layer_class(ltd.layering, ids[0])
        for grp in view[4]:
            pairs[cls].update((ids[a], ids[b]) for a, b in grp.pairs)
        return view

    monkeypatch.setattr(threecolor, "_layer_view", capturing)
    return three_color(g, ltd, delta), pairs


def _stage2_comps_are_respected(g, ly, result, stage2_pairs):
    """Every final color-2 component meets the second layer class in a set
    that the fake edges keep connected."""
    keep = {v for v in ly.vertices if _layer_class(ly, v) == 2}
    edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
    g2 = Graph(g.n, edges + sorted(stage2_pairs))
    for color, verts in monochromatic_components(g, result.coloring).components:
        if color == 2 and not _connected_within(g2, set(verts) & keep):
            return False
    return True


def test_three_color_trigrid(monkeypatch):
    g, ltd, delta = gen_grid(10, triangulated=True)
    result, pairs = _three_color_with_pairs(monkeypatch, g, ltd, delta)
    assert len(pairs[2]) == result.stage2_fake_edges
    assert len(pairs[3]) == result.stage3_fake_edges
    assert set(result.coloring) == set(range(g.n))
    assert set(result.coloring.values()) <= {1, 2, 3}
    assert result.clustering <= result.constants.g
    assert _palette_violations(result, ltd.layering) == []
    assert _stage2_comps_are_respected(g, ltd.layering, result, pairs[2])
    assert result.constants.width == 2 and result.constants.degree == 6


def test_three_color_is_deterministic():
    g, ltd, delta = gen_grid(7, triangulated=True)
    first = three_color(g, ltd, delta)
    second = three_color(g, ltd, delta)
    assert first.coloring == second.coloring
    assert first.clustering == second.clustering


def test_three_color_path_and_kst():
    g, ltd, delta = gen_path(30)
    result = three_color(g, ltd, delta)
    assert result.clustering <= result.constants.g
    assert _palette_violations(result, ltd.layering) == []

    g, ltd, delta = gen_kst_instance(2, 3)
    result = three_color(g, ltd, delta)
    assert _palette_violations(result, ltd.layering) == []
    assert result.clustering <= result.constants.g


def test_three_color_single_vertex():
    g, ltd, delta = gen_grid(1)
    result = three_color(g, ltd, delta)
    assert result.coloring == {0: 1}
    assert result.clustering == 1


def test_three_color_empty_graph():
    g = Graph(0, [])
    ltd = LayeredTreeDecomposition(TreeDecomposition([frozenset()]), Layering([]))
    result = three_color(g, ltd, 1)
    assert result.coloring == {} and result.clustering == 0


def test_three_color_rejects_bad_inputs():
    g, ltd, delta = gen_grid(4, triangulated=True)
    with pytest.raises(ValueError):
        three_color(g, ltd, delta - 1)
    broken = LayeredTreeDecomposition(
        TreeDecomposition([frozenset({0})]), ltd.layering
    )
    with pytest.raises(InvalidDecomposition):
        three_color(g, broken, delta)


def test_three_color_fake_edges_stay_inside_their_classes(monkeypatch):
    g, ltd, delta = gen_grid(9, triangulated=True)
    result, pairs = _three_color_with_pairs(monkeypatch, g, ltd, delta)
    assert len(pairs[2]) == result.stage2_fake_edges
    assert len(pairs[3]) == result.stage3_fake_edges
    ly = ltd.layering
    for a, b in pairs[2]:
        assert _layer_class(ly, a) == 2 and _layer_class(ly, b) == 2
    for a, b in pairs[3]:
        assert _layer_class(ly, a) == 3 and _layer_class(ly, b) == 3


def _permuted(g, ltd, delta, seed):
    """The same instance with its vertex ids shuffled by a seeded permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    pg = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    td = TreeDecomposition(
        [frozenset(perm[v] for v in bag) for bag in ltd.td.bags],
        ltd.td.edges,
        ltd.td.root,
    )
    ly = ltd.layering
    ly = Layering([tuple(perm[v] for v in ly.layer(i)) for i in range(1, ly.m + 1)])
    return pg, LayeredTreeDecomposition(td, ly), delta


def _rerooted(g, ltd, delta):
    """The same decomposition rooted at its middle node."""
    td = ltd.td
    td = TreeDecomposition(td.bags, td.edges, td.node_count // 2)
    return g, LayeredTreeDecomposition(td, ltd.layering), delta


def _branching(g, ltd, delta):
    """Hang leaves off the nodes: every fourth node gets a leaf holding its
    bag minus the smallest vertex, every ninth node from node 2 a leaf
    holding the lower half of its bag, and one node an empty leaf."""
    td = ltd.td
    bags = list(td.bags)
    edges = list(td.edges)
    leaves = [(t, sorted(td.bags[t])[1:]) for t in range(0, td.node_count, 4)]
    leaves += [
        (t, sorted(td.bags[t])[: len(td.bags[t]) // 2])
        for t in range(2, td.node_count, 9)
    ]
    leaves.append((td.node_count // 3, []))
    for t, bag in leaves:
        edges.append((t, len(bags)))
        bags.append(frozenset(bag))
    td = TreeDecomposition(bags, edges, td.root)
    return g, LayeredTreeDecomposition(td, ltd.layering), delta


def _folded_path(n):
    """A path layered by distance from its middle vertex: each layer's two
    vertices sit at opposite ends of the path decomposition."""
    g, ltd, delta = gen_path(n)
    ly = bfs_layering(g, [n // 2])
    return g, LayeredTreeDecomposition(ltd.td, ly), delta


def _nodes_permuted(g, ltd, delta, seed):
    """The same decomposition with its node ids shuffled by a seeded
    permutation; the root moves with its node."""
    td = ltd.td
    perm = list(range(td.node_count))
    random.Random(seed).shuffle(perm)
    bags = [frozenset()] * td.node_count
    for t, bag in enumerate(td.bags):
        bags[perm[t]] = bag
    edges = [(perm[a], perm[b]) for a, b in td.edges]
    td = TreeDecomposition(bags, edges, perm[td.root])
    return g, LayeredTreeDecomposition(td, ltd.layering), delta


# SHA-256 of the .coloring text, clustering, and fake-edge counts of stages
# 2 and 3. Any change to a coloring shows up here. The rerooted, branching,
# node-permuted and folded shapes give the per-layer sparse views a root in
# the middle, empty bags, node ids out of depth order, and restrictions
# that are forests.
GOLDEN = {
    "trigrid-20": (
        lambda: gen_grid(20, triangulated=True),
        "33db2977afce3c1e93a8b16d721524eb668f37fc6adee4953d298ad8fee97d16",
        18, 84, 174,
    ),
    "grid-30": (
        lambda: gen_grid(30),
        "cee2b8b05dce9763dac887c1adfc90ec04ed693695ff3f2871ddec3355b7f794",
        12, 70, 143,
    ),
    "rect-6x60": (
        lambda: gen_rect_grid(6, 60),
        "c46f40b5eb4326233865b718e3d8167ffea544663a8f67d7a20c28278e135ce6",
        12, 87, 229,
    ),
    "path-300": (
        lambda: gen_path(300),
        "19aa37a47efbb5cc5bd6040440eabbab74136657f1c8e10383644e3fadc49789",
        2, 0, 0,
    ),
    "kst-2-3": (
        lambda: gen_kst_instance(2, 3),
        "d0f0283bfe07c56824a58dfe1d8fcfeb1918346075cba50e85de1d9e47a2bc70",
        1, 0, 0,
    ),
    "rect-6x60-rerooted": (
        lambda: _rerooted(*gen_rect_grid(6, 60)),
        "de0da5c9224e30a47588390af1811251e760c1577438406d2e3c008ea4d50ac1",
        12, 88, 227,
    ),
    "rect-6x60-branching": (
        lambda: _branching(*_rerooted(*gen_rect_grid(6, 60))),
        "afa9c96868adf5a61b24690ef7ca3a4191d45a309aac1f00b6d6381d3325905c",
        12, 103, 207,
    ),
    "rect-6x60-nodes-permuted": (
        lambda: _nodes_permuted(
            *_branching(*_rerooted(*gen_rect_grid(6, 60))), seed=5
        ),
        "afa9c96868adf5a61b24690ef7ca3a4191d45a309aac1f00b6d6381d3325905c",
        12, 103, 207,
    ),
    "path-200-folded": (
        lambda: _folded_path(200),
        "545afb15a9cef73319db6e6f43d0607c570c1bccc1485132c7a0045c246d8686",
        2, 1, 0,
    ),
    "trigrid-20-permuted": (
        lambda: _permuted(*gen_grid(20, triangulated=True), seed=7),
        "a467a15b7960e153104a7d7f3cf7ce2d4b955df02f07d3289af77742d17ec85d",
        18, 84, 174,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_three_color_golden_outputs(name):
    build, digest, clustering, stage2, stage3 = GOLDEN[name]
    g, ltd, delta = build()
    result = three_color(g, ltd, delta)
    text = "".join(f"{v} {result.coloring[v]}\n" for v in sorted(result.coloring))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert result.clustering == clustering
    assert result.stage2_fake_edges == stage2
    assert result.stage3_fake_edges == stage3
    measured = monochromatic_components(g, result.coloring)
    assert result.per_color_max == measured.per_color_max


def test_three_color_two_colors_sparse_layer_views(monkeypatch):
    """Each layer is two-colored over its own sparse view, so the nodes
    handed to the two-colorer in one call sum to at most twice the total bag
    size; a whole tree per layer would give about n^2 on a path."""
    from clustercolor import threecolor

    node_counts = []
    band_color = threecolor.band_color

    def counting(n, edges, bags, *args, **kwargs):
        node_counts.append(len(bags))
        return band_color(n, edges, bags, *args, **kwargs)

    monkeypatch.setattr(threecolor, "band_color", counting)
    g, ltd, delta = gen_path(2000)
    three_color(g, ltd, delta)
    assert len(node_counts) == 2000
    assert sum(node_counts) <= 2 * sum(len(bag) for bag in ltd.td.bags)


def test_three_color_validates_and_measures_each_layer_once(monkeypatch):
    """One validation of the input, then one per nonempty layer's view
    (enlarged or not); one component pass per layer plus the final check;
    and no Graph or TreeDecomposition built along the way."""
    from clustercolor import graph, threecolor, twocolor, verify

    calls = {"validate": 0, "components": 0, "enlarge": 0, "objects": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    g, ltd, delta = gen_grid(20, triangulated=True)
    validate = counted("validate", graph.check_decomposition)
    components = counted("components", verify.edge_components)
    for module in (graph, twocolor):
        monkeypatch.setattr(module, "check_decomposition", validate)
    for module in (verify, twocolor):
        monkeypatch.setattr(module, "edge_components", components)
    monkeypatch.setattr(
        threecolor, "enlarge_lists", counted("enlarge", threecolor.enlarge_lists)
    )
    for cls in (graph.Graph, graph.TreeDecomposition):
        monkeypatch.setattr(cls, "__init__", counted("objects", cls.__init__))
    three_color(g, ltd, delta)
    nonempty = sum(1 for layer in ltd.layering.layers if layer)
    assert calls["enlarge"] > 0
    assert calls["validate"] == 1 + nonempty
    assert calls["components"] == nonempty + 1
    assert calls["objects"] == 0


def test_layer_with_only_pairless_groups_is_still_validated_once(monkeypatch):
    """A group without pairs enlarges nothing, and the layer it lands on
    still has its view validated once, by the enlargement that returns its
    input as it stands."""
    from clustercolor import graph, threecolor, twocolor

    g, ltd, delta = gen_grid(20, triangulated=True)
    expected = three_color(g, ltd, delta).coloring
    calls = [0]
    check_once = graph.check_decomposition

    def validate(*args):
        calls[0] += 1
        return check_once(*args)

    for module in (graph, twocolor):
        monkeypatch.setattr(module, "check_decomposition", validate)
    layer_view = threecolor._layer_view

    def with_idle_group(*args):
        *view, groups, pours = layer_view(*args)
        # The first view node holding the layer's smallest vertex.
        nodes = frozenset({next(t for t, bag in enumerate(view[1]) if 0 in bag)})
        idle = EdgeGroup(nodes=nodes, subtree=nodes, pairs=frozenset())
        return (*view, groups + [idle], pours)

    monkeypatch.setattr(threecolor, "_layer_view", with_idle_group)
    result = three_color(g, ltd, delta)
    nonempty = sum(1 for layer in ltd.layering.layers if layer)
    assert calls[0] == 1 + nonempty
    assert result.coloring == expected


def test_stage_two_budget_overrun_names_the_stage_and_layer(monkeypatch):
    """An over-budget group on a stage-2 layer stops the run with the
    violated budget field and the stage and layer in the message."""
    from clustercolor import threecolor

    g, ltd, delta = gen_grid(6, triangulated=True)
    ly = ltd.layering
    layer_view = threecolor._layer_view
    hit = []

    def over_budget(*args):
        *view, groups, pours = layer_view(*args)
        li = ly.layer_of(args[6][0])
        if li % 3 != 2 or hit:
            return (*view, groups, pours)
        # One more group on the same node than a stage-2 budget allows:
        # w + 1 = 3 subtrees per node, so four copies of a valid group.
        bags = view[1]
        t = next(t for t, bag in enumerate(bags) if len(bag) >= 2)
        a, b = sorted(bags[t])[:2]
        node = frozenset({t})
        extra = EdgeGroup(nodes=node, subtree=node, pairs=frozenset({(a, b)}))
        hit.append(li)
        return (*view, groups + [extra] * 4, pours)

    monkeypatch.setattr(threecolor, "_layer_view", over_budget)
    with pytest.raises(GroupBudgetError) as err:
        three_color(g, ltd, delta)
    assert hit == [2]
    assert err.value.budget == "max_groups_per_node"
    assert str(err.value).startswith("max_groups_per_node: stage-2 layer 2: ")


def test_stage_one_takes_no_groups(monkeypatch):
    """Class-1 layers have no colored neighbors, so their budget allows no
    pairs: a stray group there is a named budget error."""
    from clustercolor import threecolor

    g, ltd, delta = gen_grid(6, triangulated=True)
    layer_view = threecolor._layer_view

    def stray(*args):
        *view, groups, pours = layer_view(*args)
        node = frozenset({0})
        a, b = sorted(view[1][0])[:2]
        extra = EdgeGroup(nodes=node, subtree=node, pairs=frozenset({(a, b)}))
        return (*view, groups + [extra], pours)

    monkeypatch.setattr(threecolor, "_layer_view", stray)
    with pytest.raises(GroupBudgetError) as err:
        three_color(g, ltd, delta)
    assert err.value.budget == "max_pairs_per_group"
    assert str(err.value).startswith("max_pairs_per_group: stage-1 layer 1: ")
    assert str(err.value).endswith("group 0 has 1 pairs")


def test_three_color_refuses_spine_path_in_stage_one():
    g, ltd = spine_path(40)
    with pytest.raises(ClusteringBoundError) as err:
        three_color(g, ltd, 2)
    assert err.value.stage == "stage-1 layer 1"
    assert err.value.measured == 40
    assert err.value.bound == 24


def test_corrupted_view_is_an_internal_fault(monkeypatch):
    """A view that the input's validation cannot explain is the pipeline's
    fault, not the input's: the error names the stage, the layer, the axiom
    and its witness."""
    from clustercolor import InternalInvariantError, threecolor

    g, ltd, delta = gen_grid(6, triangulated=True)
    monkeypatch.setattr(
        threecolor, "_layer_view", without_vertex_zero(threecolor._layer_view)
    )
    with pytest.raises(InternalInvariantError) as err:
        three_color(g, ltd, delta)
    assert str(err.value) == (
        "stage-1 layer 1: enlarged decomposition invalid: "
        "vertex-coverage axiom fails at vertex 0"
    )


def _certified(g, ltd, delta):
    """``three_color``'s coloring, after checking it independently: every
    vertex colored from its class's palette, and the clustering measured
    again and within the bound."""
    result = three_color(g, ltd, delta)
    assert set(result.coloring) == set(range(g.n))
    assert _palette_violations(result, ltd.layering) == []
    measured = monochromatic_components(g, result.coloring)
    assert measured.max_size == result.clustering <= result.constants.g
    return result.coloring


def _rooted(g, ltd, delta, root):
    td = TreeDecomposition(ltd.td.bags, ltd.td.edges, root=root)
    return g, LayeredTreeDecomposition(td, ltd.layering), delta


def _end_roots(g, ltd, delta):
    last = ltd.td.node_count - 1
    return (0, last // 2, last)


ROOTED = {
    "trigrid-12": (lambda: gen_grid(12, triangulated=True), None),
    "rect-4x40": (lambda: gen_rect_grid(4, 40), _end_roots),
    "path-60": (lambda: gen_path(60), _end_roots),
}


@pytest.mark.parametrize("name", sorted(ROOTED))
def test_three_color_certifies_any_root(name):
    """Any node may be the root: each root tried gives a certified
    coloring. The triangulated grid tries all its nodes; the others their
    first, middle and last."""
    build, pick = ROOTED[name]
    instance = build()
    td = instance[1].td
    roots = range(td.node_count) if pick is None else pick(*instance)
    for root in roots:
        _certified(*_rooted(*instance, root))


def test_three_color_ignores_node_ids_when_the_root_moves_along():
    """Renumbering the nodes at random, with the root mapped along, leaves
    the coloring as it was."""
    instance = _rooted(*gen_grid(12, triangulated=True), root=5)
    expected = _certified(*instance)
    for seed in (1, 2, 3):
        assert _certified(*_nodes_permuted(*instance, seed=seed)) == expected


def test_three_color_ignores_empty_leaf_bags():
    """Three empty bags hung as leaves off the first, middle and last node
    change no color."""
    g, ltd, delta = gen_grid(10, triangulated=True)
    td = ltd.td
    nn = td.node_count
    hangs = (0, nn // 2, nn - 1)
    grown = TreeDecomposition(
        list(td.bags) + [frozenset()] * 3,
        list(td.edges) + [(t, nn + k) for k, t in enumerate(hangs)],
        root=td.root,
    )
    padded = LayeredTreeDecomposition(grown, ltd.layering)
    assert _certified(g, padded, delta) == _certified(g, ltd, delta)


def test_three_color_chains_forest_shaped_views(monkeypatch):
    """On the 40-cycle with bags {0, i, i+1}, layered from vertex 0, each
    layer {i, 40-i} meets two far-apart stretches of the path, so its view
    is a forest whose tops are chained; the coloring is still certified."""
    from clustercolor import threecolor

    n = 40
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    td = TreeDecomposition(
        [frozenset({0, i, i + 1}) for i in range(1, n - 1)],
        [(t, t + 1) for t in range(n - 3)],
    )
    ly = bfs_layering(g, [0])
    assert [set(ly.layer(i + 1)) for i in range(n // 2 + 1)] == [
        {i, (n - i) % n} for i in range(n // 2 + 1)
    ]
    layer_view = threecolor._layer_view
    tops = []

    def capturing(g, bags, holders, parent, depth, poured, ids, guards):
        view = layer_view(g, bags, holders, parent, depth, poured, ids, guards)
        kept = {t for v in ids for t in holders[v]}
        kept = kept.union(*(subtree for _, subtree in view[5]))
        tops.append(sum(1 for t in kept if parent[t] not in kept))
        return view

    monkeypatch.setattr(threecolor, "_layer_view", capturing)
    _certified(g, LayeredTreeDecomposition(td, ly), 2)
    assert max(tops) >= 2
