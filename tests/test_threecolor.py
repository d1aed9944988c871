import hashlib
import math
import random
import sys
from collections import deque
from itertools import combinations

import pytest

from clustercolor import (
    ClusteringBoundError,
    EdgeGroup,
    Graph,
    GroupBudget,
    GroupBudgetError,
    InvalidDecomposition,
    InvalidLayering,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    bfs_layering,
    compute_constants,
    edge_components,
    gen_grid,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
    three_color_lists,
)
from clustercolor.graph import edge_span, layer_index
from helpers import (
    branching,
    folded_path,
    lists_of,
    nodes_permuted,
    permuted,
    random_decomposition,
    rerooted,
    spine_path,
    without_first_vertex,
)


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


def test_constants_grow_as_w19_delta37():
    """The chain's degree as implemented: at w = Δ = 10⁶, where the lower
    terms no longer show, doubling Δ multiplies g by 2^37 and doubling w
    by 2^19."""
    w = d = 10**6
    log_g = math.log2(compute_constants(w, d).g)
    delta_step = math.log2(compute_constants(w, 2 * d).g) - log_g
    width_step = math.log2(compute_constants(2 * w, d).g) - log_g
    assert delta_step == pytest.approx(37, abs=1e-4)
    assert width_step == pytest.approx(19, abs=1e-4)


def test_constants_reject_degenerate_inputs():
    with pytest.raises(ValueError):
        compute_constants(0, 2)
    with pytest.raises(ValueError):
        compute_constants(1, 0)


def _layer_classes(ly):
    """Each vertex's layer class: layers 1, 4, 7, ... are class 1, and so on."""
    layer_of = layer_index(sum(map(len, ly.layers)), ly.layers)[0]
    return {v: (i - 1) % 3 + 1 for v, i in enumerate(layer_of)}


def _palette_violations(result, ly):
    palettes = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    classes = _layer_classes(ly)
    return [
        (v, result.coloring[v])
        for v in sorted(classes)
        if result.coloring[v] not in palettes[classes[v]]
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


def _three_color_with_pairs(monkeypatch, g, ltd):
    """``three_color_lists``'s result, and the distinct fake pairs of each
    layer class in original ids, read from the groups ``_class_view``
    returns. Each group's ends must ascend within its own part's layer."""
    from clustercolor import threecolor

    class_view = threecolor._class_view
    pairs = {1: set(), 2: set(), 3: set()}
    classes = _layer_classes(ltd.layering)
    layer_of = layer_index(g.n, ltd.layering.layers)[0]

    def capturing(*args):
        view = class_view(*args)
        ids = view.ids
        cls = classes[ids[0]]
        start = first = 0
        for end, last in view.parts:
            layer = layer_of[ids[start]]
            assert {layer_of[v] for v in ids[start:end]} == {layer}
            for grp in view.groups[first:last]:
                assert start <= grp.ends[0] and grp.ends[-1] < end
                assert list(grp.ends) == sorted(set(grp.ends))
                pairs[cls].update(
                    (ids[a], ids[b]) for a, b in combinations(grp.ends, 2)
                )
            start, first = end, last
        assert first == len(view.groups)
        return view

    monkeypatch.setattr(threecolor, "_class_view", capturing)
    return three_color_lists(*lists_of(g, ltd)), pairs


def _stage2_comps_are_respected(g, ly, result, stage2_pairs):
    """Every final color-2 component meets the second layer class in a set
    that the fake edges keep connected."""
    keep = {v for v, cls in _layer_classes(ly).items() if cls == 2}
    edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
    g2 = Graph(g.n, edges + sorted(stage2_pairs))
    for color, verts in edge_components(g.n, g.edges, result.coloring).components:
        if color == 2 and not _connected_within(g2, set(verts) & keep):
            return False
    return True


def test_three_color_trigrid(monkeypatch):
    g, ltd, _ = gen_grid(10, triangulated=True)
    result, pairs = _three_color_with_pairs(monkeypatch, g, ltd)
    assert len(pairs[2]) == result.stage2_fake_edges
    assert len(pairs[3]) == result.stage3_fake_edges
    assert set(result.coloring) == set(range(g.n))
    assert set(result.coloring.values()) <= {1, 2, 3}
    assert result.clustering <= result.constants.g
    assert _palette_violations(result, ltd.layering) == []
    assert _stage2_comps_are_respected(g, ltd.layering, result, pairs[2])
    assert result.constants.width == 2 and result.constants.degree == 6


def test_three_color_is_deterministic():
    g, ltd, _ = gen_grid(7, triangulated=True)
    first = three_color_lists(*lists_of(g, ltd))
    second = three_color_lists(*lists_of(g, ltd))
    assert first.coloring == second.coloring
    assert first.clustering == second.clustering


def test_three_color_path_and_kst():
    g, ltd, _ = gen_path(30)
    result = three_color_lists(*lists_of(g, ltd))
    assert result.clustering <= result.constants.g
    assert _palette_violations(result, ltd.layering) == []

    g, ltd, _ = gen_kst_instance(2, 3)
    result = three_color_lists(*lists_of(g, ltd))
    assert _palette_violations(result, ltd.layering) == []
    assert result.clustering <= result.constants.g


def test_three_color_single_vertex():
    g, ltd, _ = gen_grid(1)
    result = three_color_lists(*lists_of(g, ltd))
    assert result.coloring == {0: 1}
    assert result.clustering == 1


def test_three_color_empty_graph():
    g = Graph(0, [])
    ltd = LayeredTreeDecomposition(TreeDecomposition([frozenset()]), Layering([]))
    result = three_color_lists(*lists_of(g, ltd))
    assert result.coloring == {} and result.clustering == 0


def test_three_color_rejects_bad_inputs():
    g, ltd, _ = gen_grid(4, triangulated=True)
    broken = LayeredTreeDecomposition(
        TreeDecomposition([frozenset({0})]), ltd.layering
    )
    with pytest.raises(InvalidDecomposition):
        three_color_lists(*lists_of(g, broken))


def test_three_color_lists_rejects_bad_edge_lines():
    """An edge line that is a self-loop or names no vertex raises Graph's
    error, naming the line as given, instead of landing in the wrong
    vertex's neighbors or doubling into the maximum degree."""
    bags, tree, rows = [{0, 1}, {1, 2}], [(0, 1)], [[0], [1], [2]]
    cases = {
        (-1, 0): "edge (-1, 0) out of range for n=3",
        (1, 1): "self-loop at vertex 1",
        (1, 3): "edge (1, 3) out of range for n=3",
        (3, 1): "edge (3, 1) out of range for n=3",
    }
    for line, message in cases.items():
        with pytest.raises(ValueError) as err:
            three_color_lists(3, [(0, 1), (1, 2), line], bags, tree, rows)
        assert str(err.value) == message
    # Rows that are not a partition, whether they leave a vertex out, list
    # one twice or hold a stray id, are refused before the edge lines and
    # the decomposition.
    cases = {
        (0, 1): "partition axiom fails at vertex 2",
        (0, 1, 1, 2): "partition axiom fails at vertex 1",
        (0, 1, 2, 7): "partition axiom fails at vertex 7",
    }
    for listed, message in cases.items():
        rows = [listed[:1], listed[1:]]
        for lines in ([(1, 1)], [(0, 1)]):
            with pytest.raises(InvalidLayering) as err:
                three_color_lists(3, lines, [{0}, {5}], [(0, 1)], rows)
            assert str(err.value) == f"invalid layering: {message}"


def test_flat_edge_lines_are_indexed_once_and_may_be_lists():
    """three_color_lists indexes its edge lines with the pair index that
    Graph and TreeDecomposition use, once per call, so list lines color
    exactly as tuple lines do; the layering checks index nothing."""
    from clustercolor import graph

    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is graph._pair_index.__code__:
            calls[0] += 1

    bags, tree, rows = [frozenset({0, 1}), frozenset({1, 2})], [(0, 1)], [(0, 1, 2)]
    g = Graph(3, [(0, 1), (1, 2)])
    sys.setprofile(profile)
    try:
        as_lists = three_color_lists(3, [[0, 1], [1, 2]], bags, tree, rows)
        colored = calls[0]
        layer_of, partition = layer_index(g.n, rows)
        assert partition.passed and edge_span(g.edges, layer_of).passed
    finally:
        sys.setprofile(None)
    assert (colored, calls[0]) == (1, 1)
    assert as_lists == three_color_lists(3, [(0, 1), (1, 2)], bags, tree, rows)
    assert as_lists == three_color_lists(3, [[1, 0], [2, 1]], bags, tree, rows)
    assert as_lists.clustering == 3


def test_three_color_fake_edges_stay_inside_their_classes(monkeypatch):
    g, ltd, _ = gen_grid(9, triangulated=True)
    result, pairs = _three_color_with_pairs(monkeypatch, g, ltd)
    assert len(pairs[2]) == result.stage2_fake_edges
    assert len(pairs[3]) == result.stage3_fake_edges
    classes = _layer_classes(ltd.layering)
    for a, b in pairs[2]:
        assert classes[a] == classes[b] == 2
    for a, b in pairs[3]:
        assert classes[a] == classes[b] == 3


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
        lambda: rerooted(*gen_rect_grid(6, 60)[:2]),
        "de0da5c9224e30a47588390af1811251e760c1577438406d2e3c008ea4d50ac1",
        12, 88, 227,
    ),
    "rect-6x60-branching": (
        lambda: branching(*rerooted(*gen_rect_grid(6, 60)[:2])),
        "afa9c96868adf5a61b24690ef7ca3a4191d45a309aac1f00b6d6381d3325905c",
        12, 103, 207,
    ),
    "rect-6x60-nodes-permuted": (
        lambda: nodes_permuted(
            *branching(*rerooted(*gen_rect_grid(6, 60)[:2])), seed=5
        ),
        "afa9c96868adf5a61b24690ef7ca3a4191d45a309aac1f00b6d6381d3325905c",
        12, 103, 207,
    ),
    "path-200-folded": (
        lambda: folded_path(200),
        "545afb15a9cef73319db6e6f43d0607c570c1bccc1485132c7a0045c246d8686",
        2, 1, 0,
    ),
    "trigrid-20-permuted": (
        lambda: permuted(*gen_grid(20, triangulated=True)[:2], seed=7),
        "a467a15b7960e153104a7d7f3cf7ce2d4b955df02f07d3289af77742d17ec85d",
        18, 84, 174,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_three_color_golden_outputs(name):
    build, digest, clustering, stage2, stage3 = GOLDEN[name]
    g, ltd = build()[:2]
    result = three_color_lists(*lists_of(g, ltd))
    text = "".join(f"{v} {result.coloring[v]}\n" for v in sorted(result.coloring))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert result.clustering == clustering
    assert result.stage2_fake_edges == stage2
    assert result.stage3_fake_edges == stage3
    measured = edge_components(g.n, g.edges, result.coloring)
    assert result.per_color_max == measured.per_color_max


def test_three_color_two_colors_each_class_over_the_input_tree(monkeypatch):
    """Each layer class is two-colored in one call, over the input's own
    tree: the two-colorer gets one bag per input node for each class, so
    three trees in all, never one per layer, which would give about n^2 on
    a path."""
    from clustercolor import threecolor

    node_counts = []
    band_color = threecolor.band_color

    def counting(n, edges, bags, *args, **kwargs):
        node_counts.append(len(bags))
        return band_color(n, edges, bags, *args, **kwargs)

    monkeypatch.setattr(threecolor, "band_color", counting)
    g, ltd, _ = gen_path(2000)
    three_color_lists(*lists_of(g, ltd))
    assert node_counts == [ltd.td.node_count] * 3


def _nonempty_classes(ly):
    return len({i % 3 for i, layer in enumerate(ly.layers) if layer})


def test_three_color_validates_and_measures_each_class_once(monkeypatch):
    """One validation of the input, then one per nonempty layer class's view
    (enlarged or not); one component pass per class plus the final check;
    and no Graph or TreeDecomposition built along the way. The path's two
    layers leave class 3 empty."""
    from clustercolor import graph, threecolor, twocolor, verify

    keys = ("validate", "components", "enlarge", "enlarged", "objects")
    calls = dict.fromkeys(keys, 0)

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    validate = counted("validate", graph.check_decomposition)
    components = counted("components", verify.edge_components)
    for module in (graph, twocolor, threecolor):
        monkeypatch.setattr(module, "check_decomposition", validate)
    for module in (verify, twocolor, threecolor):
        monkeypatch.setattr(module, "edge_components", components)
    enlarge = counted("enlarge", threecolor.enlarge_lists)

    def enlarge_counting_pairs(*args):
        calls["enlarged"] += any(len(group.ends) > 1 for group in args[4])
        return enlarge(*args)

    monkeypatch.setattr(threecolor, "enlarge_lists", enlarge_counting_pairs)
    for cls in (graph.Graph, graph.TreeDecomposition):
        monkeypatch.setattr(cls, "__init__", counted("objects", cls.__init__))
    for build, classes, enlarged in (
        (lambda: gen_grid(20, triangulated=True), 3, 2),
        (lambda: gen_path(2), 2, 0),
    ):
        g, ltd, _ = build()
        calls.update(dict.fromkeys(keys, 0))
        three_color_lists(*lists_of(g, ltd))
        assert _nonempty_classes(ltd.layering) == classes
        assert calls == {
            "validate": 1 + classes,
            "components": classes + 1,
            "enlarge": classes,
            "enlarged": enlarged,
            "objects": 0,
        }


def _with_groups(view, part, extra, at_start=False):
    """The class view with the groups ``extra`` added to the given part,
    before its own groups or after them, and the later parts' group ends
    moved along."""
    first = view.parts[part - 1][1] if part else 0
    at = first if at_start else view.parts[part][1]
    groups = view.groups[:at] + list(extra) + view.groups[at:]
    parts = [
        (end, last + len(extra) * (p >= part))
        for p, (end, last) in enumerate(view.parts)
    ]
    return view._replace(groups=groups, parts=parts)


def test_layer_with_only_pairless_groups_is_still_validated_once(monkeypatch):
    """A group without pairs, of no end or of one, enlarges nothing, and the
    class whose layer they land on still has its view validated once, by the
    enlargement that returns its input as it stands."""
    from clustercolor import graph, threecolor, twocolor

    g, ltd, _ = gen_grid(20, triangulated=True)
    expected = three_color_lists(*lists_of(g, ltd)).coloring
    calls = [0]
    check_once = graph.check_decomposition

    def validate(*args):
        calls[0] += 1
        return check_once(*args)

    for module in (graph, twocolor, threecolor):
        monkeypatch.setattr(module, "check_decomposition", validate)
    class_view = threecolor._class_view

    def with_idle_group(*args):
        view = class_view(*args)
        # The first view node holding the class's first vertex.
        nodes = frozenset({next(t for t, bag in enumerate(view.bags) if 0 in bag)})
        idle = [EdgeGroup(nodes, ()), EdgeGroup(nodes, (0,))]
        return _with_groups(view, 0, idle)

    monkeypatch.setattr(threecolor, "_class_view", with_idle_group)
    result = three_color_lists(*lists_of(g, ltd))
    assert calls[0] == 1 + _nonempty_classes(ltd.layering)
    assert result.coloring == expected


@pytest.mark.parametrize(
    "instance, widens",
    [(lambda: gen_grid(12, triangulated=True), False), (lambda: gen_rect_grid(4, 40), True)],
    ids=["trigrid-12", "rect-4x40"],
)
def test_group_subtrees_replay_original_and_poured_holders(monkeypatch, instance, widens):
    """Replayed from the bags and the groups alone, each group's ends are
    its guard component's neighbors in the layer, and its subtree is the
    set of input nodes that hold one of the component's vertices, either in
    the original bags or because an earlier layer's enlargement poured that
    vertex into them. On the rectangular grid some pours reach nodes whose
    original bags lack the vertex, so the replay needs them."""
    from clustercolor import threecolor

    g, ltd, _ = instance()
    held = {v: set() for v in range(g.n)}
    for t, bag in enumerate(ltd.td.bags):
        for v in bag:
            held[v].add(t)
    original = {v: frozenset(nodes) for v, nodes in held.items()}
    class_view = threecolor._class_view
    groups = [0]
    widened = [0]

    def replaying(adj, holders, nn, layers):
        view = class_view(adj, holders, nn, layers)
        guarded = []
        for ids, guards in layers:
            layer = set(ids)
            for comp in sorted(guards, key=min):
                ends = {u for c in comp for u in g.neighbors(c) if u in layer}
                if len(ends) >= 2:
                    guarded.append((comp, sorted(ends)))
        subtrees = [set(grp.subtree) for grp in view.groups]
        expected = [set().union(*(held[c] for c in comp)) for comp, _ in guarded]
        assert subtrees == expected
        assert [[view.ids[v] for v in grp.ends] for grp in view.groups] == [
            ends for _, ends in guarded
        ]
        groups[0] += len(guarded)
        widened[0] += sum(
            expected[i] != set().union(*(original[c] for c in comp))
            for i, (comp, _) in enumerate(guarded)
        )
        for grp, subtree in zip(view.groups, subtrees):
            for v in grp.ends:
                held[view.ids[v]] |= subtree
        return view

    monkeypatch.setattr(threecolor, "_class_view", replaying)
    three_color_lists(*lists_of(g, ltd))
    assert groups[0] > 0
    assert widened[0] > 0 or not widens


def test_stage_two_budget_overrun_names_the_stage_and_layer(monkeypatch):
    """An over-budget group on a stage-2 layer stops the run with the
    violated budget field and the stage and layer in the message. The budget
    counts a node's groups per layer: the over-budget layer is the class's
    second, layer 5, on a node that a group of layer 2 also covers, and
    that group does not count with layer 5's."""
    from clustercolor import threecolor

    g, ltd, _ = gen_grid(6, triangulated=True)
    class_view = threecolor._class_view
    hit = []

    def over_budget(*args):
        view = class_view(*args)
        if hit or len(view.parts) < 2 or not view.groups:
            return view
        # One more group on one node than a stage-2 budget allows: w + 1 = 3
        # subtrees per node, so four copies of a valid group in layer 5.
        start, end = view.parts[0][0], view.parts[1][0]
        covered = set().union(*(grp.subtree for grp in view.groups[: view.parts[0][1]]))
        t, a, b = next(
            (t, *sorted(v for v in view.bags[t] if start <= v < end)[:2])
            for t in sorted(covered)
            if len([v for v in view.bags[t] if start <= v < end]) >= 2
        )
        extra = EdgeGroup(subtree=frozenset({t}), ends=(a, b))
        own = view.groups[view.parts[0][1] : view.parts[1][1]]
        hit.append((t, 4 + sum(t in grp.subtree for grp in own)))
        return _with_groups(view, 1, [extra] * 4)

    monkeypatch.setattr(threecolor, "_class_view", over_budget)
    with pytest.raises(GroupBudgetError) as err:
        three_color_lists(*lists_of(g, ltd))
    ((t, count),) = hit
    assert err.value.budget == "max_groups_per_node"
    assert str(err.value) == (
        f"max_groups_per_node: stage-2 layer 5: node {t} covered by {count} "
        "group subtrees"
    )


def test_stage_one_takes_no_groups(monkeypatch):
    """Class-1 layers have no colored neighbors, so their budget allows no
    pairs: a stray group there is a named budget error, numbered within its
    layer."""
    from clustercolor import threecolor

    g, ltd, _ = gen_grid(6, triangulated=True)
    class_view = threecolor._class_view

    def stray(*args):
        view = class_view(*args)
        a, b = sorted(view.bags[0])[:2]
        extra = EdgeGroup(subtree=frozenset({0}), ends=(a, b))
        return _with_groups(view, len(view.parts) - 1, [extra], at_start=True)

    monkeypatch.setattr(threecolor, "_class_view", stray)
    with pytest.raises(GroupBudgetError) as err:
        three_color_lists(*lists_of(g, ltd))
    assert err.value.budget == "max_pairs_per_group"
    assert str(err.value) == "max_pairs_per_group: stage-1 layer 4: group 0 has 1 pairs"


def test_each_stage_enlarges_under_its_budget(monkeypatch):
    """Classes 1, 2 and 3 enlarge under no budget, (f1²d², f1d², w + 1) and
    (f2²d², f2d², 2(w2 + 1)), as the result's constants give them."""
    from clustercolor import threecolor

    g, ltd, _ = gen_grid(6, triangulated=True)
    assert _nonempty_classes(ltd.layering) == 3
    enlarge = threecolor.enlarge_lists
    budgets = []

    def recording(*args):
        budgets.append(args[5])
        return enlarge(*args)

    monkeypatch.setattr(threecolor, "enlarge_lists", recording)
    c = three_color_lists(*lists_of(g, ltd)).constants
    w, d = c.width, c.degree
    expected = {
        1: GroupBudget(0, 0, 0),
        2: GroupBudget(c.f1**2 * d**2, c.f1 * d**2, w + 1),
        3: GroupBudget(c.f2**2 * d**2, c.f2 * d**2, 2 * (c.w2 + 1)),
    }
    assert budgets == [expected[cls] for cls in (1, 2, 3)]

def test_rows_in_any_order_color_alike(monkeypatch):
    """A layer's row may list its vertices in any order: descending and
    shuffled rows give the result of ascending rows, and every view reaches
    the enlargement with its edges as (u, v), u < v, and leaves it with no
    edge twice."""
    from clustercolor import threecolor

    g, ltd, _ = gen_grid(30, triangulated=True)
    n, edges, bags, tree_edges, rows, root = lists_of(g, ltd)
    rng = random.Random(7)
    orders = (
        [sorted(row) for row in rows],
        [sorted(row, reverse=True) for row in rows],
        [rng.sample(list(row), len(row)) for row in rows],
    )
    enlarge = threecolor.enlarge_lists
    seen = []

    def spying(*args):
        out = enlarge(*args)
        seen.append((args[1], out[0]))
        return out

    monkeypatch.setattr(threecolor, "enlarge_lists", spying)
    results = [
        three_color_lists(n, edges, bags, tree_edges, order, root) for order in orders
    ]
    assert results[1] == results[0] and results[2] == results[0]
    assert len(seen) == 9
    assert all(u < v for view_edges, _ in seen for u, v in view_edges)
    assert all(len(set(out)) == len(out) for _, out in seen)


def test_three_color_indexes_and_searches_the_tree_once(monkeypatch):
    """One call builds one tree index and runs one breadth-first search,
    from the input's root, and hands that index to the enlargement of each
    of the three classes."""
    from clustercolor import graph, threecolor, twocolor

    built, searches, handed = [], [0], []
    tree_index, search = graph.tree_index, graph._search
    enlarge = threecolor.enlarge_lists

    def indexing(*args):
        built.append(tree_index(*args))
        return built[-1]

    def searching(*args):
        searches[0] += 1
        return search(*args)

    def enlarging(*args):
        handed.append(args[3])
        return enlarge(*args)

    for module in (graph, twocolor, threecolor):
        monkeypatch.setattr(module, "tree_index", indexing)
    monkeypatch.setattr(graph, "_search", searching)
    monkeypatch.setattr(threecolor, "enlarge_lists", enlarging)
    g, ltd, _ = gen_grid(10, triangulated=True)
    three_color_lists(*lists_of(g, ltd))
    assert len(built) == 1 and searches[0] == 1
    assert len(handed) == 3 and all(index is built[0] for index in handed)


def test_holders_grow_without_repeats(monkeypatch):
    """After the two guarding classes, each vertex's nodes, which stage 3's
    view reads, list no node twice."""
    from clustercolor import threecolor

    class_view = threecolor._class_view
    repeats = []

    def spying(adj, holders, *args):
        repeats.append(sum(len(h) - len(set(h)) for h in holders))
        return class_view(adj, holders, *args)

    monkeypatch.setattr(threecolor, "_class_view", spying)
    for g, ltd, _ in (gen_grid(30, triangulated=True), gen_rect_grid(6, 40)):
        repeats.clear()
        three_color_lists(*lists_of(g, ltd))
        assert repeats == [0, 0, 0]


def test_three_color_refuses_spine_path_in_stage_one():
    g, ltd = spine_path(40)
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*lists_of(g, ltd))
    assert err.value.stage == "stage-1 layer 1"
    assert err.value.measured == 40
    assert err.value.bound == 24


def test_refusal_witness_is_the_largest_component_in_the_callers_ids():
    """The spine path's witness is the whole path. Moved to vertices 1..40
    and to layer 4, behind a layer 1 that holds vertex 0 alone, the refusal
    names layer 4 and its witness is mapped back from the layer's own ids."""
    g, ltd = spine_path(40)
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*lists_of(g, ltd))
    assert err.value.witness == tuple(range(40))

    n = 41
    edges = [(i, i + 1) for i in range(1, n - 1)]
    bags = [frozenset({1, i, i + 1}) for i in range(2, n - 1)] + [frozenset({0})]
    tree_edges = [(t, t + 1) for t in range(len(bags) - 1)]
    rows = [(0,), (), (), tuple(range(1, n))]
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(n, edges, bags, tree_edges, rows)
    assert str(err.value) == (
        "stage-1 layer 4: measured clustering 40 exceeds bound 24"
    )
    assert err.value.witness == tuple(range(1, n))


def _spines(*lengths, wide=0):
    """Paths, each with its first vertex in every bag of its own chain of
    bags {first, i, i+1}, and then ``wide`` isolated vertices in one bag;
    the chains are joined end to end. Path k is layer 3k + 1, so all lie
    in class 1, and the isolated vertices are the next class-1 layer."""
    edges, bags, rows = [], [], []
    first = 0
    for n in lengths:
        path = range(first, first + n)
        edges += [(i, i + 1) for i in path[:-1]]
        bags += [frozenset({first, i, i + 1}) for i in path[1:-1]]
        rows += [tuple(path), (), ()]
        first += n
    if wide:
        bags.append(frozenset(range(first, first + wide)))
        rows.append(tuple(range(first, first + wide)))
    tree = [(t, t + 1) for t in range(len(bags) - 1)]
    return first + wide, edges, bags, tree, rows


def test_each_layer_of_a_class_keeps_its_own_clustering_bound():
    """A class is banded in one call, yet each layer is checked against the
    bound for its own enlarged width. The spine path of 40, width 2, in
    layer 1 is refused at 4 * 3 * 2 = 24, although layer 4 beside it holds
    thirty isolated vertices in one bag, so that the class is 29 wide and
    its bound would be 240. The spine path of 10 is colored: its component
    of 10 is above 4Δ = 8, where the layers' widths are first needed, and
    within 24."""
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*_spines(40, wide=30))
    assert str(err.value) == "stage-1 layer 1: measured clustering 40 exceeds bound 24"
    assert err.value.witness == tuple(range(40))
    assert three_color_lists(*_spines(10, wide=30)).clustering == 10


def test_a_class_refuses_its_lowest_layer_first(monkeypatch):
    """With spine paths in layers 1 and 4, both refused, the refusal names
    layer 1 and carries layer 1's witness. A budget fault in layer 4 is
    raised before layer 1's refusal, since the class is enlarged before it
    is banded."""
    from clustercolor import threecolor

    instance = _spines(40, 40)
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*instance)
    assert str(err.value) == "stage-1 layer 1: measured clustering 40 exceeds bound 24"
    assert err.value.witness == tuple(range(40))

    class_view = threecolor._class_view

    def stray(*args):
        view = class_view(*args)
        start, end = view.parts[0][0], view.parts[1][0]
        ends = (start, start + 1)
        extra = EdgeGroup(subtree=frozenset({len(view.bags) - 1}), ends=ends)
        return _with_groups(view, 1, [extra])

    monkeypatch.setattr(threecolor, "_class_view", stray)
    with pytest.raises(GroupBudgetError) as err:
        three_color_lists(*instance)
    assert str(err.value) == "max_pairs_per_group: stage-1 layer 4: group 0 has 1 pairs"


def test_corrupted_view_is_an_internal_fault(monkeypatch):
    """A view that the input's validation cannot explain is the pipeline's
    fault, not the input's: the error names the stage, the lowest layer
    that fails, the axiom and its witness in that layer's ids. A bag that
    holds an id outside the class belongs to no layer, so it names the
    stage alone, with the input node and the id."""
    from clustercolor import InternalInvariantError, threecolor

    g, ltd, _ = gen_grid(6, triangulated=True)
    class_view = threecolor._class_view
    for part, layer in ((0, 1), (1, 4)):
        corrupt = without_first_vertex(class_view, part)
        monkeypatch.setattr(threecolor, "_class_view", corrupt)
        with pytest.raises(InternalInvariantError) as err:
            three_color_lists(*lists_of(g, ltd))
        assert str(err.value) == (
            f"stage-1 layer {layer}: enlarged decomposition invalid: "
            "vertex-coverage axiom fails at vertex 0"
        )

    def stray(*args):
        view = class_view(*args)
        bags = list(view.bags)
        bags[2] = bags[2] | {len(view.ids)}
        return view._replace(bags=bags)

    monkeypatch.setattr(threecolor, "_class_view", stray)
    with pytest.raises(InternalInvariantError) as err:
        three_color_lists(*lists_of(g, ltd))
    assert str(err.value) == (
        "stage-1: enlarged decomposition invalid: bag-contents axiom fails at "
        "node and vertex (2, 12)"
    )


def test_final_check_names_the_first_largest_component(monkeypatch):
    """The whole coloring is checked against g at the end. With g = 1 every
    stage still passes its own bound and the final check refuses: it names
    the stage ``three-color``, the bound 1, and the first component of the
    largest size by smallest vertex, found here by a search of its own."""
    from dataclasses import replace

    from clustercolor import threecolor

    g, ltd, _ = gen_grid(6, triangulated=True)
    coloring = three_color_lists(*lists_of(g, ltd)).coloring
    seen, comps = set(), []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in g.neighbors(v):
                if u not in seen and coloring[u] == coloring[v]:
                    seen.add(u)
                    queue.append(u)
        comps.append(tuple(sorted(comp)))
    size = max(map(len, comps))
    assert sum(len(comp) == size for comp in comps) > 1

    chain = threecolor._constant_chain

    def g_of_one(*args):
        constants, *budgets = chain(*args)
        return replace(constants, g=1), *budgets

    monkeypatch.setattr(threecolor, "_constant_chain", g_of_one)
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*lists_of(g, ltd))
    assert (err.value.stage, err.value.bound) == ("three-color", 1)
    assert err.value.witness == next(c for c in comps if len(c) == size)


def _certified(g, ltd):
    """``three_color_lists``'s coloring, after checking it independently:
    every vertex colored from its class's palette, and the clustering
    measured again and within the bound."""
    result = three_color_lists(*lists_of(g, ltd))
    assert set(result.coloring) == set(range(g.n))
    assert _palette_violations(result, ltd.layering) == []
    measured = edge_components(g.n, g.edges, result.coloring)
    assert measured.max_size == result.clustering <= result.constants.g
    return result.coloring


def _rooted(g, ltd, root):
    td = TreeDecomposition(ltd.td.bags, ltd.td.edges, root=root)
    return g, LayeredTreeDecomposition(td, ltd.layering)


def _end_roots(g, ltd):
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
    instance = build()[:2]
    td = instance[1].td
    roots = range(td.node_count) if pick is None else pick(*instance)
    for root in roots:
        _certified(*_rooted(*instance, root))


def test_three_color_ignores_node_ids_when_the_root_moves_along():
    """Renumbering the nodes at random, with the root mapped along, leaves
    the coloring as it was."""
    instance = _rooted(*gen_grid(12, triangulated=True)[:2], root=5)
    expected = _certified(*instance)
    for seed in (1, 2, 3):
        assert _certified(*nodes_permuted(*instance, seed=seed)) == expected


def test_three_color_ignores_empty_leaf_bags():
    """Three empty bags hung as leaves off the first, middle and last node
    change no color."""
    g, ltd, _ = gen_grid(10, triangulated=True)
    td = ltd.td
    nn = td.node_count
    hangs = (0, nn // 2, nn - 1)
    grown = TreeDecomposition(
        list(td.bags) + [frozenset()] * 3,
        list(td.edges) + [(t, nn + k) for k, t in enumerate(hangs)],
        root=td.root,
    )
    padded = LayeredTreeDecomposition(grown, ltd.layering)
    assert _certified(g, padded) == _certified(g, ltd)


def test_three_color_colors_layers_whose_nodes_form_a_forest(monkeypatch):
    """On the 40-cycle with bags {0, i, i+1}, layered from vertex 0, each
    layer {i, 40-i} meets two far-apart stretches of the path, so the nodes
    of a layer's own part form two or more components of the input's tree;
    the class is colored over that whole tree, and the coloring is still
    certified."""
    from clustercolor import threecolor

    n = 40
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    td = TreeDecomposition(
        [frozenset({0, i, i + 1}) for i in range(1, n - 1)],
        [(t, t + 1) for t in range(n - 3)],
    )
    ly = bfs_layering(g, [0])
    assert [set(layer) for layer in ly.layers] == [
        {i, (n - i) % n} for i in range(n // 2 + 1)
    ]
    class_view = threecolor._class_view
    pieces = []

    def capturing(adj, holders, nn, layers):
        view = class_view(adj, holders, nn, layers)
        # The nodes each layer's own part holds: its vertices' and groups'.
        # In a forest, the components are the nodes less the edges.
        first = 0
        for (ids, _), (_, last) in zip(layers, view.parts):
            own = {t for v in ids for t in holders[v]}
            for grp in view.groups[first:last]:
                own |= grp.subtree
            joined = sum(a in own and b in own for a, b in td.edges)
            pieces.append(len(own) - joined)
            first = last
        return view

    monkeypatch.setattr(threecolor, "_class_view", capturing)
    _certified(g, LayeredTreeDecomposition(td, ly))
    assert max(pieces) >= 2


PALETTES = {1: (1, 2), 2: (2, 3), 3: (1, 3)}


def _class_of(li):
    """The class of layer li, also for the absent layers 0 and m + 1."""
    return (li - 1) % 3 + 1


def _spy_hand_offs(monkeypatch):
    """Spy on ``_class_view`` and ``band_color``. Returns a function that
    runs ``three_color_lists`` on its arguments and gives the coloring, the
    guard components each layer receives, by layer index, and each
    monochromatic component ``band_color`` finds, as (layer index, final
    color, original ids)."""
    from clustercolor import threecolor

    class_view, band_color = threecolor._class_view, threecolor.band_color
    layer_of, received, found, ids = {}, {}, [], []

    def viewing(adj, holders, nn, layers):
        view = class_view(adj, holders, nn, layers)
        for layer, guards in layers:
            received[layer_of[layer[0]]] = list(guards)
        ids[:] = view.ids
        return view

    def coloring(*args, **kwargs):
        colors, report = band_color(*args, **kwargs)
        palette = PALETTES[_class_of(layer_of[ids[0]])]
        for color, comp in report.components:
            comp = tuple(ids[v] for v in comp)
            found.append((layer_of[comp[0]], palette[color - 1], comp))
        return colors, report

    monkeypatch.setattr(threecolor, "_class_view", viewing)
    monkeypatch.setattr(threecolor, "band_color", coloring)

    def run(args):
        layer_of.clear()
        layer_of.update((v, li) for li, row in enumerate(args[4], start=1) for v in row)
        received.clear()
        found.clear()
        return three_color_lists(*args).coloring, dict(received), list(found)

    return run


def _hand_off_instances():
    """The grids, the path, the folded path, and seeded random
    decompositions layered by distance from vertex 0, with the empty layer
    between components that the layering puts in."""
    yield lists_of(*gen_grid(12, triangulated=True)[:2])
    yield lists_of(*gen_rect_grid(4, 40)[:2])
    yield lists_of(*gen_path(60)[:2])
    yield lists_of(*folded_path(41))
    rng = random.Random(23)
    for _ in range(40):
        g, td = random_decomposition(rng, max_nodes=30, max_bag=4)
        if g.n:
            yield lists_of(g, LayeredTreeDecomposition(td, bfs_layering(g, [0])))


def test_each_guard_component_reaches_the_one_layer_it_guards(monkeypatch):
    """A layer receives as guards only components lying wholly in one
    neighbor layer, all of whose vertices carry the one color the two
    layers' palettes share. Each component of a colored layer in a color
    that a later class shares reaches exactly one guard list, that of its
    neighbor layer in that class, unless that layer is empty or absent;
    every other component reaches none."""
    run = _spy_hand_offs(monkeypatch)
    handed = 0
    for args in _hand_off_instances():
        rows = args[4]
        layer_of = {v: li for li, row in enumerate(rows, start=1) for v in row}
        coloring, received, found = run(args)
        for li, guards in received.items():
            for comp in guards:
                (lj,) = {layer_of[v] for v in comp}
                assert abs(lj - li) == 1
                palettes = PALETTES[_class_of(li)], PALETTES[_class_of(lj)]
                (shared,) = set(palettes[0]).intersection(palettes[1])
                assert {coloring[v] for v in comp} == {shared}
        aimed = 0
        for lj, color, comp in found:
            expected = [
                li
                for li in (lj - 1, lj + 1)
                if 1 <= li <= len(rows)
                and rows[li - 1]
                and _class_of(li) > _class_of(lj)
                and color in PALETTES[_class_of(li)]
            ]
            reached = [li for li, guards in received.items() if comp in guards]
            assert reached == expected
            aimed += len(expected)
        # Every guard component received is one that band_color found.
        assert sum(map(len, received.values())) == aimed
        handed += aimed
    assert handed > 0


def test_guards_of_the_first_and_last_layers_aim_past_them():
    """A component of layer 1 in color 1 guards layer 0, and one of the last
    layer m, of class 1 or 2, in the color it shares with the next class
    guards layer m + 1; neither layer exists. Paths of m = 3 to 11
    singleton layers, as they are and between an empty first and last
    layer, color certified; layer 0 is aimed at for every m (mod 3), and
    layer m + 1 for m = 1 and 2 (mod 3), where the last layer is of class
    1 or 2."""
    aims = set()
    onward = {1: 2, 2: 3}
    for m in range(3, 12):
        g, ltd, _ = gen_path(m)
        for rows in (ltd.layering.layers, ((), *ltd.layering.layers, ())):
            layered = LayeredTreeDecomposition(ltd.td, Layering(rows))
            coloring = _certified(g, layered)
            if any(coloring[v] == 1 for v in rows[0]):
                aims.add(("first", len(rows) % 3))
            last = _class_of(len(rows))
            if any(coloring[v] == onward.get(last) for v in rows[-1]):
                aims.add(("last", len(rows) % 3))
    assert aims == {("first", 0), ("first", 1), ("first", 2), ("last", 1), ("last", 2)}
