import random
import tracemalloc

import pytest

from clustercolor import (
    AxiomCheck,
    Graph,
    InvalidDecomposition,
    InvalidLayering,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    ValidationReport,
    bfs_layering,
    check_decomposition,
    three_color_lists,
    tree_index,
)
from clustercolor.graph import edge_span, layer_index, layered_width

from helpers import bags_layered_width, indexed, lists_of, random_decomposition


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 1)])
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(3) == ()
    assert g.max_degree() == 2
    assert Graph(4, [[0, 1], [2, 1], (1, 0)]) == Graph(4, [(0, 1), (1, 2)])


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Graph(-1)


@pytest.mark.parametrize(
    "bags, edges, root, message",
    [
        ([{0}, {0}], [(1, 1)], 0, "self-loop at node 1"),
        ([{0}, {0}], [(0, 2)], 0, "tree edge (0, 2) out of range"),
        ([{0}, {0}], [(-1, 0)], 0, "tree edge (-1, 0) out of range"),
        ([{0}, {0}], [(0, 1)], 2, "root 2 out of range"),
        ([], [], 0, "a tree-decomposition needs at least one node"),
    ],
)
def test_tree_decomposition_constructor_rejections(bags, edges, root, message):
    with pytest.raises(ValueError) as err:
        TreeDecomposition(bags, edges, root)
    assert str(err.value) == message


def test_tree_decomposition_dedups_and_orients_pairs():
    td = TreeDecomposition([{0}] * 4, [(2, 0), (0, 1), (1, 0), (3, 0)])
    assert td.edges == frozenset({(0, 1), (0, 2), (0, 3)})


def test_layering_accessors():
    ly = Layering([(2, 0), (), (1,)])
    assert ly.m == 3
    assert ly.layers == ((0, 2), (), (1,))
    assert repr(ly) == "Layering(m=3, n=3)"
    with pytest.raises(ValueError):
        Layering([(0,), (0,)])


def test_layer_index_and_edge_span_axioms():
    edges = [(0, 1), (1, 2)]
    layer_of, partition = layer_index(3, [(0,), (1,), (2,)])
    assert partition.passed and edge_span(edges, layer_of).passed
    assert layer_index(3, [(0,), (1,)])[1] == AxiomCheck("partition", False, 2)
    layer_of, partition = layer_index(3, [(0, 2), (), (1,)])
    assert partition.passed
    assert edge_span(edges, layer_of) == AxiomCheck("edge-span", False, (0, 1))


def _reference_layer_index(n, rows):
    """``layer_index`` by a map of each listed vertex of 0..n-1 to its first
    row, which holds fewer than n entries exactly when a vertex is left
    out: the witness is the smallest vertex of 0..n-1 in no row or in two
    rows, else the smallest id outside 0..n-1, and the layers come as a
    list only when there is none."""
    first_row, bad, stray = {}, set(), []
    for i, row in enumerate(rows, start=1):
        for v in row:
            if not 0 <= v < n:
                stray.append(v)
            elif v in first_row:
                bad.add(v)
            else:
                first_row[v] = i
    if len(first_row) < n:
        bad.add(next(v for v in range(n) if v not in first_row))
    witness = min(bad) if bad else min(stray, default=None)
    layers = None if bad or stray else [first_row[v] for v in range(n)]
    return layers, AxiomCheck("partition", witness is None, witness)


def test_layer_index_matches_a_first_row_map():
    """Random rows of 0..n-1, split with empty rows among them, then given
    strays, repeats (in one row or in two) and gaps, some with n beyond the
    rows' total size: the list and the check are the reference's."""
    rng = random.Random(43)
    seen = dict.fromkeys(("passed", "stray", "repeat", "gap", "beyond"), 0)
    for _ in range(600):
        n = rng.randint(0, 12)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.choices(range(n + 1), k=rng.randint(0, 4)))
        rows = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        for _ in range(rng.choice((0, 0, 1, 2))):
            row = rng.choice(rows)
            kind = rng.choice(("stray", "repeat", "gap"))
            if kind == "stray":
                row.append(rng.choice((-1, -7, n, n + 3)))
            elif kind == "repeat" and n:
                row.append(rng.randrange(n))
            elif kind == "gap" and row:
                row.remove(rng.choice(row))
            seen[kind] += 1
        if rng.random() < 0.2:
            n += rng.randint(1, 3)
            seen["beyond"] += 1
        expected = _reference_layer_index(n, rows)
        assert layer_index(n, rows) == expected, (n, rows)
        seen["passed"] += expected[1].passed
    assert min(seen.values()) >= 50, seen


def test_layer_index_sizes_nothing_by_n():
    """Short rows over n = 10**9 leave vertices out, and the check finds the
    smallest one with memory for the rows alone."""
    n = 10**9
    for rows, witness in (
        ([(0, 2), (n - 1, 1)], 3),
        ([(1, n + 5), (0, 0)], 0),
        ([(0,), (n, -2), (1, n - 1)], 2),
    ):
        tracemalloc.start()
        try:
            got = layer_index(n, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _reference_layer_index(n, rows)
        assert got == (None, AxiomCheck("partition", False, witness))
        assert peak < 1 << 16, peak


def test_tree_decomposition_accessors():
    td = TreeDecomposition(
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})],
        [(0, 1), (1, 2)],
    )
    assert td.node_count == 3
    assert td.width() == 1
    assert td.edges == frozenset({(0, 1), (1, 2)})
    report = check_decomposition(3, [(0, 1), (1, 2)], td.bags, indexed(td))
    assert report.holders == [[0], [0, 1], [1, 2]]
    assert indexed(td).depth == [0, 1, 2]
    assert indexed(td).parent == [0, 0, 1]
    # A node the search cannot reach has depth and parent -1.
    assert tree_index(3, [(1, 2)], 2)[1:] == ([-1, 1, 0], [-1, 2, 2], False)
    assert TreeDecomposition([frozenset()]).width() == -1


def test_check_decomposition_axioms():
    """Each decomposition of the path 0-1-2 below fails the axiom named
    with it; the first fails none."""
    edges = [(0, 1), (1, 2)]
    assert check_decomposition(3, edges, [{0, 1}, {1, 2}], tree_index(2, [(0, 1)])).ok
    for axiom, bags, tree in [
        ("tree", [{0, 1}, {1, 2}, {2}], [(0, 1), (1, 2), (2, 0)]),
        ("vertex-coverage", [{0, 1}], []),
        ("edge-coverage", [{0, 1}, {2}], [(0, 1)]),
        ("connectivity", [{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)]),
        ("bag-contents", [{0, 1, 7}], []),
    ]:
        tree = tree_index(len(bags), tree)
        failures = check_decomposition(3, edges, bags, tree).failures()
        assert axiom in {check.axiom for check in failures}, axiom


@pytest.mark.parametrize(
    "bags, tree, root",
    [
        ([{0, 1}, {1, 2}], [(0, -1)], 0),
        ([{0, 1}, {1, 2}], [(0, 1)], -1),
        ([{0, 1}, {1, 2}], [(0, 2)], 0),
        ([{0, 1}, {1, 2}], [(0, 1)], 2),
        ([], [], 0),
    ],
)
def test_tree_axiom_fails_when_the_tree_names_no_node(bags, tree, root):
    """A tree edge or root outside the nodes, or no node at all, fails the
    tree axiom; it neither wraps round to a node counted from the end nor
    raises IndexError."""
    edges, rows = [(0, 1), (1, 2)], [[0], [1], [2]]
    report = check_decomposition(3, edges, bags, tree_index(len(bags), tree, root))
    assert report.checks[0] == AxiomCheck("tree", False)
    with pytest.raises(
        InvalidDecomposition, match=r"^invalid decomposition: tree axiom fails$"
    ):
        three_color_lists(3, edges, bags, tree, rows, root)



@pytest.mark.parametrize(
    "rows, witness",
    [
        ([(0, 1, 2), (2,)], 2),
        ([(1, 5, 0, 2)], 5),
        ([(0, 1), (1,), (7,)], 1),
        ([(2, -4, 1), (1, 0)], 1),
        ([(2, 1), (2,), (-1,)], 0),
        ([(2, 0, 9, 1, -3)], -3),
    ],
)
def test_flat_rows_must_partition_the_vertices(rows, witness):
    """The flat entry point refuses a vertex in two rows, and checks every
    id's range in rows given in any order. The witness is the smallest
    vertex of 0..n-1 in no row or in two rows, else the smallest stray id."""
    with pytest.raises(
        InvalidLayering,
        match=rf"^invalid layering: partition axiom fails at vertex {witness}$",
    ):
        three_color_lists(3, [(0, 1)], [frozenset({0, 1, 2})], [], rows)

def test_bags_layered_width_measures_bag_layer_overlap():
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    td = TreeDecomposition([frozenset({0, 1, 2, 3})])
    ly = Layering([(0, 1), (2, 3)])
    holders = check_decomposition(4, g.edges, td.bags, indexed(td)).holders
    assert layered_width(ly.layers, holders) == 2
    assert bags_layered_width(td.bags, layer_index(4, ly.layers)[0]) == 2
    bad = LayeredTreeDecomposition(td, Layering([(0, 1), (2,)]))
    with pytest.raises(
        InvalidLayering, match=r"^invalid layering: partition axiom fails at vertex 3$"
    ):
        three_color_lists(*lists_of(g, bad))
    bad_td = LayeredTreeDecomposition(TreeDecomposition([frozenset({0})]), ly)
    with pytest.raises(
        InvalidDecomposition,
        match=r"^invalid decomposition: vertex-coverage axiom fails at vertex 1$",
    ):
        three_color_lists(*lists_of(g, bad_td))
    forest = TreeDecomposition([frozenset({0, 1, 2}), frozenset({1, 2, 3})], [])
    with pytest.raises(
        InvalidDecomposition, match=r"^invalid decomposition: tree axiom fails$"
    ):
        three_color_lists(*lists_of(g, LayeredTreeDecomposition(forest, ly)))


def _random_rows(rng, n):
    """A partition of 0..n-1 into shuffled rows in shuffled order, with
    empty rows and rows of tied sizes likely."""
    rows = [[] for _ in range(rng.randint(1, n + 2))]
    for v in range(n):
        rows[rng.randrange(len(rows))].append(v)
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    return rows


def test_layered_width_matches_the_per_bag_count():
    """``layered_width``, layer by layer and largest first, against the
    per-bag reference, on partitions where small layers follow a larger
    share than they can hold."""
    rng = random.Random(41)
    for _ in range(300):
        g, td = random_decomposition(rng, max_nodes=12, max_bag=6)
        holders = check_decomposition(g.n, g.edges, td.bags, indexed(td)).holders
        rows = _random_rows(rng, g.n)
        expected = bags_layered_width(td.bags, layer_index(g.n, rows)[0])
        assert layered_width(rows, holders) == expected, rows


@pytest.mark.parametrize("n, k", [(4, 2), (12, 2), (30, 5), (31, 7)])
def test_layered_width_counts_every_layer_when_none_stops_it(n, k):
    """The path decomposition {i, i+1} of a path, layered by the residues
    mod k: every layer has two or more vertices and no bag holds two of one
    layer, so no layer is small enough to stop the count early."""
    bags = [frozenset({i, i + 1}) for i in range(n - 1)]
    td = TreeDecomposition(bags, [(t, t + 1) for t in range(n - 2)])
    edges = [(i, i + 1) for i in range(n - 1)]
    holders = check_decomposition(n, edges, td.bags, indexed(td)).holders
    rows = [list(range(r, n, k)) for r in range(k)]
    width = bags_layered_width(td.bags, layer_index(n, rows)[0])
    assert layered_width(rows, holders) == width == 1
    assert min(map(len, rows)) > width


def test_layered_width_stops_at_a_layer_no_larger_than_the_best_share():
    """One bag holds the whole largest layer, so the count reads that
    layer's vertices and no other's."""
    read = []

    class Holders(list):
        def __getitem__(self, v):
            read.append(v)
            return list.__getitem__(self, v)

    n = 40
    rows = [[v] for v in range(n - 3)] + [[n - 3, n - 2, n - 1]]
    holders = Holders([[0]] * (n - 3) + [[1]] * 3)
    assert layered_width(rows, holders) == 3
    assert sorted(read) == [n - 3, n - 2, n - 1]


@pytest.mark.parametrize(
    "roots, message", [([], "roots must be nonempty"), ([0, 3], "root 3 out of range")]
)
def test_bfs_layering_rejects_missing_or_stray_roots(roots, message):
    with pytest.raises(ValueError) as err:
        bfs_layering(Graph(3, [(0, 1)]), roots)
    assert str(err.value) == message


def test_edge_span_skips_unlayered_ends_and_names_the_smallest_far_edge():
    # Layers of vertices 0..5; vertex 5 is in no layer.
    layer_of = [1, 3, 1, 4, 2, 0]
    edges = [(2, 3), (0, 1), (0, 4), (1, 3), (3, 5), (0, 5)]
    assert edge_span(edges, layer_of) == AxiomCheck("edge-span", False, (0, 1))
    assert edge_span(edges[2:], layer_of) == AxiomCheck("edge-span", True, None)
    assert edge_span([], []).passed


def test_an_axiom_with_no_witness_noun_gives_its_witness_bare():
    """Any axiom can describe its failure: one the graph checks do not name
    a witness for gives the witness bare."""
    assert AxiomCheck("list-domain", False, 1).describe() == (
        "list-domain axiom fails at 1"
    )
    assert AxiomCheck("interior-lists", False).describe() == (
        "interior-lists axiom fails"
    )
    assert AxiomCheck("edge-coverage", False, (0, 1)).describe() == (
        "edge-coverage axiom fails at edge (0, 1)"
    )
    report = ValidationReport((AxiomCheck("singleton-set", False, 0),))
    with pytest.raises(
        InvalidLayering, match=r"^invalid layering: singleton-set axiom fails at 0$"
    ):
        report.require(InvalidLayering)


def test_a_single_check_raises_for_itself():
    """A failed check raises the given error with the message its report
    would give; a passed check raises nothing."""
    failed = AxiomCheck("partition", False, 3)
    AxiomCheck("partition", True).require(InvalidLayering)
    report = ValidationReport((AxiomCheck("edge-span", True), failed))
    for require in (failed.require, report.require):
        with pytest.raises(
            InvalidLayering,
            match=r"^invalid layering: partition axiom fails at vertex 3$",
        ):
            require(InvalidLayering)


def test_an_index_of_another_node_count_fails_the_tree_axiom():
    """An index built for fewer or more nodes than there are bags is no
    index of their tree, even when it is a tree itself: the tree axiom
    fails and connectivity is not reported."""
    edges, bags = [(0, 1)], [{0, 1}, {1}, {1}]
    for nn in (2, 4):
        tree = tree_index(nn, [(t, t + 1) for t in range(nn - 1)])
        assert tree.is_tree
        report = check_decomposition(2, edges, bags, tree)
        assert [(c.axiom, c.passed) for c in report.checks] == [
            ("tree", False),
            ("bag-contents", True),
            ("vertex-coverage", True),
            ("edge-coverage", True),
        ]
    path = tree_index(3, [(0, 1), (1, 2)])
    assert check_decomposition(2, edges, bags, path).ok


def test_bfs_layering_spans_edges_and_restarts():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    ly = bfs_layering(g, [0])
    layer_of, partition = layer_index(g.n, ly.layers)
    assert partition.passed and edge_span(g.edges, layer_of).passed
    assert layer_of[0] == 1
    # vertex 5 is isolated and 3-4 form a separate component; a separating
    # empty layer keeps edge spans valid after the restart
    assert () in ly.layers


def test_bfs_layering_restarts_each_component_from_its_smallest_vertex():
    # Three components and two isolated vertices; each one left unreached
    # is layered from its smallest vertex after an empty separator layer.
    g = Graph(12, [(0, 4), (4, 8), (1, 5), (5, 9), (2, 5), (9, 10), (3, 7)])
    assert bfs_layering(g, [5]).layers == (
        (5,), (1, 2, 9), (10,),
        (), (0,), (4,), (8,),
        (), (3,), (7,),
        (), (6,),
        (), (11,),
    )
    assert bfs_layering(g, [9, 7]).layers == (
        (7, 9), (3, 5, 10), (1, 2),
        (), (0,), (4,), (8,),
        (), (6,),
        (), (11,),
    )


def test_random_decompositions_validate():
    rng = random.Random(7)
    for _ in range(50):
        g, td = random_decomposition(rng)
        assert check_decomposition(g.n, g.edges, td.bags, indexed(td)).ok


def _reference_checks(g, td):
    """The decomposition axioms stated by brute force, in the validator's
    order and with its witnesses: the first stray (node, vertex), uncovered
    vertex, uncovered edge in sorted order, and vertex whose nodes are
    disconnected. Connectivity is stated only on a tree whose bags hold no
    stray id."""

    def connected(nodes):
        seen = {min(nodes)}
        grew = True
        while grew:
            grew = False
            for a, b in td.edges:
                if a in nodes and b in nodes and (a in seen) != (b in seen):
                    seen |= {a, b}
                    grew = True
        return seen == nodes

    nodes = set(range(td.node_count))
    tree = len(td.edges) == td.node_count - 1 and connected(nodes)
    stray = next(
        (
            (t, v)
            for t, bag in enumerate(td.bags)
            for v in sorted(bag)
            if not 0 <= v < g.n
        ),
        None,
    )
    missing = next(
        (v for v in range(g.n) if not any(v in bag for bag in td.bags)), None
    )
    bad_edge = next(
        (
            (u, v)
            for u, v in sorted(g.edges)
            if not any(u in bag and v in bag for bag in td.bags)
        ),
        None,
    )
    bad_vertex = next(
        (
            v
            for v in sorted(set().union(*td.bags))
            if not connected({t for t in nodes if v in td.bags[t]})
        ),
        None,
    )
    checks = [
        ("tree", tree, None),
        ("bag-contents", stray is None, stray),
        ("vertex-coverage", missing is None, missing),
        ("edge-coverage", bad_edge is None, bad_edge),
    ]
    if tree and stray is None:
        checks.append(("connectivity", bad_vertex is None, bad_vertex))
    return checks


def _drop_shared_bag(rng, g, bags, edges):
    if g.edges:
        u, v = rng.choice(sorted(g.edges))
        drop = rng.choice((u, v))
        for bag in bags:
            if u in bag and v in bag:
                bag.discard(drop)


def _split_subtree(rng, g, bags, edges):
    if g.n:
        v = rng.randrange(g.n)
        bags[rng.randrange(len(bags))].add(v)


def _add_cycle_edge(rng, g, bags, edges):
    if len(bags) >= 2:
        edges.append(tuple(rng.sample(range(len(bags)), 2)))


def _add_stray_vertex(rng, g, bags, edges):
    bags[rng.randrange(len(bags))].add(rng.choice((-1, g.n, g.n + 3)))


BREAKERS = {
    "edge-coverage": _drop_shared_bag,
    "connectivity": _split_subtree,
    "tree": _add_cycle_edge,
    "bag-contents": _add_stray_vertex,
}


def test_validator_matches_brute_force_on_broken_decompositions():
    """Each decomposition is rooted at a random node and its bags are given
    as sets, as the class views give them."""
    rng = random.Random(23)
    caught = dict.fromkeys(BREAKERS, 0)
    for _ in range(150):
        g, td = random_decomposition(rng, max_nodes=12, max_bag=5)
        for axiom, breaker in BREAKERS.items():
            bags = [set(bag) for bag in td.bags]
            edges = list(td.edges)
            breaker(rng, g, bags, edges)
            broken = TreeDecomposition(bags, edges, rng.randrange(len(bags)))
            report = check_decomposition(g.n, g.edges, bags, indexed(broken))
            got = [(c.axiom, c.passed, c.witness) for c in report.checks]
            assert got == _reference_checks(g, broken)
            # A check left out of the report has caught nothing.
            caught[axiom] += not dict((a, p) for a, p, _ in got).get(axiom, True)
    assert all(caught.values()), caught


def test_validator_witnesses_are_smallest_among_several_failures():
    """Two to four breaks per decomposition, so an axiom can fail at several
    items and the witness must be the smallest of them; rooted at a random
    node, with set bags."""
    rng = random.Random(31)
    for _ in range(150):
        g, td = random_decomposition(rng, max_nodes=12, max_bag=5)
        bags = [set(bag) for bag in td.bags]
        edges = list(td.edges)
        for _ in range(rng.randint(2, 4)):
            rng.choice(list(BREAKERS.values()))(rng, g, bags, edges)
        broken = TreeDecomposition(bags, edges, rng.randrange(len(bags)))
        report = check_decomposition(g.n, g.edges, bags, indexed(broken))
        got = [(c.axiom, c.passed, c.witness) for c in report.checks]
        assert got == _reference_checks(g, broken)


@pytest.mark.parametrize("root", range(3))
def test_connectivity_fails_for_a_vertex_split_between_the_root_and_a_leaf(root):
    """On the path of nodes 0 - 1 - 2, vertex 0 sits in the bags of nodes 0
    and 2 but not of node 1. Rooted at node 2, node 2's whole bag and node
    0's vertex 0 are tops: three tops for two vertices. Counting node 0's
    bag in place of the root's would find two. Every root finds vertex 0
    split."""
    bags = [{0}, {1}, {0, 1}]
    tree = tree_index(3, [(0, 1), (1, 2)], root)
    report = check_decomposition(2, [(0, 1)], bags, tree)
    assert report.checks[-1] == AxiomCheck("connectivity", False, 0)
    assert report.failures() == (report.checks[-1],)


def test_connectivity_on_a_cyclic_decomposition():
    """Connectivity is defined only on a tree, so off one the report names
    the tree failure and gives no connectivity verdict: no count can call a
    split vertex connected. Vertex 0 sits on a triangle of nodes, which has
    as many edges as its four nodes need, and on a node reached only
    through a node that lacks it."""
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition(
        [{0, 1}, {0}, {0}, {1}, {0}], [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]
    )
    report = check_decomposition(g.n, g.edges, td.bags, indexed(td))
    got = [(c.axiom, c.passed, c.witness) for c in report.checks]
    assert got == _reference_checks(g, td)
    assert [(c.axiom, c.passed) for c in report.checks] == [
        ("tree", False),
        ("bag-contents", True),
        ("vertex-coverage", True),
        ("edge-coverage", True),
    ]


def test_connectivity_check_is_linear_on_a_star():
    """A star decomposition (center bag {0..k-1}, leaf i holding {i}) costs a
    neighbor scan of the whole center per vertex when each vertex's nodes
    are searched through the tree's adjacency. Count the work instead of
    timing it: tree pairs read plus bag elements visited must stay linear
    in the total bag size."""
    work = [0]
    pairs_read = [0]

    class CountingBag(frozenset):
        def __contains__(self, v):
            work[0] += 1
            return frozenset.__contains__(self, v)

        def __iter__(self):
            for v in frozenset.__iter__(self):
                work[0] += 1
                yield v

    class CountingPairs(frozenset):
        def __iter__(self):
            for pair in frozenset.__iter__(self):
                pairs_read[0] += 1
                yield pair

    k = 1000
    g = Graph(k, [(i, i + 1) for i in range(k - 1)])
    td = TreeDecomposition(
        [range(k)] + [[i] for i in range(k)], [(0, i + 1) for i in range(k)]
    )
    td.bags = tuple(CountingBag(bag) for bag in td.bags)
    td.edges = CountingPairs(td.edges)
    assert check_decomposition(g.n, g.edges, td.bags, indexed(td)).ok
    assert pairs_read[0] >= len(td.edges)
    bag_sum = sum(len(bag) for bag in td.bags)
    assert work[0] + pairs_read[0] <= 8 * bag_sum


def _reference_layering_checks(g, ly):
    """The layering axioms stated directly, with the validator's witnesses:
    the first uncovered vertex, else the first stray id, and the first
    edge in sorted order whose endpoints lie two or more layers apart."""
    layer_of = {v: i for i, layer in enumerate(ly.layers, start=1) for v in layer}
    missing = next((v for v in range(g.n) if v not in layer_of), None)
    stray = next((v for v in sorted(layer_of) if not 0 <= v < g.n), None)
    bad_edge = next(
        (
            (u, v)
            for u, v in sorted(g.edges)
            if u in layer_of
            and v in layer_of
            and abs(layer_of[u] - layer_of[v]) > 1
        ),
        None,
    )
    return [
        (
            "partition",
            missing is None and stray is None,
            missing if missing is not None else stray,
        ),
        ("edge-span", bad_edge is None, bad_edge),
    ]


def _drop_vertex(rng, g, layers):
    row = rng.choice([row for row in layers if row] or [[]])
    if row:
        row.remove(rng.choice(row))


def _add_stray_id(rng, g, layers):
    stray = rng.choice((-2, -1, g.n, g.n + 3))
    row = rng.choice(layers)
    if stray not in {v for row in layers for v in row}:
        row.append(stray)


def _stretch_edge(rng, g, layers):
    if not g.edges:
        return
    u, v = rng.choice(sorted(g.edges))
    home = next((i for i, row in enumerate(layers) if u in row), None)
    for row in layers:
        if v in row:
            row.remove(v)
    target = home + rng.choice((-3, -2, 2, 3)) if home is not None else 0
    while target >= len(layers):
        layers.append([])
    if target < 0:
        layers[:0] = [[] for _ in range(-target)]
        target = 0
    layers[target].append(v)


LAYERING_BREAKERS = {
    "partition": (_drop_vertex, _add_stray_id),
    "edge-span": (_stretch_edge,),
}


def test_layering_validator_matches_reference_on_broken_layerings():
    rng = random.Random(29)
    caught = dict.fromkeys(LAYERING_BREAKERS, 0)
    for _ in range(200):
        g, _ = random_decomposition(rng, max_nodes=12, max_bag=5, edge_prob=0.7)
        if not g.n:
            continue
        ly = bfs_layering(g, [rng.randrange(g.n)])
        layers = [list(row) for row in ly.layers]
        # One to three breaks, so several items can fail at once and the
        # witness must be the smallest of them.
        for _ in range(rng.randint(1, 3)):
            breakers = rng.choice(list(LAYERING_BREAKERS.values()))
            rng.choice(breakers)(rng, g, layers)
        broken = Layering(layers)
        layer_of, partition = layer_index(g.n, broken.layers)
        # Rows that are no partition give no list, so edge-span is checked
        # on each vertex's first row, 0 for a vertex in none.
        first_row = [0] * g.n
        for i, row in enumerate(broken.layers, start=1):
            for v in row:
                if 0 <= v < g.n and not first_row[v]:
                    first_row[v] = i
        assert layer_of == (first_row if partition.passed else None)
        got = [
            (c.axiom, c.passed, c.witness)
            for c in (partition, edge_span(g.edges, first_row))
        ]
        assert got == _reference_layering_checks(g, broken)
        for axiom, passed, _ in got:
            caught[axiom] += not passed
    assert all(count >= 20 for count in caught.values()), caught
