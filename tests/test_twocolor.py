import random
from itertools import combinations

import pytest

from clustercolor import (
    EdgeGroup,
    Graph,
    GroupBudget,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
    TreeDecomposition,
    check_decomposition,
    cluster_bound,
    edge_components,
    enlarge_lists,
    gen_grid,
    gen_path,
    gen_rect_grid,
    two_color_bounded_treewidth,
)

from clustercolor.graph import _tree_index
from clustercolor.twocolor import band_color
from helpers import (
    connected,
    random_decomposition,
    random_groups,
    random_subtree,
    tree_neighbors,
)


def test_cluster_bound_values():
    assert cluster_bound(1, 2) == 16
    assert cluster_bound(3, 4) == 64
    assert cluster_bound(0, 0) == 4
    assert cluster_bound(-1, 5) == 20


def test_two_color_path():
    g, ltd, delta = gen_path(100)
    coloring, measured = two_color_bounded_treewidth(g, ltd.td)
    assert set(coloring) == set(range(100))
    assert set(coloring.values()) <= {1, 2}
    assert measured <= cluster_bound(ltd.td.width(), delta)
    assert measured == edge_components(g.n, g.edges, coloring).max_size


def test_two_color_is_deterministic():
    g, ltd, _ = gen_path(40)
    first = two_color_bounded_treewidth(g, ltd.td)
    second = two_color_bounded_treewidth(g, ltd.td)
    assert first == second


def test_two_color_searches_the_tree_once(monkeypatch):
    """The depths to band by come from the validation's own search."""
    from clustercolor import graph

    calls = [0]
    search = graph._search

    def counting(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(graph, "_search", counting)
    g, ltd, _ = gen_rect_grid(3, 20)
    td = TreeDecomposition(ltd.td.bags, ltd.td.edges, ltd.td.node_count // 2)
    two_color_bounded_treewidth(g, td)
    assert calls[0] == 1


def test_two_color_three_row_grids_plateau():
    results = {}
    for cols in (50, 200):
        g, ltd, delta = gen_rect_grid(3, cols)
        coloring, measured = two_color_bounded_treewidth(g, ltd.td)
        assert set(coloring.values()) <= {1, 2}
        assert measured <= cluster_bound(ltd.td.width(), delta)
        results[cols] = measured
    assert results[50] == results[200]


def test_two_color_single_vertex_and_empty():
    g, ltd, _ = gen_path(1)
    coloring, measured = two_color_bounded_treewidth(g, ltd.td)
    assert coloring == {0: 1} and measured == 1
    empty = Graph(0, [])
    td = TreeDecomposition([frozenset()])
    assert two_color_bounded_treewidth(empty, td) == ({}, 0)


def test_two_color_rejects_bad_decomposition():
    g, _, _ = gen_grid(4)
    broken = TreeDecomposition([frozenset({0, 1})])
    with pytest.raises(InvalidDecomposition):
        two_color_bounded_treewidth(g, broken)


def _two_bag_instance():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    td = TreeDecomposition(
        [frozenset({0, 1, 2}), frozenset({2, 3, 4})], [(0, 1)]
    )
    return g, td


def test_enlarge_adds_edges_and_bounds_width():
    g, td = _two_bag_instance()
    group = EdgeGroup(subtree=frozenset({0, 1}), ends=(0, 3, 4))
    budget = GroupBudget(3, 2, 1)
    edges, bags, pairs = enlarge_lists(
        g.n, g.edges, td.bags, td.edges, [group], budget
    )
    g2, td2 = Graph(g.n, edges), TreeDecomposition(bags, td.edges)
    assert pairs == 3
    assert {(0, 3), (0, 4), (3, 4)} <= g2.edges
    assert check_decomposition(g2.n, g2.edges, td2.bags, td2.edges).ok
    assert td2.width() <= td.width() + 2 * 1 * 3 == 8
    assert g2.max_degree() <= g.max_degree() + 2
    assert (0, 3) not in g.edges


def test_enlarge_adds_each_clique_and_counts_its_uses():
    """The enlarged edges are the input's plus every pair of each group's
    ends, each once, and the returned count is of distinct pairs: (2, 3),
    which two groups hold, counts once, and (1, 2), an input edge, counts
    but is not added again. A vertex's pair uses are the sum of
    len(ends) - 1 over the groups that hold it, a pair repeated across
    groups counting in each:
    vertices 0 to 3 are used 1, 2, 3 and 4 times, so a budget of d uses
    names vertex d, the smallest over it, with its d + 1 uses."""
    bags, tree = [{0, 1, 2, 3}, {3}], [(0, 1)]
    groups = [
        EdgeGroup(frozenset({0}), (0, 3)),
        EdgeGroup(frozenset({0}), (1, 2, 3)),
        EdgeGroup(frozenset({0, 1}), (2, 3)),
    ]
    budget = GroupBudget(3, 4, 3)
    edges, new_bags, pairs = enlarge_lists(4, [(1, 2)], bags, tree, groups, budget)
    cliques = {pair for grp in groups for pair in combinations(grp.ends, 2)}
    assert set(edges) == {(1, 2)} | cliques == {(0, 3), (1, 2), (1, 3), (2, 3)}
    assert pairs == len(cliques) == len(edges) == 4
    assert new_bags == [{0, 1, 2, 3}, {2, 3}]
    for d in range(4):
        with pytest.raises(GroupBudgetError) as err:
            enlarge_lists(4, [(1, 2)], bags, tree, groups, GroupBudget(3, d, 3))
        assert str(err.value) == (
            f"max_pair_uses_per_vertex: vertex {d} used by {d + 1} pairs"
        )


def test_enlarge_validates_an_input_with_nothing_to_add():
    """With no pairs to add, whether there is no group or each has fewer
    than two ends, the input comes back as the same objects with no pair
    counted, but only after it is validated: an invalid one is an internal
    fault that names the failed axiom and its witness."""
    edges, bags, tree = [(0, 1)], [{0, 1}, {1}], [(0, 1)]
    g, td = _two_bag_instance()
    idle = [EdgeGroup(subtree=frozenset(), ends=()), EdgeGroup(frozenset(), (1,))]
    none = GroupBudget(0, 0, 0)
    for groups in ([], idle):
        out_edges, out_bags, pairs = enlarge_lists(2, edges, bags, tree, groups, none)
        assert out_edges is edges and out_bags is bags and pairs == 0
        out_edges, out_bags, pairs = enlarge_lists(
            g.n, g.edges, td.bags, td.edges, groups, GroupBudget(1, 1, 1)
        )
        assert out_edges is g.edges and out_bags is td.bags and pairs == 0
        with pytest.raises(InternalInvariantError) as err:
            enlarge_lists(2, edges, [{0}, {1}], tree, groups, none)
        assert str(err.value) == (
            "enlarged decomposition invalid: edge-coverage axiom fails at edge (0, 1)"
        )
    with pytest.raises(InternalInvariantError, match="tree axiom fails$"):
        enlarge_lists(g.n, g.edges, td.bags, (), [], GroupBudget(1, 1, 1))


def test_enlarge_budget_errors_name_the_smallest_violator():
    """Two vertices over their pair uses and two nodes over their group
    count, each first met at the larger id: the smaller one is named."""
    bags = [set(range(6))] * 3
    tree = [(0, 1), (1, 2)]

    def group(node, *ends):
        return EdgeGroup(subtree=frozenset({node}), ends=ends)

    uses = [group(0, 4, 5), group(0, 2, 4), group(0, 1, 2)]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(6, [], bags, tree, uses, GroupBudget(9, 1, 9))
    assert str(err.value) == "max_pair_uses_per_vertex: vertex 2 used by 2 pairs"
    covers = [group(2, 0, 1), group(2, 2, 3), group(1, 4, 5), group(1, 0, 5)]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(6, [], bags, tree, covers, GroupBudget(9, 9, 1))
    assert str(err.value) == "max_groups_per_node: node 1 covered by 2 group subtrees"


def test_enlarge_budget_violations():
    g, td = _two_bag_instance()
    group = EdgeGroup(subtree=frozenset({0, 1}), ends=(0, 3, 4))
    instance = (g.n, g.edges, td.bags, td.edges)
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(*instance, [group], GroupBudget(2, 9, 9))
    assert err.value.budget == "max_pairs_per_group"
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(*instance, [group], GroupBudget(9, 1, 9))
    assert err.value.budget == "max_pair_uses_per_vertex"
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(*instance, [group, group], GroupBudget(9, 9, 1))
    assert err.value.budget == "max_groups_per_node"


def test_enlarge_rejects_malformed_groups():
    """Ends that repeat, descend or leave 0..n-1 are refused, as is an end
    in no bag of the subtree; the lowest such end is named."""
    g, td = _two_bag_instance()
    budget = GroupBudget(9, 9, 9)
    split = EdgeGroup(subtree=frozenset({0, 3}), ends=(0, 1))
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(g.n, g.edges, td.bags, td.edges, [split], budget)
    assert str(err.value) == "group-structure: group 0 node 3 out of range"

    far = EdgeGroup(subtree=frozenset({0}), ends=(1, 3, 4))
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(g.n, g.edges, td.bags, td.edges, [far], budget)
    assert err.value.budget == "group-structure"
    assert str(err.value) == (
        "group-structure: group 0 end 3 is in no bag of its subtree"
    )

    for ends in ((1, 1), (2, 1), (0, 1, 1), (3, 5), (-1, 0)):
        bad = EdgeGroup(subtree=frozenset({0}), ends=ends)
        with pytest.raises(GroupBudgetError) as err:
            enlarge_lists(g.n, g.edges, td.bags, td.edges, [bad], budget)
        assert str(err.value) == f"group-structure: group 0 has invalid ends {ends}"

    gap = EdgeGroup(subtree=frozenset({0, 2}), ends=(0, 1))
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(2, [], [{0, 1}] * 3, [(0, 1), (1, 2)], [gap], budget)
    assert str(err.value) == "group-structure: group 0 subtree is not connected"


def test_enlarge_rejects_a_group_with_an_empty_subtree():
    """An empty node set is not a connected subtree, even for a pair whose
    ends share a bag."""
    empty = EdgeGroup(frozenset(), (0, 1))
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(2, [], [{0, 1}], [], [empty], GroupBudget(5, 5, 5))
    assert str(err.value) == "group-structure: group 0 subtree is not connected"


def test_enlarge_off_a_tree_leaves_the_subtree_to_the_output_check():
    """Off a tree the count may pass a disconnected subtree: a cycle on
    nodes 0-2 and a lone node 3 give four nodes three joining edges. The
    cycle's three nodes have one joining edge more than a tree gives them,
    and pass too. The output check then refuses the tree."""
    bags, tree = [{0, 1}, {1}, {1}, {0}], [(0, 1), (1, 2), (0, 2)]
    for nodes in ({0, 1, 2, 3}, {0, 1, 2}):
        group = EdgeGroup(frozenset(nodes), (0, 1))
        with pytest.raises(InternalInvariantError) as err:
            enlarge_lists(2, [], bags, tree, [group], GroupBudget(9, 9, 9))
        assert str(err.value) == "enlarged decomposition invalid: tree axiom fails"


def test_enlarge_refuses_a_subtree_exactly_when_a_search_finds_it_disconnected():
    """The count that decides a group's subtree agrees with a breadth-first
    search over random trees, paths, stars and single nodes. Node sets are
    drawn node by node, so they are often disconnected and sometimes empty;
    each carries one pair whose ends lie in the set's bags."""
    rng = random.Random(67)
    seen = {"refused": 0, "accepted": 0, "empty": 0, "single": 0}
    seen.update(path=0, star=0, tree=0)
    while seen["refused"] + seen["accepted"] < 400:
        shape = rng.choice(("tree", "path", "star"))
        max_nodes = rng.choice((1, 8))
        g, td = random_decomposition(rng, max_nodes=max_nodes, shape=shape)
        nodes = frozenset(t for t in range(td.node_count) if rng.random() < 0.5)
        # An empty set's pair may be any pair: it is refused before the bags.
        bags = [td.bags[t] for t in nodes] if nodes else [range(g.n)]
        pool = sorted(set().union(*bags))
        if len(pool) < 2:
            continue
        group = EdgeGroup(nodes, tuple(sorted(rng.sample(pool, 2))))
        budget = GroupBudget(1, 1, 1)
        try:
            enlarge_lists(g.n, g.edges, td.bags, td.edges, [group], budget)
            refused = False
        except GroupBudgetError as exc:
            assert str(exc) == "group-structure: group 0 subtree is not connected"
            refused = True
        assert refused == (not connected(tree_neighbors(td), nodes))
        seen["refused" if refused else "accepted"] += 1
        seen["empty"] += not nodes
        seen["single"] += td.node_count == 1
        seen[shape] += refused and td.node_count > 2
    assert min(seen.values()) >= 20, seen


def test_enlarge_with_groups_skips_a_tree_pair_that_names_no_node():
    """Such a pair joins nothing, as in the decomposition check, so with or
    without a group the output fails the tree axiom instead of indexing
    past the nodes."""
    bags, tree = [{0, 1}, {1}], [(0, 5)]
    group = EdgeGroup(frozenset({0}), (0, 1))
    for groups in ([], [group]):
        with pytest.raises(InternalInvariantError) as err:
            enlarge_lists(2, [], bags, tree, groups, GroupBudget(5, 5, 5))
        assert str(err.value) == "enlarged decomposition invalid: tree axiom fails"


def test_enlarge_counts_budgets_and_growth_per_part():
    """With parts, the budget and the growth are per part. One group of each
    part on nodes 0 and 1 passes a budget of one group per node and one pair
    per group, and pours four ends into node 1's empty bag: 2hk = 2 in each
    part, four in all. As one part the two groups exceed the budget. Errors
    name vertices and groups by their positions within their part, and carry
    the part's index. Parts whose vertex or group ends decrease, or whose
    last ends are not n and the group count, are refused."""
    bags, tree = [{0, 1, 2, 3}, set()], [(0, 1)]
    groups = [
        EdgeGroup(frozenset({0, 1}), (0, 1)),
        EdgeGroup(frozenset({0, 1}), (2, 3)),
    ]
    budget = GroupBudget(1, 1, 1)
    parts = [(2, 1), (4, 2)]
    edges, new_bags, pairs = enlarge_lists(4, [], bags, tree, groups, budget, parts)
    assert sorted(edges) == [(0, 1), (2, 3)] and pairs == 2
    assert new_bags == [{0, 1, 2, 3}] * 2
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(4, [], bags, tree, groups, budget)
    assert str(err.value) == "max_groups_per_node: node 0 covered by 2 group subtrees"
    assert err.value.part == 0
    cases = {
        (2, 2): "group-structure: group 0 has invalid ends (0, 0)",
        (1, 2): "group-structure: group 0 has invalid ends (-1, 0)",
        (2, 4): "group-structure: group 0 has invalid ends (0, 2)",
        (1, 2, 3): "max_pairs_per_group: group 0 has 3 pairs",
    }
    for ends, message in cases.items():
        bad = [groups[0], EdgeGroup(frozenset({0}), ends)]
        with pytest.raises(GroupBudgetError) as err:
            enlarge_lists(4, [], bags, tree, bad, budget, parts)
        assert (str(err.value), err.value.part) == (message, 1)
    # Part 1's two groups both use its vertex 0 (vertex 2); uses are checked
    # before the node covers.
    twice = [groups[0], *[EdgeGroup(frozenset({0}), (2, 3))] * 2]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(4, [], bags, tree, twice, budget, [(2, 1), (4, 3)])
    assert str(err.value) == "max_pair_uses_per_vertex: vertex 0 used by 2 pairs"
    assert err.value.part == 1
    for malformed in ([(3, 1), (2, 1), (4, 2)], [(2, 2), (3, 1), (4, 2)]):
        with pytest.raises(ValueError, match="must not decrease"):
            enlarge_lists(4, [], bags, tree, groups, budget, malformed)
    for malformed in ([(2, 1)], [(4, 1)], [(2, 1), (4, 2), (5, 2)]):
        with pytest.raises(ValueError) as err:
            enlarge_lists(4, [], bags, tree, groups, budget, malformed)
        assert str(err.value) == "the last part must end at n and at the last group"


def test_band_color_bands_each_part_by_its_own_length():
    """Vertex 0 spans depths 0 to 3, so one part bands by length 4 and
    colors all four vertices alike; as parts {0, 1} and {2, 3}, the second
    bands by its own length 1 and vertices 2 and 3 part."""
    bags = [{0, 1, 2}, {0, 3}, {0}, {0}]
    depth = [0, 1, 2, 3]
    assert band_color(4, [], bags, depth, 1)[0] == [1, 1, 1, 1]
    assert band_color(4, [], bags, depth, 1, [2, 4])[0] == [1, 1, 1, 2]


def test_band_color_refuses_malformed_parts():
    """Parts must not decrease and must end at n, as in ``enlarge_lists``:
    otherwise the band lengths come from the wrong slices, or a vertex past
    the last part goes uncolored."""
    edges = [(0, 1), (1, 2), (2, 3)]
    bags, depth = [{0, 1}, {1, 2}, {2, 3}], [0, 1, 2]
    cases = {
        (3, 2, 4): "the parts' ends must not decrease",
        (2, 4, 6): "the last part must end at n",
        (2,): "the last part must end at n",
    }
    for parts, message in cases.items():
        with pytest.raises(ValueError) as err:
            band_color(4, edges, bags, depth, 1, list(parts))
        assert str(err.value) == message


def test_equal_ends_are_an_empty_part_that_is_accepted():
    """Equal ends make an empty part, before, between or after the others:
    ``band_color`` and ``enlarge_lists`` accept it, give what they give
    without it, and count it when they name a part."""
    bags, depth = [{0, 1, 2}, {0, 3}, {0}, {0}], [0, 1, 2, 3]
    for parts in ([0, 2, 4], [2, 2, 4], [2, 4, 4], [0, 0, 2, 2, 4, 4]):
        assert band_color(4, [], bags, depth, 1, parts)[0] == [1, 1, 1, 2]
    bags, tree = [{0, 1, 2, 3}, set()], [(0, 1)]
    groups = [
        EdgeGroup(frozenset({0, 1}), (0, 1)),
        EdgeGroup(frozenset({0, 1}), (2, 3)),
    ]
    budget = GroupBudget(1, 1, 1)
    expected = enlarge_lists(4, [], bags, tree, groups, budget, [(2, 1), (4, 2)])
    for parts in (
        [(0, 0), (2, 1), (4, 2)],
        [(2, 1), (2, 1), (4, 2)],
        [(2, 1), (4, 2), (4, 2)],
    ):
        assert enlarge_lists(4, [], bags, tree, groups, budget, parts) == expected
    bad = [groups[0], EdgeGroup(frozenset({0}), (1, 2, 3))]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(4, [], bags, tree, bad, budget, [(2, 1), (2, 1), (4, 2)])
    assert (str(err.value), err.value.part) == (
        "max_pairs_per_group: group 0 has 3 pairs",
        2,
    )


def _growing_in_two_parts():
    """A path of three nodes, and one group in each of two parts: part 0's
    pair (0, 1) grows node 2's bag, and part 1's pair (2, 3) grows node 0's.
    The input edge (0, 1) leaves part 1's pair the only new edge."""
    bags, tree = [{0, 1}, {0, 1, 2, 3}, {2, 3}], [(0, 1), (1, 2)]
    groups = [
        EdgeGroup(frozenset({1, 2}), (0, 1)),
        EdgeGroup(frozenset({0, 1}), (2, 3)),
    ]
    return 4, [(0, 1)], bags, tree, groups, GroupBudget(1, 1, 1), [(2, 1), (4, 2)]


def test_enlarge_bag_growth_check_names_the_lowest_part(monkeypatch):
    """The growth checks sit behind the budget checks, so only a lemma that
    states no growth reaches them. With no bag growth allowed, part 0's
    node 2 is named before part 1's lower node 0."""
    from clustercolor import twocolor

    monkeypatch.setattr(twocolor, "_enlarged", lambda *args: (0, 10**9))
    with pytest.raises(InternalInvariantError) as err:
        enlarge_lists(*_growing_in_two_parts())
    assert str(err.value) == "enlarged bag of node 2 grows by more than 2hk"
    assert err.value.part == 0


def test_enlarge_degree_growth_check_counts_only_new_edges(monkeypatch):
    """With no degree growth allowed, part 0's pair is already an edge and
    grows no degree, so the witness is part 1's vertex 2, named as that
    part's vertex 0."""
    from clustercolor import twocolor

    monkeypatch.setattr(twocolor, "_enlarged", lambda *args: (10**9, 0))
    with pytest.raises(InternalInvariantError) as err:
        enlarge_lists(*_growing_in_two_parts())
    assert str(err.value) == "enlarged degree of vertex 0 grows by more than d"
    assert err.value.part == 1


def test_enlarge_random_instances_keep_bounds():
    rng = random.Random(41)
    done = 0
    while done < 60:
        g, td = random_decomposition(rng)
        if g.n < 2:
            continue
        groups, budget = random_groups(rng, g, td)
        edges, bags, pairs = enlarge_lists(
            g.n, g.edges, td.bags, td.edges, groups, budget
        )
        # The same from a tree index built beforehand, searched from the
        # last node.
        index = _tree_index(td.node_count, td.edges, td.node_count - 1)
        assert enlarge_lists(
            g.n, g.edges, td.bags, td.edges, groups, budget, None, index
        ) == (edges, bags, pairs)
        g2, td2 = Graph(g.n, edges), TreeDecomposition(bags, td.edges)
        assert check_decomposition(g2.n, g2.edges, td2.bags, td2.edges).ok
        assert td2.width() <= td.width() + 2 * (
            budget.max_groups_per_node * budget.max_pairs_per_group
        )
        assert g2.max_degree() <= g.max_degree() + budget.max_pair_uses_per_vertex
        cliques = {pair for grp in groups for pair in combinations(grp.ends, 2)}
        assert g2.edges == set(g.edges) | cliques
        assert pairs == len(cliques)
        done += 1


def test_enlarge_accepts_a_group_exactly_when_some_cover_exists():
    """A group over a connected subtree is accepted exactly when some
    nonempty set of its nodes has bags that together hold every end,
    checked against every such set; some ends, drawn a pair at a time,
    reach outside the subtree's bags."""
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    while sum(verdicts.values()) < 300:
        g, td = random_decomposition(rng)
        if g.n < 2:
            continue
        subtree = random_subtree(rng, td)
        inside = sorted(set().union(*(td.bags[t] for t in subtree)))
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            pool = inside if len(inside) >= 2 and rng.random() < 0.8 else range(g.n)
            a, b = sorted(rng.sample(pool, 2))
            pairs.add((a, b))
        ends = tuple(sorted({v for pair in pairs for v in pair}))
        nodes = sorted(subtree)
        covered = any(
            set(ends) <= set().union(*(td.bags[t] for t in cover))
            for size in range(1, len(nodes) + 1)
            for cover in combinations(nodes, size)
        )
        group = EdgeGroup(subtree=subtree, ends=ends)
        k = len(ends)
        budget = GroupBudget(k * (k - 1) // 2, k - 1, 1)
        try:
            enlarge_lists(g.n, g.edges, td.bags, td.edges, [group], budget)
            accepted = True
        except GroupBudgetError as exc:
            assert exc.budget == "group-structure"
            assert exc.detail.endswith("is in no bag of its subtree")
            accepted = False
        assert accepted == covered
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 50, verdicts
