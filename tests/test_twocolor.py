import random

import pytest

from clustercolor import (
    EdgeGroup,
    Graph,
    GroupBudget,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
    TreeDecomposition,
    cluster_bound,
    enlarge_decomposition,
    enlarge_lists,
    gen_grid,
    gen_path,
    gen_rect_grid,
    monochromatic_components,
    two_color_bounded_treewidth,
    validate_tree_decomposition,
)

from helpers import random_decomposition, random_groups


def test_cluster_bound_values():
    assert cluster_bound(1, 2) == 16
    assert cluster_bound(3, 4) == 64
    assert cluster_bound(0, 0) == 4
    assert cluster_bound(-1, 5) == 20


def test_two_color_path():
    g, ltd, delta = gen_path(100)
    coloring, measured = two_color_bounded_treewidth(g, ltd.td, delta)
    assert set(coloring) == set(range(100))
    assert set(coloring.values()) <= {1, 2}
    assert measured <= cluster_bound(ltd.td.width(), delta)
    assert measured == monochromatic_components(g, coloring).max_size


def test_two_color_is_deterministic():
    g, ltd, delta = gen_path(40)
    first = two_color_bounded_treewidth(g, ltd.td, delta)
    second = two_color_bounded_treewidth(g, ltd.td, delta)
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
    g, ltd, delta = gen_rect_grid(3, 20)
    td = TreeDecomposition(ltd.td.bags, ltd.td.edges, ltd.td.node_count // 2)
    two_color_bounded_treewidth(g, td, delta)
    assert calls[0] == 1


def test_two_color_three_row_grids_plateau():
    results = {}
    for cols in (50, 200):
        g, ltd, delta = gen_rect_grid(3, cols)
        coloring, measured = two_color_bounded_treewidth(g, ltd.td, delta)
        assert set(coloring.values()) <= {1, 2}
        assert measured <= cluster_bound(ltd.td.width(), delta)
        results[cols] = measured
    assert results[50] == results[200]


def test_two_color_single_vertex_and_empty():
    g, ltd, _ = gen_path(1)
    coloring, measured = two_color_bounded_treewidth(g, ltd.td, 0)
    assert coloring == {0: 1} and measured == 1
    empty = Graph(0, [])
    td = TreeDecomposition([frozenset()])
    assert two_color_bounded_treewidth(empty, td, 0) == ({}, 0)


def test_two_color_rejects_degree_and_bad_decomposition():
    g, ltd, delta = gen_grid(4)
    with pytest.raises(ValueError):
        two_color_bounded_treewidth(g, ltd.td, delta - 1)
    broken = TreeDecomposition([frozenset({0, 1})])
    with pytest.raises(InvalidDecomposition):
        two_color_bounded_treewidth(g, broken, delta)


def _two_bag_instance():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    td = TreeDecomposition(
        [frozenset({0, 1, 2}), frozenset({2, 3, 4})], [(0, 1)]
    )
    return g, td


def test_enlarge_adds_edges_and_bounds_width():
    g, td = _two_bag_instance()
    group = EdgeGroup(
        nodes=frozenset({0, 1}),
        subtree=frozenset({0, 1}),
        pairs=frozenset({(0, 3), (1, 3), (0, 4)}),
    )
    budget = GroupBudget(3, 3, 1)
    g2, td2 = enlarge_decomposition(g, td, [group], budget)
    assert g2.has_edge(0, 3) and g2.has_edge(1, 3) and g2.has_edge(0, 4)
    assert validate_tree_decomposition(g2, td2).ok
    assert td2.width() <= td.width() + 2 * 1 * 3 == 8
    assert g2.max_degree() <= g.max_degree() + 3
    assert not g.has_edge(0, 3)


def test_enlarge_without_live_groups_is_identity():
    g, td = _two_bag_instance()
    idle = EdgeGroup(
        nodes=frozenset(), subtree=frozenset(), pairs=frozenset()
    )
    g2, td2 = enlarge_decomposition(g, td, [idle], GroupBudget(1, 1, 1))
    assert g2 is g and td2 is td
    g3, td3 = enlarge_decomposition(g, td, [], GroupBudget(1, 1, 1))
    assert g3 is g and td3 is td


def test_enlarge_validates_an_input_with_nothing_to_add():
    """With no pairs to add, the input comes back as the same objects, but
    only after it is validated: an invalid one is an internal fault that
    names the failed axiom and its witness."""
    edges, bags, tree = [(0, 1)], [{0, 1}, {1}], [(0, 1)]
    idle = EdgeGroup(nodes=frozenset(), subtree=frozenset(), pairs=frozenset())
    none = GroupBudget(0, 0, 0)
    for groups in ([], [idle]):
        out_edges, out_bags = enlarge_lists(2, edges, bags, tree, groups, none)
        assert out_edges is edges and out_bags is bags
        with pytest.raises(InternalInvariantError) as err:
            enlarge_lists(2, edges, [{0}, {1}], tree, groups, none)
        assert str(err.value) == (
            "enlarged decomposition invalid: edge-coverage axiom fails at edge (0, 1)"
        )
    g, td = _two_bag_instance()
    broken = TreeDecomposition(td.bags, ())
    with pytest.raises(InternalInvariantError, match="tree axiom fails$"):
        enlarge_decomposition(g, broken, [], GroupBudget(1, 1, 1))


def test_enlarge_budget_errors_name_the_smallest_violator():
    """Two vertices over their pair uses and two nodes over their group
    count, each first met at the larger id: the smaller one is named."""
    bags = [set(range(6))] * 3
    tree = [(0, 1), (1, 2)]

    def group(node, *pairs):
        nodes = frozenset({node})
        return EdgeGroup(nodes=nodes, subtree=nodes, pairs=frozenset(pairs))

    uses = [group(0, (4, 5), (3, 4)), group(0, (1, 2), (0, 2))]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(6, [], bags, tree, uses, GroupBudget(9, 1, 9))
    assert str(err.value) == "max_pair_uses_per_vertex: vertex 2 used by 2 pairs"
    covers = [group(2, (0, 1)), group(2, (2, 3)), group(1, (4, 5)), group(1, (0, 5))]
    with pytest.raises(GroupBudgetError) as err:
        enlarge_lists(6, [], bags, tree, covers, GroupBudget(9, 9, 1))
    assert str(err.value) == "max_groups_per_node: node 1 covered by 2 group subtrees"


def test_enlarge_budget_violations():
    g, td = _two_bag_instance()
    group = EdgeGroup(
        nodes=frozenset({0, 1}),
        subtree=frozenset({0, 1}),
        pairs=frozenset({(0, 3), (1, 3), (0, 4)}),
    )
    with pytest.raises(GroupBudgetError) as err:
        enlarge_decomposition(g, td, [group], GroupBudget(2, 9, 9))
    assert err.value.budget == "max_pairs_per_group"
    with pytest.raises(GroupBudgetError) as err:
        enlarge_decomposition(g, td, [group], GroupBudget(9, 1, 9))
    assert err.value.budget == "max_pair_uses_per_vertex"
    with pytest.raises(GroupBudgetError) as err:
        enlarge_decomposition(g, td, [group, group], GroupBudget(9, 9, 1))
    assert err.value.budget == "max_groups_per_node"


def test_enlarge_rejects_malformed_groups():
    g, td = _two_bag_instance()
    budget = GroupBudget(9, 9, 9)
    outside = EdgeGroup(
        nodes=frozenset({0}), subtree=frozenset({1}), pairs=frozenset({(2, 3)})
    )
    with pytest.raises(GroupBudgetError) as err:
        enlarge_decomposition(g, td, [outside], budget)
    assert err.value.budget == "group-structure"

    split = EdgeGroup(
        nodes=frozenset({0}), subtree=frozenset({0, 3}), pairs=frozenset({(0, 1)})
    )
    with pytest.raises(GroupBudgetError):
        enlarge_decomposition(g, td, [split], budget)

    far_pair = EdgeGroup(
        nodes=frozenset({0}), subtree=frozenset({0}), pairs=frozenset({(3, 4)})
    )
    with pytest.raises(GroupBudgetError):
        enlarge_decomposition(g, td, [far_pair], budget)

    loop = EdgeGroup(
        nodes=frozenset({0}), subtree=frozenset({0}), pairs=frozenset({(1, 1)})
    )
    with pytest.raises(GroupBudgetError):
        enlarge_decomposition(g, td, [loop], budget)


def test_enlarge_random_instances_keep_bounds():
    rng = random.Random(41)
    done = 0
    while done < 60:
        g, td = random_decomposition(rng)
        if g.n < 2:
            continue
        groups, budget = random_groups(rng, g, td)
        g2, td2 = enlarge_decomposition(g, td, groups, budget)
        assert validate_tree_decomposition(g2, td2).ok
        assert td2.width() <= td.width() + 2 * (
            budget.max_groups_per_node * budget.max_pairs_per_group
        )
        assert g2.max_degree() <= g.max_degree() + budget.max_pair_uses_per_vertex
        for grp in groups:
            for u, v in grp.pairs:
                assert g2.has_edge(u, v)
        done += 1
