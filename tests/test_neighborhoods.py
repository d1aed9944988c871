import itertools
import random
from fractions import Fraction

import pytest

from clustercolor import BudgetExceeded, Graph, gen_kst
from clustercolor.neighborhoods import (
    falling_binomial,
    growth_bound,
    growth_bound_density,
    growth_bound_layered,
    has_kst_subgraph,
    n_at_least,
    n_below,
)

from helpers import random_kst_free_graph


def test_threshold_neighborhoods_on_a_path():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    x = {1, 3}
    assert n_at_least(g, x, 1) == frozenset({0, 2, 4})
    assert n_at_least(g, x, 2) == frozenset({2})
    assert n_below(g, x, 2) == frozenset({0, 4})
    assert n_at_least(g, x, 3) == frozenset()


def test_threshold_neighborhoods_exclude_x_itself():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert n_at_least(g, {0, 1}, 1) == frozenset({2})
    assert n_below(g, {0, 1}, 5) == frozenset({2})


def test_threshold_neighborhood_errors():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        n_at_least(g, {0}, 0)
    with pytest.raises(ValueError):
        n_below(g, {5}, 1)


def test_neighborhood_split_is_a_partition():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        x = frozenset(rng.sample(range(n), rng.randint(0, n)))
        s = rng.randint(1, 4)
        touched = frozenset(
            v
            for v in range(n)
            if v not in x and any(u in x for u in g.neighbors(v))
        )
        hi = n_at_least(g, x, s)
        lo = n_below(g, x, s)
        assert hi | lo == touched
        assert not hi & lo


def test_growth_bound_values():
    assert growth_bound(2, 3, 4) == 12
    assert growth_bound(1, 4, 5) == 15
    assert growth_bound(1, 1, 10) == 0
    assert growth_bound(3, 2, 2) == 0
    with pytest.raises(ValueError):
        growth_bound(0, 1, 1)


def test_growth_bound_layered_values():
    assert growth_bound_layered(1, 2, 1, 2) == Fraction(7)
    assert growth_bound_layered(2, 3, 1, 1) == Fraction(25, 2)
    assert growth_bound_layered(1, 2, 0, 9) == 9
    with pytest.raises(ValueError):
        growth_bound_layered(1, 1, -1, 0)


def test_falling_binomial():
    assert falling_binomial(5, 2) == 10
    assert falling_binomial(6, 0) == 1
    assert falling_binomial(Fraction(5, 2), 2) == Fraction(15, 8)
    assert falling_binomial(2, 3) == 0
    with pytest.raises(ValueError):
        falling_binomial(3, -1)


def test_growth_bound_density_values():
    assert growth_bound_density(2, 2, 2, 1) == 3
    assert growth_bound_density(1, 3, 4, 2) == 8
    assert growth_bound_density(1, 2, Fraction(1, 2), 4) == 5
    with pytest.raises(ValueError):
        growth_bound_density(1, 2, -1, 3)


def test_kst_search_finds_planted_bipartite():
    g = gen_kst(2, 3)
    found, witness = has_kst_subgraph(g, 2, 3)
    assert found
    left, right = witness
    for a in left:
        for b in right:
            assert g.has_edge(a, b)
    # the same graph has no K_{3,3}
    assert has_kst_subgraph(g, 3, 3) == (False, None)


def test_kst_search_on_cycles_and_stars():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert has_kst_subgraph(c4, 2, 2)[0]
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert has_kst_subgraph(star, 1, 3)[0]
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not has_kst_subgraph(path, 1, 3)[0]
    tree = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert not has_kst_subgraph(tree, 2, 2)[0]


def test_kst_search_budget():
    g = gen_kst(4, 4)
    with pytest.raises(BudgetExceeded):
        has_kst_subgraph(g, 4, 4, budget=3)


def test_expansion_bound_holds_on_kst_free_graphs():
    rng = random.Random(31)
    for _ in range(50):
        g = random_kst_free_graph(rng, 2, 2)
        for size in range(g.n + 1):
            for x in itertools.combinations(range(g.n), size):
                assert len(n_at_least(g, x, 2)) <= growth_bound(2, 2, size)
