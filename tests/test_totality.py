"""Totality on valid inputs larger than the clustering bound: every run ends
in a coloring whose measured clustering is the one reported, within the
bound, or in a stage's ``ClusteringBoundError`` naming a witness of the
measured size. Nothing else may be raised, and relabeling the vertices and
the nodes must not change the outcome."""

import random

from clustercolor import (
    ClusteringBoundError,
    Graph,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    edge_components,
    three_color_lists,
)
from corpus import halin, spanning_rect, spine_cycle
from helpers import lists_of, nodes_permuted, permuted, spine_path


def sliding_window(seed):
    """A seeded graph on n = 60..150 vertices, one layer: the path through
    them plus each pair at most w = 1..3 apart with probability 1/2, over
    the path of bags {i, ..., i + w} with vertex 0 added to every bag."""
    rng = random.Random(seed)
    n, w = rng.randint(60, 150), rng.randint(1, 3)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, min(u + w + 1, n))
        if v == u + 1 or rng.random() < 0.5
    ]
    bags = [frozenset({0, *range(i, i + w + 1)}) for i in range(n - w)]
    chain = [(t, t + 1) for t in range(len(bags) - 1)]
    return n, edges, bags, chain, [tuple(range(n))], 0


def instances():
    for n in (30, 45, 60, 100):
        yield f"spine-path-{n}", lists_of(*spine_path(n))
        yield f"spine-cycle-{n}", spine_cycle(n)
    for depth in range(5, 9):
        yield f"halin-{depth}", halin(depth)
    for cols in (40, 80):
        yield f"rect-6x{cols}-rows-spanning", spanning_rect(cols)
    for seed in range(20):
        yield f"sliding-window-{seed}", sliding_window(seed)


def relabeled(args, seed):
    """The same instance with its vertex ids permuted and its nodes
    renumbered, the root following its node."""
    n, edges, bags, tree_edges, rows, root = args
    td = TreeDecomposition(bags, tree_edges, root)
    ltd = LayeredTreeDecomposition(td, Layering(rows))
    return lists_of(*nodes_permuted(*permuted(Graph(n, edges), ltd, seed), seed))


def outcome(args):
    """The clustering of a checked coloring, or the stage, measured size and
    bound of a checked refusal."""
    n, edges = args[:2]
    try:
        result = three_color_lists(*args)
    except ClusteringBoundError as exc:
        assert exc.stage.startswith("stage-")
        assert len(exc.witness) == exc.measured > exc.bound
        return "refused", exc.stage, exc.measured, exc.bound
    measured = edge_components(n, edges, result.coloring).max_size
    assert measured == result.clustering <= result.constants.g
    return "colored", result.clustering


def test_every_valid_instance_is_colored_or_refused_by_a_stage():
    for name, args in instances():
        expected = outcome(args)
        for seed in (1, 2, 3):
            assert outcome(relabeled(args, seed)) == expected, (name, seed)
