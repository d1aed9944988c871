"""Two-coloring with bounded monochromatic components, and controlled
addition of edge groups to a graph together with its decomposition.

The colorer works from a rooted tree-decomposition: each vertex is anchored
at the shallowest node whose bag contains it, anchor depths are cut into
bands as long as the deepest bag-interval any single vertex spans, and bands
alternate between the two colors. Adjacent vertices then land in the same or
in adjacent bands, so components stay inside one band on path-shaped
decompositions. The clustering bound is verified after the fact and the
operation fails loudly when it does not hold.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from operator import sub

from .errors import (
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
)
from .graph import Graph, TreeDecomposition, _tree_index, check_decomposition
from .verify import ClusterReport, edge_components

# Multiplier on (w+1)*delta in the guaranteed clustering bound: the slack
# applied on top of the band construction.
CLUSTER_FACTOR = 4


def cluster_bound(width: int, degree: int) -> int:
    """Guaranteed clustering bound for a width/degree pair."""
    return CLUSTER_FACTOR * (max(width, 0) + 1) * max(degree, 1)


def _max_degree(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Largest degree of the graph on 0..n-1 with these distinct edges."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree, default=0)


def band_color(
    n: int,
    edges: Collection[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    depth: Sequence[int],
    delta: int,
) -> tuple[list[int], ClusterReport]:
    """Band-color the graph on 0..n-1 with these distinct edges using colors
    {1, 2}, over a decomposition with these bags that the caller has
    validated; ``depth`` gives each node's depth to band by, and ``delta``
    is a bound on the graph's degree that the caller guarantees.

    Returns each vertex's color and the monochromatic components; the
    largest is checked against cluster_bound(width, delta) and a violation
    raises ClusteringBoundError instead of returning an unbounded coloring.
    """
    lo = [None] * n
    hi = [None] * n
    for t, bag in enumerate(bags):
        d = depth[t]
        for v in bag:
            if lo[v] is None or d < lo[v]:
                lo[v] = d
            if hi[v] is None or d > hi[v]:
                hi[v] = d
    band_len = max(map(sub, hi, lo), default=0) + 1
    coloring = [1 + (d // band_len) % 2 for d in lo]

    report = edge_components(n, edges, coloring)
    width = max(map(len, bags), default=0) - 1
    bound = cluster_bound(width, delta)
    if report.max_size > bound:
        raise ClusteringBoundError("two-color", report.largest(), bound)
    return coloring, report


def two_color_bounded_treewidth(
    g: Graph, td: TreeDecomposition
) -> tuple[dict[int, int], int]:
    """Color ``g`` with colors {1, 2} so monochromatic components are small.

    Requires a valid decomposition of ``g`` (an invalid one raises
    InvalidDecomposition); bands by the depths from ``td.root`` and checks
    the bound for the graph's maximum degree as ``band_color`` does.
    Returns (coloring, measured clustering).
    """
    checked = check_decomposition(g.n, g.edges, td.bags, td.edges, td.root)
    checked.require(InvalidDecomposition)
    colors, report = band_color(g.n, g.edges, td.bags, checked.depth, g.max_degree())
    return dict(enumerate(colors)), report.max_size


@dataclass(frozen=True)
class EdgeGroup:
    """A batch of vertex pairs to add, together with the tree region that
    absorbs their endpoints: ``subtree``, a connected set of decomposition
    nodes whose bags hold every pair endpoint."""

    subtree: frozenset[int]
    pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GroupBudget:
    """Per-call limits: k pairs per group, d pair uses per vertex, and h
    groups whose subtree may cover any single node. ``_enlarged`` states
    how far an enlargement under them may grow the input."""

    max_pairs_per_group: int
    max_pair_uses_per_vertex: int
    max_groups_per_node: int


def _enlarged(budget: GroupBudget, width: int, degree: int) -> tuple[int, int]:
    """The enlargement lemma's growth: adding groups under ``budget`` to a
    graph of this maximum degree, with a decomposition of this width, gives
    width at most w + 2*h*k and degree at most delta + d."""
    k, h = budget.max_pairs_per_group, budget.max_groups_per_node
    return width + 2 * h * k, degree + budget.max_pair_uses_per_vertex


def enlarge_lists(
    n: int,
    edges: Collection[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    tree_edges: Collection[tuple[int, int]],
    groups: Sequence[EdgeGroup],
    budget: GroupBudget,
) -> tuple[Collection[tuple[int, int]], Sequence[AbstractSet[int]]]:
    """Add the groups' pairs as edges and widen the decomposition to match,
    over plain lists: the graph on 0..n-1 by its distinct edges (u, v) with
    u < v, one bag per node, and the tree by its node pairs.

    A group's subtree must be a nonempty connected set of nodes whose bags
    hold each end of each of its pairs; it is taken as connected by the
    count that ``check_decomposition`` applies to a vertex's nodes, which
    is exact on a tree. Every group's endpoints are poured into each bag
    of its subtree, which preserves all decomposition axioms,
    and under the budget the width and degree grow at most as
    ``_enlarged`` states. Budget and group-structure violations raise
    GroupBudgetError naming the field. The output is validated and both
    bounds are re-checked on it; a failure raises InternalInvariantError.
    Returns the new edges and bags; when no group carries pairs, the
    input's own, validated as they stand.
    """
    nn = len(bags)
    tree_adj = _tree_index(nn, tree_edges)[1] if groups else []
    uses: dict[int, int] = {}
    covers: dict[int, int] = {}
    live = []
    for idx, group in enumerate(groups):
        if len(group.pairs) > budget.max_pairs_per_group:
            raise GroupBudgetError(
                "max_pairs_per_group",
                f"group {idx} has {len(group.pairs)} pairs",
            )
        if not group.pairs:
            continue
        subtree = group.subtree
        for t in subtree:
            if not 0 <= t < nn:
                raise GroupBudgetError(
                    "group-structure", f"group {idx} node {t} out of range"
                )
        # On a tree, k nodes are connected exactly when k - 1 tree edges
        # join two of them; the adjacency sees each such edge twice.
        joins = sum(u in subtree for t in subtree for u in tree_adj[t])
        if not subtree or joins < 2 * (len(subtree) - 1):
            raise GroupBudgetError(
                "group-structure", f"group {idx} subtree is not connected"
            )
        for u, v in group.pairs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GroupBudgetError(
                    "group-structure", f"group {idx} has invalid pair ({u}, {v})"
                )
            uses[u] = uses.get(u, 0) + 1
            uses[v] = uses.get(v, 0) + 1
        ends = {v for pair in group.pairs for v in pair}
        missing = ends.difference(*map(bags.__getitem__, subtree))
        if missing:
            u, v = min(p for p in group.pairs if not missing.isdisjoint(p))
            raise GroupBudgetError(
                "group-structure",
                f"group {idx} pair ({u}, {v}) has an end in no bag of its subtree",
            )
        for t in subtree:
            covers[t] = covers.get(t, 0) + 1
        live.append((group, ends))

    new_edges, new_bags = edges, bags
    if live:
        # Each per-item budget names its smallest violator.
        for field, count, what in (
            ("max_pair_uses_per_vertex", uses, "vertex {} used by {} pairs"),
            ("max_groups_per_node", covers, "node {} covered by {} group subtrees"),
        ):
            limit = getattr(budget, field)
            x = min((x for x, c in count.items() if c > limit), default=None)
            if x is not None:
                raise GroupBudgetError(field, what.format(x, count[x]))
        new_edges = set(edges)
        new_bags = list(bags)
        for grp, ends in live:
            new_edges.update((u, v) if u < v else (v, u) for u, v in grp.pairs)
            for t in grp.subtree:
                new_bags[t] = new_bags[t] | ends
        # The growth is additive, so it bounds the largest bag as the width.
        size, degree = _enlarged(budget, max(map(len, bags)), _max_degree(n, edges))
        if max(map(len, new_bags)) > size:
            raise InternalInvariantError("enlarged width exceeds w + 2hk")
        if _max_degree(n, new_edges) > degree:
            raise InternalInvariantError("enlarged degree exceeds delta + d")

    report = check_decomposition(n, new_edges, new_bags, tree_edges)
    if not report.ok:
        raise InternalInvariantError(
            f"enlarged decomposition invalid: {report.failures()[0].describe()}"
        )
    return new_edges, new_bags
