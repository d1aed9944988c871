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

from collections import deque
from collections.abc import Collection, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from operator import sub

from .errors import (
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
)
from .graph import (
    Graph,
    TreeDecomposition,
    check_decomposition,
    validate_tree_decomposition,
)
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
    validated; ``depth`` gives each node's depth to band by.

    Returns each vertex's color and the monochromatic components; the
    largest is checked against cluster_bound(width, delta) and a violation
    raises ClusteringBoundError instead of returning an unbounded coloring.
    """
    degree = _max_degree(n, edges)
    if degree > delta:
        raise ValueError(f"graph max degree {degree} exceeds declared {delta}")
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
        raise ClusteringBoundError("two-color", report.max_size, bound)
    return coloring, report


def two_color_bounded_treewidth(
    g: Graph, td: TreeDecomposition, delta: int
) -> tuple[dict[int, int], int]:
    """Color ``g`` with colors {1, 2} so monochromatic components are small.

    Requires a valid decomposition of ``g`` (an invalid one raises
    InvalidDecomposition) and max degree at most ``delta``; bands by the
    depths from ``td.root`` and checks the bound as ``band_color`` does.
    Returns (coloring, measured clustering).
    """
    checked = validate_tree_decomposition(g, td)
    checked.require(InvalidDecomposition)
    colors, report = band_color(g.n, g.edges, td.bags, checked.depth, delta)
    return dict(enumerate(colors)), report.max_size


@dataclass(frozen=True)
class EdgeGroup:
    """A batch of vertex pairs to add, together with the tree region that
    absorbs their endpoints.

    ``nodes`` are the cover nodes whose bags contain the pair endpoints;
    they must lie inside ``subtree``, a connected set of decomposition nodes.
    """

    nodes: frozenset[int]
    subtree: frozenset[int]
    pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GroupBudget:
    """Per-call limits: pairs per group, pair uses per vertex, and groups
    whose subtree may cover any single node."""

    max_pairs_per_group: int
    max_pair_uses_per_vertex: int
    max_groups_per_node: int


def _connected_in_tree(tree_adj: list[list[int]], nodes: frozenset[int]) -> bool:
    if not nodes:
        return False
    start = min(nodes)
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for u in tree_adj[t]:
            if u in nodes and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(nodes)


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

    Every group's endpoints are poured into each bag of its subtree, which
    preserves all decomposition axioms. Under the budget (k pairs per group,
    d pair uses per vertex, h group subtrees per node) the width grows by at
    most 2*h*k and the max degree by at most d. Budget violations raise
    GroupBudgetError naming the field. The output is validated and both
    bounds are re-checked on it; a failure raises InternalInvariantError.
    Returns the new edges and bags; when no group carries pairs, the
    input's own, validated as they stand.
    """
    nn = len(bags)
    tree_adj: list[list[int]] = []
    if groups:
        tree_adj = [[] for _ in range(nn)]
        for a, b in tree_edges:
            tree_adj[a].append(b)
            tree_adj[b].append(a)
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
        if not group.nodes or not group.nodes <= group.subtree:
            raise GroupBudgetError(
                "group-structure", f"group {idx} cover nodes must lie in its subtree"
            )
        for t in group.subtree:
            if not 0 <= t < nn:
                raise GroupBudgetError(
                    "group-structure", f"group {idx} node {t} out of range"
                )
        if not _connected_in_tree(tree_adj, group.subtree):
            raise GroupBudgetError(
                "group-structure", f"group {idx} subtree is not connected"
            )
        allowed = set()
        for t in group.nodes:
            allowed |= bags[t]
        for u, v in group.pairs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GroupBudgetError(
                    "group-structure", f"group {idx} has invalid pair ({u}, {v})"
                )
            if u not in allowed or v not in allowed:
                raise GroupBudgetError(
                    "group-structure",
                    f"group {idx} pair ({u}, {v}) outside its cover bags",
                )
            uses[u] = uses.get(u, 0) + 1
            uses[v] = uses.get(v, 0) + 1
        for t in group.subtree:
            covers[t] = covers.get(t, 0) + 1
        live.append(group)

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
        for grp in live:
            new_edges.update((u, v) if u < v else (v, u) for u, v in grp.pairs)
            endpoints = {v for pair in grp.pairs for v in pair}
            for t in grp.subtree:
                new_bags[t] = new_bags[t] | endpoints
        h = budget.max_groups_per_node
        k = budget.max_pairs_per_group
        if max(map(len, new_bags)) > max(map(len, bags)) + 2 * h * k:
            raise InternalInvariantError("enlarged width exceeds w + 2hk")
        d = budget.max_pair_uses_per_vertex
        if _max_degree(n, new_edges) > _max_degree(n, edges) + d:
            raise InternalInvariantError("enlarged degree exceeds delta + d")

    report = check_decomposition(n, new_edges, new_bags, tree_edges)
    if not report.ok:
        raise InternalInvariantError(
            f"enlarged decomposition invalid: {report.failures()[0].describe()}"
        )
    return new_edges, new_bags


def enlarge_decomposition(
    g: Graph,
    td: TreeDecomposition,
    groups: Iterable[EdgeGroup],
    budget: GroupBudget,
) -> tuple[Graph, TreeDecomposition]:
    """``enlarge_lists`` of ``g`` and ``td``, as a new graph and
    decomposition; when no group carries pairs, ``g`` and ``td`` themselves.
    """
    groups = list(groups)
    edges, bags = enlarge_lists(g.n, g.edges, td.bags, td.edges, groups, budget)
    if edges is g.edges:
        return g, td
    return Graph(g.n, edges), TreeDecomposition(bags, td.edges, td.root)
