"""Two-coloring with bounded monochromatic components, and controlled
addition of edge groups to a graph together with its decomposition.

The colorer works from a rooted tree-decomposition: each vertex is anchored
at the shallowest node whose bag contains it, anchor depths are cut into
bands as long as the deepest bag-interval any single vertex spans, and bands
alternate between the two colors. Adjacent vertices then land in the same or
in adjacent bands, so components stay inside one band on path-shaped
decompositions. A graph that is a disjoint union of parts, no edge joining
two, is banded and bounded part by part. The clustering bound is verified
after the fact and the operation fails loudly when it does not hold.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Collection, Sequence, Set as AbstractSet
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, pairwise, repeat
from operator import gt, sub

from .errors import (
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
)
from .graph import (
    AxiomCheck,
    Graph,
    TreeDecomposition,
    TreeIndex,
    _tree_index,
    check_decomposition,
)
from .verify import ClusterReport, edge_components

# Multiplier on (w+1)*delta in the guaranteed clustering bound: the slack
# applied on top of the band construction.
CLUSTER_FACTOR = 4


def cluster_bound(width: int, degree: int) -> int:
    """Guaranteed clustering bound for a width/degree pair."""
    return CLUSTER_FACTOR * (max(width, 0) + 1) * max(degree, 1)


def band_color(
    n: int,
    edges: Collection[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    depth: Sequence[int],
    delta: int,
    parts: Sequence[int] | None = None,
) -> tuple[list[int], ClusterReport]:
    """Band-color the graph on 0..n-1 with these distinct edges using colors
    {1, 2}, over a decomposition with these bags that the caller has
    validated; ``depth`` gives each node's depth to band by, and ``delta``
    is a bound on the graph's degree that the caller guarantees.

    The vertices fall into contiguous parts, the ith ending (exclusive) at
    ``parts[i]``; one part of all n vertices when none is given. No edge
    may join two parts, so each part is banded and bounded on its own: its
    band length comes from its own vertices, and its components are checked
    against cluster_bound(width, delta) for the width of its own share of
    the bags. Returns each vertex's color and the monochromatic components;
    a violation raises ClusteringBoundError for the lowest failing part,
    instead of returning an unbounded coloring. Parts whose ends decrease,
    or whose last end is not n, raise ValueError.
    """
    ends = parts or (n,)
    if ends[-1] != n:
        raise ValueError("the last part must end at n")
    if any(map(gt, (0, *ends), ends)):
        raise ValueError("the parts' ends must not decrease")
    lo = [None] * n
    hi = [None] * n
    for t, bag in enumerate(bags):
        d = depth[t]
        for v in bag:
            if lo[v] is None or d < lo[v]:
                lo[v] = d
            if hi[v] is None or d > hi[v]:
                hi[v] = d
    spans = list(map(sub, hi, lo))
    starts = [0, *ends[:-1]]
    # Each part's band length, once for each of its vertices.
    band_lens = chain.from_iterable(
        repeat(max(spans[a:b], default=0) + 1, b - a) for a, b in zip(starts, ends)
    )
    coloring = [1 + (d // b) % 2 for d, b in zip(lo, band_lens)]

    report = edge_components(n, edges, coloring)
    # No part's bound is below cluster_bound(0, delta), so the widths are
    # needed only when some component is larger.
    if report.max_size > cluster_bound(0, delta):
        part = partial(bisect_right, ends)
        widths = [-1] * len(ends)
        for bag in bags:
            for p, size in Counter(map(part, bag)).items():
                widths[p] = max(widths[p], size - 1)
        bounds = [cluster_bound(width, delta) for width in widths]
        located = [(part(comp[0]), comp) for _, comp in report.components]
        failing = [(p, comp) for p, comp in located if len(comp) > bounds[p]]
        if failing:
            # Components come by smallest vertex, so the lowest part first.
            low = failing[0][0]
            size = max(len(comp) for p, comp in failing if p == low)
            witness = next(c for p, c in failing if p == low and len(c) == size)
            raise ClusteringBoundError("two-color", witness, bounds[low], low)
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
    """A clique to add, every pair of the strictly ascending vertices
    ``ends``, together with the tree region that absorbs them: ``subtree``,
    a connected set of decomposition nodes some bag of which holds each
    end; no one bag need hold them all."""

    subtree: frozenset[int]
    ends: tuple[int, ...]


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
    parts: Sequence[tuple[int, int]] | None = None,
    index: TreeIndex | None = None,
) -> tuple[Collection[tuple[int, int]], Sequence[AbstractSet[int]], int]:
    """Add each group's clique as edges and widen the decomposition to
    match, over plain lists: the graph on 0..n-1 by its distinct edges
    (u, v) with u < v, one bag per node, and the tree by its node pairs. A
    caller that has built ``_tree_index(len(bags), tree_edges, root)``
    passes it as ``index``, and the group count and the output check read
    the tree and its search through it instead of building them again.

    The vertices and the groups fall into parts, the ith holding the
    vertices and the groups before ``parts[i] = (vertex end, group end)``
    and from the previous part's ends on, neither end decreasing; one part
    of everything when none is given. A group of k ends, strictly ascending
    in its own part, adds k(k - 1)/2 pairs and k - 1 uses of each end. The
    budget holds per part: a node may be covered by h groups of each part.
    Errors name a part's vertices and groups by their positions within it,
    and carry the part's index as ``part``.

    A group of two or more ends needs a nonempty connected subtree, some
    bag of which holds each end: the ends are checked against the union of
    the subtree's bags, not against any one bag. The subtree is taken as
    connected by the count that ``check_decomposition`` applies to a
    vertex's nodes, which is exact on a tree. Every group's ends are
    poured into each bag of its subtree, which preserves all decomposition
    axioms, and under the budget each node's bag grows by at most 2hk
    vertices of each part and each vertex's degree by at most d, the
    lemma's growth that ``_enlarged`` states. Budget and group-structure
    violations raise GroupBudgetError naming the field. The output is
    validated and both growths are re-checked on it; a failure raises
    InternalInvariantError, for the lowest part that fails when the
    failure names a vertex. Returns the edges, the input's followed by the
    group pairs that are not among them, the new bags, and the number of
    distinct group pairs, those already edges included; when no group has
    two ends, the input's own, validated as they stand, and 0.
    """
    parts = parts or ((n, len(groups)),)
    if tuple(parts[-1]) != (n, len(groups)):
        raise ValueError("the last part must end at n and at the last group")
    if any(any(map(gt, (0, *column), column)) for column in zip(*parts)):
        raise ValueError("the parts' vertex and group ends must not decrease")
    ends = [end for end, _ in parts]
    nn = len(bags)
    # The output check reads the tree through this index too.
    index = index or _tree_index(nn, tree_edges)
    tree_adj = index.adj
    live = []
    for p, ((lo, first), (hi, last)) in enumerate(pairwise(((0, 0), *parts))):
        if first == last:
            continue
        # Pair uses by position in the part, and group subtrees by node.
        uses: dict[int, int] = {}
        covers: dict[int, int] = {}
        for idx in range(last - first):
            group = groups[first + idx]
            k = len(group.ends)
            pairs = k * (k - 1) // 2
            if pairs > budget.max_pairs_per_group:
                raise GroupBudgetError(
                    "max_pairs_per_group", f"group {idx} has {pairs} pairs", p
                )
            if not pairs:
                continue
            subtree = group.subtree
            for t in subtree:
                if not 0 <= t < nn:
                    raise GroupBudgetError(
                        "group-structure", f"group {idx} node {t} out of range", p
                    )
                covers[t] = covers.get(t, 0) + 1
            # On a tree, k nodes are connected exactly when k - 1 tree edges
            # join two of them; the adjacency sees each such edge twice.
            joins = sum(u in subtree for t in subtree for u in tree_adj[t])
            if not subtree or joins < 2 * (len(subtree) - 1):
                raise GroupBudgetError(
                    "group-structure", f"group {idx} subtree is not connected", p
                )
            local = [v - lo for v in group.ends]
            if not all(a < b for a, b in pairwise((-1, *local, hi - lo))):
                detail = f"group {idx} has invalid ends {tuple(local)}"
                raise GroupBudgetError("group-structure", detail, p)
            for v in local:
                uses[v] = uses.get(v, 0) + k - 1
            missing = set(group.ends).difference(*map(bags.__getitem__, subtree))
            if missing:
                raise GroupBudgetError(
                    "group-structure",
                    f"group {idx} end {min(missing) - lo} is in no bag of its subtree",
                    p,
                )
            live.append(group)
        # Each per-item budget names its smallest violator; a part whose
        # groups add no pairs uses none.
        if uses:
            for field, count, what in (
                ("max_pair_uses_per_vertex", uses, "vertex {} used by {} pairs"),
                ("max_groups_per_node", covers, "node {} covered by {} group subtrees"),
            ):
                limit = getattr(budget, field)
                x = min((x for x, c in count.items() if c > limit), default=None)
                if x is not None:
                    raise GroupBudgetError(field, what.format(x, count[x]), p)

    new_edges, new_bags, pairs = edges, bags, 0
    if live:
        # The pairs that are new edges; the degree growth is theirs alone.
        added = set(chain.from_iterable(combinations(grp.ends, 2) for grp in live))
        pairs = len(added)
        added.difference_update(edges)
        new_edges = [*edges, *added]
        poured: dict[int, list[tuple[int, ...]]] = {}
        for grp in live:
            for t in grp.subtree:
                poured.setdefault(t, []).append(grp.ends)
        # Pour into each node once, since a bag may hold every part.
        new_bags = list(bags)
        grow, spread = _enlarged(budget, 0, 0)
        grown = []
        for t, cliques in poured.items():
            bag = new_bags[t] = set().union(bags[t], *cliques)
            # A bag that grows by at most 2hk in all grows so in each part.
            if len(bag) - len(bags[t]) > grow:
                fresh = bag.difference(bags[t])
                sizes = Counter(_locate(ends, v)[0] for v in fresh)
                grown += [(p, t) for p, size in sizes.items() if size > grow]
        if grown:
            p, t = min(grown)
            raise InternalInvariantError(
                f"enlarged bag of node {t} grows by more than 2hk", p
            )
        growth = Counter(chain.from_iterable(added))
        over = [v for v, c in growth.items() if c > spread]
        if over:
            p, v = _locate(ends, min(over))
            raise InternalInvariantError(
                f"enlarged degree of vertex {v} grows by more than d", p
            )
        # Free the pours and the new pairs, which the output check does not read.
        del poured, added, growth

    report = check_decomposition(n, new_edges, new_bags, tree_edges, 0, index)
    if not report.ok:
        raise _view_fault(report.failures(), ends)
    return new_edges, new_bags, pairs


def _locate(ends: Sequence[int], v: int) -> tuple[int, int]:
    """The part of vertex v, for parts that end (exclusive) at ``ends``, and
    v's position in it."""
    p = bisect_right(ends, v)
    return p, v - (ends[p - 1] if p else 0)


def _view_fault(
    failures: Sequence[AxiomCheck], ends: Sequence[int]
) -> InternalInvariantError:
    """The error for a failed output check: the first failure of the lowest
    part that a failure's witness names, with the witness in that part's
    ids; when no witness names a part (the tree and bag-contents axioms),
    the first failure, with no part."""
    located = []
    for check in failures:
        w = check.witness
        if check.axiom in ("vertex-coverage", "connectivity"):
            p, v = _locate(ends, w)
            check = check._replace(witness=v)
        elif check.axiom == "edge-coverage":
            p, u = _locate(ends, w[0])
            check = check._replace(witness=(u, u + w[1] - w[0]))
        else:
            p = None
        located.append((p, check))
    named = [pc for pc in located if pc[0] is not None]
    p, check = min(named, key=lambda pc: pc[0]) if named else located[0]
    return InternalInvariantError(
        f"enlarged decomposition invalid: {check.describe()}", p
    )
