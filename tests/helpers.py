"""Randomized instance builders shared across the test files.

Everything takes an explicit random.Random so failures reproduce from the
seeds pinned in the tests.
"""

from clustercolor import (
    EdgeGroup,
    Graph,
    GroupBudget,
    LayeredTreeDecomposition,
    Layering,
    StandardPair,
    TreeDecomposition,
    compatible_lists,
    has_kst_subgraph,
    progress,
)


def random_decomposition(rng, max_nodes=8, max_bag=4, edge_prob=0.5, grow_prob=0.6):
    """Random graph with a valid tree decomposition.

    Bags inherit a subset of their parent's bag plus fresh vertices, which
    keeps every vertex's node set connected; edges are sampled inside bags
    so coverage holds by construction.
    """
    n_nodes = rng.randint(1, max_nodes)
    parents = [0] * n_nodes
    bags = []
    next_vertex = 0
    for i in range(n_nodes):
        if i:
            parents[i] = rng.randrange(i)
            parent_bag = sorted(bags[parents[i]])
            keep = rng.randint(0, min(len(parent_bag), max_bag - 1))
            bag = set(rng.sample(parent_bag, keep))
        else:
            bag = set()
        while len(bag) < max_bag and rng.random() < grow_prob:
            bag.add(next_vertex)
            next_vertex += 1
        bags.append(bag)
    edges = set()
    for bag in bags:
        ordered = sorted(bag)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                if rng.random() < edge_prob:
                    edges.add((ordered[a], ordered[b]))
    g = Graph(next_vertex, sorted(edges))
    td = TreeDecomposition(
        [frozenset(b) for b in bags],
        [(parents[i], i) for i in range(1, n_nodes)],
    )
    return g, td


def random_subtree(rng, td, grow_prob=0.6):
    """Connected node set grown from a random start."""
    start = rng.randrange(td.node_count)
    nodes = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for u in td.node_neighbors(t):
            if u not in nodes and rng.random() < grow_prob:
                nodes.add(u)
                frontier.append(u)
    return frozenset(nodes)


def random_groups(rng, g, td, max_groups=3):
    """Edge groups with a budget measured from the groups themselves, so
    the budget always admits them."""
    groups = []
    for _ in range(rng.randint(1, max_groups)):
        subtree = random_subtree(rng, td)
        cover = frozenset(
            rng.sample(sorted(subtree), rng.randint(1, len(subtree)))
        )
        pool = sorted(set().union(*(td.bags[t] for t in cover)))
        pairs = set()
        if len(pool) >= 2:
            for _ in range(rng.randint(0, 4)):
                a, b = rng.sample(pool, 2)
                pairs.add((min(a, b), max(a, b)))
        groups.append(
            EdgeGroup(nodes=cover, subtree=subtree, pairs=frozenset(pairs))
        )
    live = [grp for grp in groups if grp.pairs]
    uses = {}
    for grp in live:
        for a, b in grp.pairs:
            uses[a] = uses.get(a, 0) + 1
            uses[b] = uses.get(b, 0) + 1
    cover_count = {}
    for grp in live:
        for t in grp.subtree:
            cover_count[t] = cover_count.get(t, 0) + 1
    budget = GroupBudget(
        max_pairs_per_group=max((len(grp.pairs) for grp in live), default=1),
        max_pair_uses_per_vertex=max(uses.values(), default=1),
        max_groups_per_node=max(cover_count.values(), default=1),
    )
    return groups, budget


def random_layered_graph(rng, max_n=14, max_layers=5, edge_prob=0.4):
    """Random graph whose edges respect a random layer assignment."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_layers)
    assignment = [rng.randint(1, m) for _ in range(n)]
    used = sorted(set(assignment))
    compact = {layer: idx + 1 for idx, layer in enumerate(used)}
    assignment = [compact[layer] for layer in assignment]
    m = len(used)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if abs(assignment[a] - assignment[b]) <= 1 and rng.random() < edge_prob:
                edges.append((a, b))
    layers = [
        tuple(v for v in range(n) if assignment[v] == i) for i in range(1, m + 1)
    ]
    return Graph(n, edges), Layering(layers)


def random_standard_pair(rng, s, steps=3):
    """Valid standard pair built by forcing random vertex sets from the
    full compatible lists."""
    g, ly = random_layered_graph(rng)
    pair = StandardPair(precolored=frozenset(), lists=compatible_lists(ly, s))
    for _ in range(steps):
        avoid = rng.randint(1, s + 2)
        candidates = [
            v
            for v in g.vertices()
            if pair.lists[v] - {avoid}
        ]
        if not candidates:
            continue
        force = frozenset(
            rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
        )
        pair = progress(g, pair, force, avoid, s)
    return g, ly, pair


def random_kst_free_graph(rng, s, t, max_n=7, edge_prob=0.35):
    """Rejection-sample a small graph with no K_{s,t} subgraph."""
    while True:
        n = rng.randint(1, max_n)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < edge_prob
        ]
        g = Graph(n, edges)
        found, _ = has_kst_subgraph(g, s, t)
        if not found:
            return g


def shared_core_parade(w, length, extra=0):
    """Path decomposition whose bags all share a w-vertex core.

    Bags are {core} + one private vertex each, so the width is exactly w
    and any two bags are incomparable. ``extra`` hangs decoy leaf nodes
    off the first parade node. Returns (decomposition, parade).
    """
    core = frozenset(range(length, length + w))
    bags = [frozenset({i}) | core for i in range(length)]
    edges = [(i, i + 1) for i in range(length - 1)]
    base = len(bags)
    for j in range(extra):
        bags.append(frozenset({length + w + j}) | core)
        edges.append((0, base + j))
    return TreeDecomposition(bags, edges), tuple(range(length))


def spine_path(n=40):
    """Path 0-1-...-(n-1) with the valid width-2 decomposition {0, i, i+1}
    along a path of nodes, all vertices in one layer. Vertex 0 spans every
    bag, which defeats the banded two-colorer. Returns (graph, layered
    decomposition)."""
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    bags = [frozenset({0, i, i + 1}) for i in range(1, n - 1)]
    td = TreeDecomposition(bags, [(t, t + 1) for t in range(len(bags) - 1)])
    return g, LayeredTreeDecomposition(td, Layering([tuple(range(n))]))


def without_vertex_zero(layer_view):
    """``threecolor._layer_view`` with local vertex 0 dropped from every bag
    of each view: a view that no longer covers its layer."""

    def corrupt(*args):
        edges, bags, *rest = layer_view(*args)
        return (edges, [bag - {0} for bag in bags], *rest)

    return corrupt
