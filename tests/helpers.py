"""Instance builders and perturbations shared across the test files.

Everything random takes an explicit random.Random or seed, so failures
reproduce from the seeds pinned in the tests.
"""

import random

from clustercolor import (
    EdgeGroup,
    Graph,
    GroupBudget,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    bfs_layering,
    gen_path,
)


def random_decomposition(
    rng, max_nodes=8, max_bag=4, edge_prob=0.5, grow_prob=0.6, shape="tree"
):
    """Random graph with a valid tree decomposition.

    Bags inherit a subset of their parent's bag plus fresh vertices, which
    keeps every vertex's node set connected; edges are sampled inside bags
    so coverage holds by construction. The tree is random, or a path or a
    star from node 0 when ``shape`` is "path" or "star".
    """
    n_nodes = rng.randint(1, max_nodes)
    parents = [0] * n_nodes
    bags = []
    next_vertex = 0
    for i in range(n_nodes):
        if i:
            if shape == "path":
                parents[i] = i - 1
            elif shape == "star":
                parents[i] = 0
            else:
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


def connected(adj, nodes):
    """Whether ``nodes`` is nonempty and connected by its members' links in
    the list adjacency ``adj``, by breadth-first search: the reference for
    the count that decides a group subtree in ``enlarge_lists``."""
    if not nodes:
        return False
    start = min(nodes)
    seen = {start}
    queue = [start]
    for t in queue:
        for u in adj[t]:
            if u in nodes and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(nodes)


def tree_neighbors(td):
    """Each node's neighbors in ``td``'s tree, in ascending order."""
    adj = [[] for _ in range(td.node_count)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(nbrs) for nbrs in adj]


def random_subtree(rng, td, grow_prob=0.6):
    """Connected node set grown from a random start."""
    adj = tree_neighbors(td)
    start = rng.randrange(td.node_count)
    nodes = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for u in adj[t]:
            if u not in nodes and rng.random() < grow_prob:
                nodes.add(u)
                frontier.append(u)
    return frozenset(nodes)


def random_groups(rng, g, td, max_groups=3):
    """Edge groups, each a clique of up to four ends, with a budget measured
    from the groups themselves, so the budget always admits them."""
    groups = []
    for _ in range(rng.randint(1, max_groups)):
        subtree = random_subtree(rng, td)
        # Ends are drawn from the bags of a random part of the subtree.
        cover = frozenset(
            rng.sample(sorted(subtree), rng.randint(1, len(subtree)))
        )
        pool = sorted(set().union(*(td.bags[t] for t in cover)))
        ends = sorted(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
        groups.append(EdgeGroup(subtree=subtree, ends=tuple(ends)))
    live = [grp for grp in groups if len(grp.ends) >= 2]
    uses = {}
    cover_count = {}
    for grp in live:
        for v in grp.ends:
            uses[v] = uses.get(v, 0) + len(grp.ends) - 1
        for t in grp.subtree:
            cover_count[t] = cover_count.get(t, 0) + 1
    budget = GroupBudget(
        max_pairs_per_group=max(
            (len(grp.ends) * (len(grp.ends) - 1) // 2 for grp in live), default=1
        ),
        max_pair_uses_per_vertex=max(uses.values(), default=1),
        max_groups_per_node=max(cover_count.values(), default=1),
    )
    return groups, budget


def lists_of(g, ltd):
    """The six arguments of ``three_color_lists`` for a graph and its layered
    decomposition: the vertex count, the edges, the bags, the tree edges,
    the layers and the root."""
    td = ltd.td
    return g.n, g.edges, td.bags, td.edges, ltd.layering.layers, td.root


def spine_path(n=40):
    """Path 0-1-...-(n-1) with the valid width-2 decomposition {0, i, i+1}
    along a path of nodes, all vertices in one layer. Vertex 0 spans every
    bag, which defeats the banded two-colorer. Returns (graph, layered
    decomposition)."""
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    bags = [frozenset({0, i, i + 1}) for i in range(1, n - 1)]
    td = TreeDecomposition(bags, [(t, t + 1) for t in range(len(bags) - 1)])
    return g, LayeredTreeDecomposition(td, Layering([tuple(range(n))]))


def without_first_vertex(class_view, part=0):
    """``threecolor._class_view`` with the first vertex of the given part
    (layer) dropped from every bag of each class view that has that part: a
    view that no longer covers that layer."""

    def corrupt(*args):
        view = class_view(*args)
        if part >= len(view.parts):
            return view
        first = view.parts[part - 1][0] if part else 0
        return view._replace(bags=[bag - {first} for bag in view.bags])

    return corrupt


def permuted(g, ltd, seed):
    """The same instance with its vertex ids shuffled by a seeded permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    pg = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    td = TreeDecomposition(
        [frozenset(perm[v] for v in bag) for bag in ltd.td.bags],
        ltd.td.edges,
        ltd.td.root,
    )
    ly = ltd.layering
    ly = Layering([tuple(perm[v] for v in layer) for layer in ly.layers])
    return pg, LayeredTreeDecomposition(td, ly)


def rerooted(g, ltd):
    """The same decomposition rooted at its middle node."""
    td = ltd.td
    td = TreeDecomposition(td.bags, td.edges, td.node_count // 2)
    return g, LayeredTreeDecomposition(td, ltd.layering)


def branching(g, ltd):
    """Hang leaves off the nodes: every fourth node gets a leaf holding its
    bag minus the smallest vertex, every ninth node from node 2 a leaf
    holding the lower half of its bag, and one node an empty leaf."""
    td = ltd.td
    bags = list(td.bags)
    edges = list(td.edges)
    leaves = [(t, sorted(td.bags[t])[1:]) for t in range(0, td.node_count, 4)]
    leaves += [
        (t, sorted(td.bags[t])[: len(td.bags[t]) // 2])
        for t in range(2, td.node_count, 9)
    ]
    leaves.append((td.node_count // 3, []))
    for t, bag in leaves:
        edges.append((t, len(bags)))
        bags.append(frozenset(bag))
    td = TreeDecomposition(bags, edges, td.root)
    return g, LayeredTreeDecomposition(td, ltd.layering)


def folded_path(n):
    """A path layered by distance from its middle vertex: each layer's two
    vertices sit at opposite ends of the path decomposition."""
    g, ltd, _ = gen_path(n)
    ly = bfs_layering(g, [n // 2])
    return g, LayeredTreeDecomposition(ltd.td, ly)


def nodes_permuted(g, ltd, seed):
    """The same decomposition with its node ids shuffled by a seeded
    permutation; the root moves with its node."""
    td = ltd.td
    perm = list(range(td.node_count))
    random.Random(seed).shuffle(perm)
    bags = [frozenset()] * td.node_count
    for t, bag in enumerate(td.bags):
        bags[perm[t]] = bag
    edges = [(perm[a], perm[b]) for a, b in td.edges]
    td = TreeDecomposition(bags, edges, perm[td.root])
    return g, LayeredTreeDecomposition(td, ltd.layering)
