"""Core graph, layering, and tree-decomposition types with validators.

Vertices are integers 0..n-1. Layers are indexed 1..m. Decomposition nodes
are integers 0..node_count-1; node 0 is the default root whenever a rooted
view is needed. All structures are immutable after construction, so they can
be shared freely between threads and reused across operations.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidDecomposition, InvalidLayering


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


# What each axiom's witness names. The decomposition's "tree" axiom has none.
_WITNESS = {
    "partition": "vertex",
    "edge-span": "edge",
    "bag-contents": "node and vertex",
    "vertex-coverage": "vertex",
    "edge-coverage": "edge",
    "connectivity": "vertex",
}


class AxiomCheck(NamedTuple):
    """Outcome of a single structural axiom check."""

    axiom: str
    passed: bool
    witness: object = None

    def describe(self) -> str:
        """This failure as in "vertex-coverage axiom fails at vertex 0"."""
        at = "" if self.witness is None else f" at {_WITNESS[self.axiom]} {self.witness}"
        return f"{self.axiom} axiom fails{at}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def require(self, error: type[InvalidDecomposition | InvalidLayering]) -> None:
        """Raise ``error`` naming its subject and the first failed check's
        axiom and witness, if any check failed."""
        for c in self.checks:
            if not c.passed:
                raise error(f"invalid {error.subject}: {c.describe()}")


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Duplicate edges collapse silently; self-loops and out-of-range endpoints
    are rejected. Adjacency lists are kept sorted so iteration order is
    deterministic everywhere.
    """

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        add = seen.add
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            add((u, v) if u < v else (v, u))
        adj = [[] for _ in range(n)]
        for u, v in seen:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        self.n = n
        self._edges = frozenset(seen)
        self._adj = tuple(map(tuple, adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edges

    def vertices(self) -> range:
        return range(self.n)

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep``, relabeled to 0..k-1.

        Returns the subgraph and the sorted tuple of original ids; position
        in the tuple is the new id.
        """
        old = tuple(sorted(set(keep)))
        index = {v: i for i, v in enumerate(old)}
        sub_edges = [
            (i, index[u])
            for i, v in enumerate(old)
            if 0 <= v < self.n
            for u in self._adj[v]
            if u > v and u in index
        ]
        return Graph(len(old), sub_edges), old

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self._edges)})"


class Layering:
    """Ordered partition of a vertex set into layers, indexed from 1.

    Layers may be empty. A vertex may appear in at most one layer; the
    constructor rejects repeats outright since no graph could make them valid.
    """

    __slots__ = ("layers", "_index")

    def __init__(self, layers: Iterable[Iterable[int]]):
        packed = []
        index = {}
        for i, layer in enumerate(layers, start=1):
            row = tuple(sorted(set(layer)))
            for v in row:
                if v in index:
                    raise ValueError(f"vertex {v} appears in layers {index[v]} and {i}")
                index[v] = i
            packed.append(row)
        self.layers = tuple(packed)
        self._index = index

    @property
    def m(self) -> int:
        return len(self.layers)

    def layer(self, i: int) -> tuple[int, ...]:
        """Layer ``i`` (1-based); empty outside 1..m."""
        if 1 <= i <= len(self.layers):
            return self.layers[i - 1]
        return ()

    def layer_of(self, v: int) -> int:
        return self._index[v]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._index)

    def __eq__(self, other):
        return isinstance(other, Layering) and self.layers == other.layers

    def __hash__(self):
        return hash(self.layers)

    def __repr__(self):
        return f"Layering(m={self.m}, n={len(self._index)})"


def _holders(bags: Iterable[Iterable[int]]) -> dict[int, list[int]]:
    """Every vertex in some bag, mapped to its nodes in ascending order."""
    holders: dict[int, list[int]] = {}
    for t, bag in enumerate(bags):
        for v in bag:
            if v in holders:
                holders[v].append(t)
            else:
                holders[v] = [t]
    return holders


def _search(
    adj: Sequence[Sequence[int]], root: int
) -> tuple[list[int], list[int], int]:
    """Breadth-first search over nodes 0..len(adj)-1 from ``root``: each
    node's depth and parent (-1 for the root and for nodes it cannot reach),
    and the number of nodes reached."""
    depth = [-1] * len(adj)
    parent = [-1] * len(adj)
    depth[root] = 0
    queue = [root]
    for t in queue:
        below = depth[t] + 1
        for u in adj[t]:
            if depth[u] < 0:
                depth[u] = below
                parent[u] = t
                queue.append(u)
    return depth, parent, len(queue)


class TreeDecomposition:
    """Tree of bags over a host graph's vertices.

    The node set is 0..node_count-1; ``edges`` holds unordered node pairs.
    Whether the structure actually satisfies the decomposition axioms for a
    given graph is the validator's business, not the constructor's.
    """

    __slots__ = ("bags", "edges", "root", "_adj")

    def __init__(
        self,
        bags: Iterable[Iterable[int]],
        edges: Iterable[tuple[int, int]] = (),
        root: int = 0,
    ):
        self.bags = tuple(frozenset(b) for b in bags)
        nn = len(self.bags)
        if nn == 0:
            raise ValueError("a tree-decomposition needs at least one node")
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if not (0 <= a < nn and 0 <= b < nn):
                raise ValueError(f"tree edge ({a}, {b}) out of range")
            seen.add(_norm_edge(a, b))
        adj = [[] for _ in range(nn)]
        for a, b in seen:
            adj[a].append(b)
            adj[b].append(a)
        if not (0 <= root < nn):
            raise ValueError(f"root {root} out of range")
        self.edges = frozenset(seen)
        self.root = root
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def node_neighbors(self, t: int) -> tuple[int, ...]:
        return self._adj[t]

    def width(self) -> int:
        """Largest bag size minus one (-1 when every bag is empty)."""
        return max((len(b) for b in self.bags), default=0) - 1

    def is_tree(self) -> bool:
        nn = self.node_count
        return len(self.edges) == nn - 1 and _search(self._adj, 0)[2] == nn

    def depths(self, root: int | None = None) -> list[int]:
        """BFS depth of every node from ``root`` (default: stored root)."""
        return _search(self._adj, self.root if root is None else root)[0]

    def __eq__(self, other):
        return (
            isinstance(other, TreeDecomposition)
            and self.bags == other.bags
            and self.edges == other.edges
            and self.root == other.root
        )

    def __hash__(self):
        return hash((self.bags, self.edges, self.root))

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.node_count}, width={self.width()})"


@dataclass(frozen=True)
class LayeredTreeDecomposition:
    """A tree-decomposition together with a layering of the same graph."""

    td: TreeDecomposition
    layering: Layering


def validate_layering(g: Graph, ly: Layering) -> ValidationReport:
    """Check the partition and consecutive-layer axioms of a layering.

    Each witness is the smallest failing item (vertex, or edge as a sorted
    pair): the checks scan in any order and keep the minimum failure.
    """
    checks = []
    index = ly._index

    missing = next((v for v in g.vertices() if v not in index), None)
    stray = min((v for v in index if not 0 <= v < g.n), default=None)
    partition_ok = missing is None and stray is None
    checks.append(
        AxiomCheck("partition", partition_ok, missing if missing is not None else stray)
    )

    bad_edge = None
    for u, v in g.edges:
        lu, lv = index.get(u), index.get(v)
        if lu is None or lv is None or -1 <= lu - lv <= 1:
            continue
        if bad_edge is None or (u, v) < bad_edge:
            bad_edge = (u, v)
    checks.append(AxiomCheck("edge-span", bad_edge is None, bad_edge))
    return ValidationReport(tuple(checks))


def _connected_over(
    nodes: list[int], edges: list[tuple[int, int]], forest: bool
) -> bool:
    """Whether ``edges`` (all between members of ``nodes``) connect ``nodes``.

    When ``forest`` says the edges hold no cycle, counting them decides.
    That covers every valid decomposition and costs far less than the
    search, which only a decomposition that is not a tree needs.
    """
    if len(edges) < len(nodes) - 1:
        return False
    if forest:
        return True
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for u in adj.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


@dataclass(frozen=True)
class DecompositionReport(ValidationReport):
    """A decomposition's validation report together with the index its
    checks built: each vertex's nodes in ascending order, and each node's
    depth and parent (-1 for the root and for nodes it cannot reach) in a
    breadth-first search from the root."""

    holders: dict[int, list[int]] = field(compare=False, repr=False)
    depth: list[int] = field(compare=False, repr=False)
    parent: list[int] = field(compare=False, repr=False)


def check_decomposition(
    n: int,
    edges: Iterable[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    tree_edges: Collection[tuple[int, int]],
    root: int = 0,
) -> DecompositionReport:
    """Check tree shape, coverage, and connectivity axioms of a decomposition
    given as plain lists: the graph on 0..n-1 by its distinct edges (u, v)
    with u < v, one bag per node, and the tree by its distinct node pairs
    (no self-loops, both ends below ``len(bags)``, which is at least 1).

    Each witness is the smallest failing item (node, vertex, or edge): the
    checks scan in any order and keep the minimum failure.
    """
    checks = []
    nn = len(bags)
    tree_adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in tree_edges:
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    depth, parent, reached = _search(tree_adj, root)
    tree = len(tree_edges) == nn - 1 and reached == nn
    checks.append(AxiomCheck("tree", tree, None))

    holders = _holders(bags)
    stray = None
    if holders and (min(holders) < 0 or max(holders) >= n):
        for t, bag in enumerate(bags):
            if bag and (min(bag) < 0 or max(bag) >= n):
                stray = (t, min(v for v in bag if not 0 <= v < n))
                break
    checks.append(AxiomCheck("bag-contents", stray is None, stray))

    # With no stray vertex, every vertex is covered when n of them are.
    missing = (
        None
        if stray is None and len(holders) == n
        else next((v for v in range(n) if v not in holders), None)
    )
    checks.append(AxiomCheck("vertex-coverage", missing is None, missing))

    # An edge is covered when a bag holding the endpoint with fewer nodes
    # also holds the other endpoint.
    bad_edge = None
    for edge in edges:
        u, v = edge
        hu, hv = holders.get(u, ()), holders.get(v, ())
        if len(hu) > len(hv):
            hu, v = hv, u
        for t in hu:
            if v in bags[t]:
                break
        else:
            if bad_edge is None or edge < bad_edge:
                bad_edge = edge
    checks.append(AxiomCheck("edge-coverage", bad_edge is None, bad_edge))

    # Each vertex's node set must induce a connected subtree. Scanning the
    # smaller bag of every tree edge finds, per vertex, the edges whose two
    # bags both hold it. The lists hold at most sum-of-bag-sizes entries in
    # all, so deciding every vertex over its own list costs
    # O(sum of bag sizes + nodes); on a tree a vertex's k nodes are
    # connected exactly when k - 1 such edges hold it.
    shared: dict[int, list[tuple[int, int]]] = {}
    for a, b in tree_edges:
        small, large = bags[a], bags[b]
        if len(small) > len(large):
            small, large = large, small
        for v in small:
            if v in large:
                shared.setdefault(v, []).append((a, b))
    bad_vertex = None
    for v, nodes in holders.items():
        if (
            len(nodes) > 1
            and (bad_vertex is None or v < bad_vertex)
            and not _connected_over(nodes, shared.get(v, []), tree)
        ):
            bad_vertex = v
    checks.append(AxiomCheck("connectivity", bad_vertex is None, bad_vertex))
    return DecompositionReport(tuple(checks), holders, depth, parent)


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionReport:
    """``check_decomposition`` of ``g``'s edges and ``td``'s bags and tree,
    searched from ``td.root``."""
    return check_decomposition(g.n, g.edges, td.bags, td.edges, td.root)


def layered_width(ltd: LayeredTreeDecomposition) -> int:
    """Layered width of a layered tree-decomposition: the largest number of
    vertices any bag shares with one layer. The result means nothing unless
    both parts are valid for the graph; the caller validates them.
    """
    index = ltd.layering._index
    best = 0
    for bag in ltd.td.bags:
        per_layer: dict[int, int] = {}
        for v in bag:
            i = index.get(v)
            if i is not None:
                per_layer[i] = per_layer.get(i, 0) + 1
        if per_layer:
            best = max(best, max(per_layer.values()))
    return best


def bfs_layering(g: Graph, roots: Iterable[int]) -> Layering:
    """Layer ``g`` by BFS distance from ``roots``.

    Vertices unreachable from the roots are grouped by component; each extra
    component is layered from its minimum-id vertex and appended after an
    empty separator layer, which keeps the layering axiom intact.
    """
    root_list = sorted(set(roots))
    if not root_list:
        raise ValueError("roots must be nonempty")
    for r in root_list:
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} out of range")

    # Distance of every vertex reached so far from its search's sources.
    dist: dict[int, int] = {}

    def bfs(sources):
        dist.update((v, 0) for v in sources)
        queue = deque(sources)
        rows = [list(sources)]
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    if dist[u] == len(rows):
                        rows.append([])
                    rows[dist[u]].append(u)
                    queue.append(u)
        return rows

    layers = bfs(root_list)
    for v in g.vertices():
        if v not in dist:
            layers.append([])
            layers.extend(bfs([v]))
    return Layering(layers)
