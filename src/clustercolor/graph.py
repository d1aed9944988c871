"""Core graph, layering, and tree-decomposition types with validators.

Vertices are integers 0..n-1. Layers are indexed 1..m. Decomposition nodes
are integers 0..node_count-1; node 0 is the default root whenever a rooted
view is needed. Graphs, decompositions and layerings are immutable and may be
shared; the index lists of a DecompositionReport are its caller's to extend.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import compress
from operator import gt
from typing import NamedTuple

from .errors import InvalidDecomposition, InvalidLayering


def _bad_edge(u: int, v: int, n: int) -> ValueError:
    """The error for an edge line (u, v) that is a self-loop or leaves 0..n-1."""
    if u == v:
        return ValueError(f"self-loop at vertex {u}")
    return ValueError(f"edge ({u}, {v}) out of range for n={n}")


def _bad_tree_pair(a: int, b: int, nn: int) -> ValueError:
    """The error for a tree pair (a, b) that is a self-loop or leaves 0..nn-1."""
    what = f"self-loop at node {a}" if a == b else f"tree edge ({a}, {b}) out of range"
    return ValueError(what)


def _pair_index(
    n: int, pairs: Iterable[tuple[int, int]], bad: Callable[[int, int, int], ValueError]
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """One pass over a list of pairs on 0..n-1, tuples or lists, in either
    orientation and possibly repeated: the distinct pairs as (u, v) with
    u < v and each member's neighbors, both in the order first seen. The
    first pair that is a self-loop or leaves 0..n-1 raises
    ``bad(u, v, n)``, naming the pair as given."""
    seen: set[tuple[int, int]] = set()
    distinct: list[tuple[int, int]] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in pairs:
        u, v = edge = line
        if u > v or edge.__class__ is not tuple:
            u, v = edge = (u, v) if u < v else (v, u)
        if edge in seen:
            continue
        if not 0 <= u < v < n:
            raise bad(*line, n)
        seen.add(edge)
        distinct.append(edge)
        adj[u].append(v)
        adj[v].append(u)
    return distinct, adj


def _induce(
    adj: Sequence[Sequence[int]], ids: Sequence[int]
) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The edges among the distinct vertices ``ids`` of the graph with
    adjacency ``adj``, each once as (i, j) in local ids (positions in
    ``ids``) with ``ids[i] < ids[j]``, and the map from id to position."""
    index = {v: i for i, v in enumerate(ids)}
    edges = [
        (i, index[u])
        for i, v in enumerate(ids)
        for u in adj[v]
        if u > v and u in index
    ]
    return edges, index


def _tree_index(
    nn: int, tree_edges: Iterable[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The tree pairs that name two nodes of 0..nn-1, and each node's
    neighbors through them: a pair that names no node joins nothing."""
    named = [(a, b) for a, b in tree_edges if 0 <= a < nn and 0 <= b < nn]
    adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in named:
        adj[a].append(b)
        adj[b].append(a)
    return named, adj


# What each axiom's witness names. The decomposition's "tree" axiom has no
# witness; an axiom not listed here gives its witness bare.
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
        if self.witness is None:
            return f"{self.axiom} axiom fails"
        noun = _WITNESS.get(self.axiom)
        at = self.witness if noun is None else f"{noun} {self.witness}"
        return f"{self.axiom} axiom fails at {at}"


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
    deterministic everywhere; `pace.graph_to_pace` lists the edges in
    ascending order off them with no sort.
    """

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        edges, adj = _pair_index(n, edges, _bad_edge)
        for a in adj:
            a.sort()
        self._edges, self._adj = frozenset(edges), tuple(map(tuple, adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self._edges) == (other.n, other._edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self._edges)})"


class Layering:
    """Ordered partition of a vertex set into layers, indexed from 1.

    Layers may be empty. A vertex may appear in at most one layer; the
    constructor rejects repeats outright since no graph could make them valid.
    """

    __slots__ = ("layers",)

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

    @property
    def m(self) -> int:
        return len(self.layers)

    def __eq__(self, other):
        return isinstance(other, Layering) and self.layers == other.layers

    def __repr__(self):
        return f"Layering(m={self.m}, n={sum(map(len, self.layers))})"


def _search(
    adj: Sequence[Sequence[int]], root: int
) -> tuple[list[int], list[int], int]:
    """Breadth-first search over nodes 0..len(adj)-1 from ``root``: each
    node's depth and parent (-1 for the root and for nodes it cannot reach),
    and the number of nodes reached, none when ``root`` names no node."""
    depth = [-1] * len(adj)
    parent = [-1] * len(adj)
    if not 0 <= root < len(adj):
        return depth, parent, 0
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

    __slots__ = ("bags", "edges", "root")

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
        self.edges = frozenset(_pair_index(nn, edges, _bad_tree_pair)[0])
        if not (0 <= root < nn):
            raise ValueError(f"root {root} out of range")
        self.root = root

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        """Largest bag size minus one (-1 when every bag is empty)."""
        return max((len(b) for b in self.bags), default=0) - 1

    def __eq__(self, other):
        return (
            isinstance(other, TreeDecomposition)
            and self.bags == other.bags
            and self.edges == other.edges
            and self.root == other.root
        )

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.node_count}, width={self.width()})"


@dataclass(frozen=True)
class LayeredTreeDecomposition:
    """A tree-decomposition together with a layering of the same graph."""

    td: TreeDecomposition
    layering: Layering


def layer_index(
    n: int, rows: Sequence[Sequence[int]]
) -> tuple[defaultdict[int, int], AxiomCheck]:
    """Each vertex's layer, and the partition check of the layering whose
    layer i is ``rows[i - 1]``: the rows must be disjoint and cover
    0..n-1 exactly.

    ``layer_of`` maps each listed vertex of 0..n-1 to the first row holding
    it and reads 0 for any other id, so it holds fewer than n entries
    exactly when the rows leave a vertex out. The witness is the smallest
    vertex of 0..n-1 in no row or in two rows, else the smallest id outside
    0..n-1; both are found in O(sum of row sizes).
    """
    layer_of: defaultdict[int, int] = defaultdict(int)
    bad, stray = set(), []
    for i, row in enumerate(rows, start=1):
        for v in row:
            if not 0 <= v < n:
                stray.append(v)
            elif v in layer_of:
                bad.add(v)
            else:
                layer_of[v] = i
    if len(layer_of) < n:
        # At most len(layer_of) vertices lie below the smallest one left out.
        bad.add(next(v for v in range(n) if v not in layer_of))
    witness = min(bad) if bad else min(stray, default=None)
    return layer_of, AxiomCheck("partition", witness is None, witness)


def edge_span(edges: Iterable[tuple[int, int]], layer_of: Mapping[int, int]) -> AxiomCheck:
    """The edge-span check, over distinct edges (u, v) with u < v, of the
    layering given by ``layer_of`` (see ``layer_index``). An edge with an
    end in no layer is not checked; the witness is the smallest edge whose
    ends lie two or more layers apart."""
    bad = min(
        (
            (u, v)
            for u, v in edges
            if not -1 <= layer_of[u] - layer_of[v] <= 1 and layer_of[u] and layer_of[v]
        ),
        default=None,
    )
    return AxiomCheck("edge-span", bad is None, bad)


@dataclass(frozen=True)
class DecompositionReport(ValidationReport):
    """A decomposition's validation report together with the index its
    checks built: for each vertex of 0..n-1, a list indexed by vertex, its
    nodes in ascending order; and each node's depth and parent (-1 for the
    root and for nodes it cannot reach) in a breadth-first search from the
    root."""

    holders: list[list[int]] = field(compare=False, repr=False)
    depth: list[int] = field(compare=False, repr=False)
    parent: list[int] = field(compare=False, repr=False)


def check_decomposition(
    n: int,
    edges: Iterable[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    tree_edges: Collection[tuple[int, int]],
    root: int = 0,
    index: tuple[list[tuple[int, int]], list[list[int]]] | None = None,
) -> DecompositionReport:
    """Check tree shape, coverage, and connectivity axioms of a decomposition
    given as plain lists: the graph on 0..n-1 by its distinct edges (u, v)
    with u < v, one bag per node, and the tree by its distinct node pairs
    (no self-loops). The tree axiom fails when there is no bag, or when the
    root or a tree pair names no node; such a pair joins nothing.
    Connectivity is checked, and reported, only when the tree check passes
    and every bag holds only vertices of 0..n-1. A caller that has built
    ``_tree_index(len(bags), tree_edges)`` passes it as ``index``, and the
    check reads the tree through it instead of building it again.

    Each witness is the smallest failing item (node, vertex, or edge): the
    checks scan in any order and keep the minimum failure.
    """
    checks = []
    nn = len(bags)
    named, tree_adj = index or _tree_index(nn, tree_edges)
    depth, parent, reached = _search(tree_adj, root)
    tree = len(tree_edges) == len(named) == nn - 1 and reached == nn
    checks.append(AxiomCheck("tree", tree, None))

    # Each vertex's nodes in ascending order, and the smallest (node, id)
    # pair whose id lies outside 0..n-1.
    holders: list[list[int]] = [[] for _ in range(n)]
    stray = None
    for t, bag in enumerate(bags):
        for v in bag:
            if 0 <= v < n:
                holders[v].append(t)
            elif stray is None or (t, v) < stray:
                stray = (t, v)
    checks.append(AxiomCheck("bag-contents", stray is None, stray))

    missing = holders.index([]) if [] in holders else None
    checks.append(AxiomCheck("vertex-coverage", missing is None, missing))

    # An edge is covered when a bag holding the endpoint with fewer nodes
    # also holds the other endpoint.
    bad_edge = None
    for edge in edges:
        u, v = edge
        hu, hv = holders[u], holders[v]
        if len(hu) > len(hv):
            hu, v = hv, u
        for t in hu:
            if v in bags[t]:
                break
        else:
            if bad_edge is None or edge < bad_edge:
                bad_edge = edge
    checks.append(AxiomCheck("edge-coverage", bad_edge is None, bad_edge))

    # Each vertex's nodes must induce a connected subtree, an axiom defined
    # only on a tree whose bags hold only vertices. There a vertex's k nodes
    # are connected exactly when k - 1 tree edges have it in both bags.
    if tree and stray is None:
        # One more than the count: a vertex fails when it has more nodes.
        shared = [1] * n
        for a, b in named:
            for v in bags[a] & bags[b]:
                shared[v] += 1
        failing = compress(range(n), map(gt, map(len, holders), shared))
        bad_vertex = next(failing, None)
        checks.append(AxiomCheck("connectivity", bad_vertex is None, bad_vertex))
    return DecompositionReport(tuple(checks), holders, depth, parent)


def bags_layered_width(
    bags: Iterable[Iterable[int]], layer_of: Mapping[int, int]
) -> int:
    """The largest number of vertices any bag shares with one layer of the
    layering given by ``layer_of`` (see ``layer_index``); a vertex in no
    layer counts for none."""
    best = 0
    for bag in bags:
        per_layer: dict[int, int] = {}
        for v in bag:
            i = layer_of[v]
            per_layer[i] = per_layer.get(i, 0) + 1
        per_layer.pop(0, None)
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
