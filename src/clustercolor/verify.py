"""Coloring verifiers: monochromatic components and the exhaustive
two-coloring path oracle on small triangulated grids."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import BudgetExceeded

ORACLE_MAX_SIZE = 4


@dataclass
class ClusterReport:
    """Monochromatic components of a coloring, largest first is not assumed;
    components are ordered by their smallest vertex."""

    components: tuple[tuple[int, tuple[int, ...]], ...]
    max_size: int
    per_color_max: dict[int, int]

    def largest(self) -> tuple[int, ...]:
        """The vertices of the first component of the largest size."""
        return next((c for _, c in self.components if len(c) == self.max_size), ())


def edge_components(
    n: int,
    edges: Iterable[tuple[int, int]],
    coloring: Mapping[int, int] | Sequence[int],
) -> ClusterReport:
    """Partition the vertices 0..n-1 into maximal connected same-color pieces.

    ``edges`` may repeat an edge or give it in either orientation, and a
    self-loop joins nothing; an edge with an end outside 0..n-1 raises
    ValueError naming it. The coloring, a mapping or a list indexed by
    vertex, must assign a color to every vertex. A root always links under
    the smaller root, so every root is the smallest vertex of its set and
    parents point to smaller vertices; one ascending scan then yields the
    components by smallest vertex, each with its vertices in ascending order.
    """
    try:
        color = [coloring[v] for v in range(n)]
    except KeyError as exc:
        raise ValueError(f"coloring missing vertex {exc.args[0]}") from None
    except IndexError:
        # A list stops at its length, the first vertex it leaves out.
        raise ValueError(f"coloring missing vertex {len(coloring)}") from None
    parent = list(range(n))
    try:
        for u, v in edges:
            if (u | v) < 0:  # a negative end would index from the back
                raise IndexError
            if color[u] != color[v]:
                continue
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
    except IndexError:  # from color[u] or color[v], before u and v move
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}") from None
    # Scanning upward, the parent of v is smaller and already points at its
    # root, so one lookup finds v's root.
    groups: dict[int, list[int]] = {}
    for v in range(n):
        root = parent[v] = parent[parent[v]]
        if root == v:
            groups[v] = [v]
        else:
            groups[root].append(v)
    components = []
    max_size = 0
    per_color: dict[int, int] = {}
    for root, verts in groups.items():
        c, size = color[root], len(verts)
        components.append((c, tuple(verts)))
        if size > max_size:
            max_size = size
        if size > per_color.get(c, 0):
            per_color[c] = size
    return ClusterReport(tuple(components), max_size, per_color)


def _has_path_of(adj, colors, target: int, n_vertices: int) -> bool:
    if target <= 1:
        return n_vertices > 0

    def dfs(v, visited, length):
        if length >= target:
            return True
        for u in adj[v]:
            if colors[u] == colors[v] and not visited & (1 << u):
                if dfs(u, visited | (1 << u), length + 1):
                    return True
        return False

    return any(dfs(v, 1 << v, 1) for v in range(n_vertices))


def trigrid_path_oracle(n: int) -> bool:
    """Exhaustively test whether every 2-coloring of the triangulated
    n-by-n grid contains a monochromatic path on at least n vertices.

    Only sizes up to 4 are feasible; larger n raises BudgetExceeded.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    if n > ORACLE_MAX_SIZE:
        raise BudgetExceeded(f"oracle limited to n <= {ORACLE_MAX_SIZE}")
    from .generators import gen_grid

    g, _, _ = gen_grid(n, triangulated=True)
    nn = g.n
    adj = [g.neighbors(v) for v in range(nn)]
    colors = [0] * nn
    for mask in range(1 << nn):
        for v in range(nn):
            colors[v] = (mask >> v) & 1
        if not _has_path_of(adj, colors, n, nn):
            return False
    return True
