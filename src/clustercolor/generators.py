"""Instance generators: square, triangulated and rectangular grids, paths
(the 1-by-n grids) and complete bipartite graphs.

Every generator that emits a decomposition also emits the layering it was
designed around, so the pair can be validated and fed straight into the
coloring pipeline.
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph, Layering, LayeredTreeDecomposition, TreeDecomposition


def _grid_edges(rows: int, cols: int, diagonals: bool = False) -> list[tuple[int, int]]:
    """Edges of the rows-by-cols grid on ids r * cols + c, vertex by vertex
    in id order: each one's edge to the right, down, and (with
    ``diagonals``) down-right."""
    edges = []
    for r in range(rows):
        below = r + 1 < rows
        for v in range(r * cols, (r + 1) * cols - 1):
            edges.append((v, v + 1))
            if below:
                edges.append((v, v + cols))
                if diagonals:
                    edges.append((v, v + cols + 1))
        if below:
            v = (r + 1) * cols - 1
            edges.append((v, v + cols))
    return edges


def gen_grid(n: int, triangulated: bool = False):
    """n-by-n grid, optionally with one diagonal per cell.

    Rows become layers and bag j holds columns j and j+1, giving a path
    decomposition with layered width at most 2. Max degree is at most 4
    (plain) or 6 (triangulated).

    Returns (graph, layered tree-decomposition, max degree).
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    g = Graph(n * n, _grid_edges(n, n, triangulated))

    layers = [tuple(range(r * n, (r + 1) * n)) for r in range(n)]
    if n == 1:
        bags = [frozenset({0})]
        tree_edges = []
    else:
        bags = [
            frozenset(v for u in range(j, n * n, n) for v in (u, u + 1))
            for j in range(n - 1)
        ]
        tree_edges = [(j, j + 1) for j in range(n - 2)]
    ltd = LayeredTreeDecomposition(
        TreeDecomposition(bags, tree_edges), Layering(layers)
    )
    return g, ltd, g.max_degree()


def gen_rect_grid(rows: int, cols: int):
    """rows-by-cols plain grid with a sliding-window path decomposition.

    The window moves one vertex at a time between adjacent columns, so the
    width is exactly ``rows`` (for cols >= 2). Columns become layers.

    Returns (graph, layered tree-decomposition, max degree).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    g = Graph(rows * cols, _grid_edges(rows, cols))

    # The columns, and every id column by column: window t holds the
    # rows + 1 ids from position t on, rows i.. of one column and rows ..i
    # of the next.
    layers = list(zip(*(range(r * cols, (r + 1) * cols) for r in range(rows))))
    order = list(chain.from_iterable(layers))
    if cols == 1:
        bags = [frozenset(order)]
    else:
        bags = list(map(frozenset, zip(*(order[k:] for k in range(rows + 1)))))
    tree_edges = [(t, t + 1) for t in range(len(bags) - 1)]
    ltd = LayeredTreeDecomposition(
        TreeDecomposition(bags, tree_edges), Layering(layers)
    )
    return g, ltd, g.max_degree()


def gen_path(n: int):
    """Path on n vertices with singleton layers and edge bags: the 1-by-n
    grid.

    Returns (graph, layered tree-decomposition, max degree).
    """
    if n < 1:
        raise ValueError("path length must be positive")
    return gen_rect_grid(1, n)


def gen_kst(s: int, t: int) -> Graph:
    """Complete bipartite graph with sides 0..s-1 and s..s+t-1."""
    if s < 1 or t < 1:
        raise ValueError("both sides must be nonempty")
    return Graph(s + t, [(a, s + b) for a in range(s) for b in range(t)])


def gen_kst_instance(s: int, t: int):
    """Complete bipartite graph plus a trivial one-bag decomposition.

    The two sides become the two layers, so the layered width equals
    max(s, t). Returns (graph, layered tree-decomposition, max degree).
    """
    g = gen_kst(s, t)
    ltd = LayeredTreeDecomposition(
        TreeDecomposition([frozenset(range(s + t))]),
        Layering([tuple(range(s)), tuple(range(s, s + t))]),
    )
    return g, ltd, g.max_degree()
