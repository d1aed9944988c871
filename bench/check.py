"""Independent check of a color3 output.

Reads the instance files and the ``.coloring`` file with its own parsers and
recomputes the largest monochromatic component from the ``.gr`` edges, so
that no code under test (``pace``, ``verify.monochromatic_components``)
vouches for its own output.
"""

from __future__ import annotations

# Palette of layer i, by i mod 3 (layers are numbered from 1).
PALETTES = {1: {1, 2}, 2: {2, 3}, 0: {1, 3}}


class Instance:
    """Vertex count, 0-based edges and the allowed palette of each vertex."""

    def __init__(self, gr_path: str, layers_path: str):
        with open(gr_path) as fh:
            rows = [line.split() for line in fh if line.strip() and line[0] != "c"]
        header = rows[0]
        if header[:2] != ["p", "tw"]:
            raise ValueError(f"{gr_path}: bad header {header}")
        self.n = int(header[2])
        self.edges = [(int(u) - 1, int(v) - 1) for u, v in rows[1:]]
        if len(self.edges) != int(header[3]):
            raise ValueError(f"{gr_path}: header promises {header[3]} edges")
        self.palette: list[set[int] | None] = [None] * self.n
        with open(layers_path) as fh:
            for index, line in enumerate(fh, start=1):
                for v in line.split():
                    self.palette[int(v) - 1] = PALETTES[index % 3]
        if any(p is None for p in self.palette):
            raise ValueError(f"{layers_path}: some vertex has no layer")

    def largest_component(self, colors: list[int]) -> int:
        parent = list(range(self.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in self.edges:
            if colors[u] == colors[v]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        sizes: dict[int, int] = {}
        for v in range(self.n):
            root = find(v)
            sizes[root] = sizes.get(root, 0) + 1
        return max(sizes.values(), default=0)

    def problems(self, coloring_path: str, clustering: int, bound: int) -> list[str]:
        """Everything wrong with a coloring file; empty when it passes."""
        colors: list[int | None] = [None] * self.n
        with open(coloring_path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                v, c = (int(x) for x in line.split())
                if not 0 <= v < self.n or colors[v] is not None:
                    return [f"vertex {v} out of range or colored twice"]
                colors[v] = c
        uncolored = colors.count(None)
        if uncolored:
            return [f"{uncolored} vertices uncolored"]
        found = []
        bad = next((v for v in range(self.n) if colors[v] not in (1, 2, 3)), None)
        if bad is not None:
            found.append(f"vertex {bad} has color {colors[bad]} outside 1..3")
        bad = next(
            (v for v in range(self.n) if colors[v] not in self.palette[v]), None
        )
        if bad is not None:
            found.append(f"vertex {bad} has color {colors[bad]} outside its layer palette")
        largest = self.largest_component(colors)
        if largest != clustering:
            found.append(f"largest component {largest} but reported {clustering}")
        if largest > bound:
            found.append(f"largest component {largest} exceeds bound {bound}")
        return found
