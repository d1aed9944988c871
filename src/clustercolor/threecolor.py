"""Clustered 3-coloring of graphs with a layered tree decomposition.

Layers are split round-robin into three classes with the palettes {1,2},
{2,3} and {1,3}, and colored class by class. Every layer follows one rule:
it is two-colored over its restricted tree decomposition in its class's
palette, after being guarded against the monochromatic components of the
already colored neighbor layers i-1 and i+1 in the one color their palettes
share. Guarding a component makes all pairs of its neighbors in the layer
one edge group of fake edges, so the layer's coloring cannot cut through
that component's neighborhood. Each color appears in only two classes,
which caps the size of every monochromatic component by a function of the
layered width and the maximum degree alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClusteringBoundError, GroupBudgetError, InvalidDecomposition
from .graph import (
    Graph,
    Layering,
    LayeredTreeDecomposition,
    TreeDecomposition,
    layered_width,
    validate_tree_decomposition,
)
from .twocolor import (
    DEFAULT_CLUSTER_FACTOR,
    EdgeGroup,
    GroupBudget,
    band_two_color,
    cluster_bound,
    enlarge_decomposition,
)
from .verify import monochromatic_components


@dataclass(frozen=True)
class ThreeColorConstants:
    """Widths, degrees, and clustering bounds for the three stages.

    ``f1``/``f2``/``f3`` bound the clustering of each stage's two-coloring;
    ``delta2``/``delta3`` and ``w2``/``w3`` bound the degree and width of
    the augmented inputs the later stages color; ``g`` bounds the final
    monochromatic component size.
    """

    width: int
    degree: int
    cluster_factor: int
    f1: int
    delta2: int
    w2: int
    f2: int
    delta3: int
    w3: int
    f3: int
    g: int


def compute_constants(
    width: int, degree: int, cluster_factor: int | None = None
) -> ThreeColorConstants:
    """Evaluate the pipeline's constant chain for the given width and degree."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    w, d = width, degree
    f1 = cluster_bound(w, d, cluster_factor)
    delta2 = d + f1 * d * d
    w2 = w + 2 * (w + 1) * f1 * f1 * d * d
    f2 = cluster_bound(w2, delta2, cluster_factor)
    delta3 = d + f2 * d * d
    w3 = w + 4 * (w2 + 1) * f2 * f2 * d * d
    f3 = cluster_bound(w3, delta3, cluster_factor)
    g = (1 + f2 * d) * f3
    factor = DEFAULT_CLUSTER_FACTOR if cluster_factor is None else cluster_factor
    return ThreeColorConstants(
        width=w,
        degree=d,
        cluster_factor=factor,
        f1=f1,
        delta2=delta2,
        w2=w2,
        f2=f2,
        delta3=delta3,
        w3=w3,
        f3=f3,
        g=g,
    )


@dataclass(frozen=True)
class LayerClassSplit:
    """The three round-robin unions of layers: u1 = V1 u V4 u ..., etc."""

    u1: frozenset[int]
    u2: frozenset[int]
    u3: frozenset[int]

    def class_of(self, layer_index: int) -> int:
        return ((layer_index - 1) % 3) + 1


def split_layer_classes(ly: Layering) -> LayerClassSplit:
    """Assign every layer to class 1, 2, or 3 by its index mod 3."""
    parts: list[set[int]] = [set(), set(), set()]
    for i in range(1, ly.m + 1):
        parts[(i - 1) % 3].update(ly.layer(i))
    return LayerClassSplit(
        u1=frozenset(parts[0]), u2=frozenset(parts[1]), u3=frozenset(parts[2])
    )


@dataclass(frozen=True)
class ThreeColorResult:
    """Coloring with its measured clustering (overall and per color), the
    constants used, and the fake edges the later stages were forced to
    respect."""

    coloring: dict[int, int]
    clustering: int
    per_color_max: dict[int, int]
    constants: ThreeColorConstants
    split: LayerClassSplit
    stage2_pairs: frozenset[tuple[int, int]]
    stage3_pairs: frozenset[tuple[int, int]]


def _cover_nodes(
    td: TreeDecomposition,
    holders: dict[int, list[int]],
    comp: frozenset[int],
    nbrs: frozenset[int],
    g: Graph,
) -> frozenset[int]:
    """Greedy node cover of the edges between a component and its target-layer
    neighbors: scan edges in sorted order, take the smallest node whose bag
    holds both ends, skip edges already covered."""
    edges = sorted(
        (min(c, u), max(c, u))
        for c in comp
        for u in g.neighbors(c)
        if u in nbrs
    )
    cover: set[int] = set()
    covered: set[tuple[int, int]] = set()
    for a, b in edges:
        if (a, b) in covered:
            continue
        node = next(t for t in holders[a] if b in td.bags[t])
        cover.add(node)
        bag = td.bags[node]
        covered.update(e for e in edges if e[0] in bag and e[1] in bag)
    return frozenset(cover)


def _groups_for_layer(
    g: Graph,
    td: TreeDecomposition,
    holders: dict[int, list[int]],
    poured: dict[int, list[frozenset[int]]],
    guards: list[frozenset[int]],
    target: frozenset[int],
) -> list[EdgeGroup]:
    """Edge groups forcing the target layer to respect the guard components,
    in original vertex and node ids.

    Each component contributes all pairs of its neighbors in the target
    layer, a greedy cover of the connecting edges, and the subtree of nodes
    whose (possibly enlarged) bags meet it: the nodes holding one of its
    vertices plus the subtrees its vertices were poured into.
    """
    groups: list[EdgeGroup] = []
    for comp in sorted(guards, key=min):
        nbrs = frozenset(
            u for c in comp for u in g.neighbors(c) if u in target
        )
        if len(nbrs) < 2:
            continue
        pairs = frozenset((a, b) for a in nbrs for b in nbrs if a < b)
        subtree = frozenset(t for c in comp for t in holders[c]).union(
            *{sub for c in comp for sub in poured.get(c, ())}
        )
        cover = _cover_nodes(td, holders, comp, nbrs, g)
        groups.append(EdgeGroup(nodes=cover, subtree=subtree, pairs=pairs))
    return groups


def _layer_view(
    td: TreeDecomposition,
    holders: dict[int, list[int]],
    parent: list[int],
    depth: list[int],
    ids: tuple[int, ...],
    groups: list[EdgeGroup],
) -> tuple[TreeDecomposition, list[int], list[EdgeGroup]]:
    """The layer's sparse sub-decomposition, the original depths of its
    nodes, and the groups in its local ids.

    It keeps the nodes that hold a layer vertex and the nodes of every
    group subtree, in ascending original id, with the layer's vertices
    (local ids = positions in ``ids``) as bags and the original tree edges
    among them. Every vertex's node set, original and poured, is kept whole
    and is connected, so chaining the forest's component tops (kept nodes
    whose parent is not kept) in ascending order yields a valid
    decomposition of the layer.
    """
    kept = {t for v in ids for t in holders[v]}
    for grp in groups:
        kept |= grp.subtree
    nodes = sorted(kept)
    local = {t: i for i, t in enumerate(nodes)}
    bags: list[list[int]] = [[] for _ in nodes]
    for i, v in enumerate(ids):
        for t in holders[v]:
            bags[local[t]].append(i)
    edges = [(local[t], local[parent[t]]) for t in nodes if parent[t] in local]
    tops = [local[t] for t in nodes if parent[t] not in local]
    edges += zip(tops, tops[1:])
    index = {v: i for i, v in enumerate(ids)}
    local_groups = [
        EdgeGroup(
            nodes=frozenset(local[t] for t in grp.nodes),
            subtree=frozenset(local[t] for t in grp.subtree),
            pairs=frozenset((index[a], index[b]) for a, b in grp.pairs),
        )
        for grp in groups
    ]
    return TreeDecomposition(bags, edges), [depth[t] for t in nodes], local_groups


def three_color(
    g: Graph,
    ltd: LayeredTreeDecomposition,
    delta: int,
    width: int | None = None,
    cluster_factor: int | None = None,
) -> ThreeColorResult:
    """3-color g so that every monochromatic component has at most
    ``constants.g`` vertices.

    ``delta`` must bound the maximum degree; ``width`` may raise the layered
    width the constants are computed for (the measured width is always
    honored). Stage failures keep their exception types but name the stage
    and layer; the final clustering is measured and checked before
    returning.
    """
    measured_width = layered_width(ltd, g)
    if g.max_degree() > delta:
        raise ValueError(
            f"graph degree {g.max_degree()} exceeds declared bound {delta}"
        )
    w_eff = max(1, measured_width, width or 0)
    d_eff = max(1, delta)
    constants = compute_constants(w_eff, d_eff, cluster_factor)
    ly = ltd.layering
    td = ltd.td
    split = split_layer_classes(ly)
    budget2 = GroupBudget(
        max_pairs_per_group=constants.f1 ** 2 * d_eff ** 2,
        max_pair_uses_per_vertex=constants.f1 * d_eff ** 2,
        max_groups_per_node=w_eff + 1,
    )
    budget3 = GroupBudget(
        max_pairs_per_group=constants.f2 ** 2 * d_eff ** 2,
        max_pair_uses_per_vertex=constants.f2 * d_eff ** 2,
        max_groups_per_node=2 * (constants.w2 + 1),
    )
    # Per class: palette (local colors 1 and 2 map to its entries), degree
    # bound of the guarded layer, and budget for its edge groups. Class 1
    # is colored first, so it has no colored neighbors and no groups.
    stages = (
        (1, (1, 2), d_eff, None),
        (2, (2, 3), constants.delta2, budget2),
        (3, (1, 3), constants.delta3, budget3),
    )

    # Built once: each vertex's nodes in ascending order, and each node's
    # depth and parent from the original root. Every layer's view keeps
    # these original depths, so its bands match the whole tree's.
    holders = td.holders()
    depth = td.depths()
    parent = [-1] * td.node_count
    for a, b in td.edges:
        if depth[a] < depth[b]:
            parent[b] = a
        else:
            parent[a] = b

    coloring: dict[int, int] = {}
    # Monochromatic components of each colored layer, as original ids,
    # keyed by (layer index, final color).
    comps: dict[tuple[int, int], list[frozenset[int]]] = {}
    # For each vertex an enlargement poured into bags, the group subtrees it
    # was poured into (shared, not copied).
    poured: dict[int, list[frozenset[int]]] = {}
    fake: dict[int, set[tuple[int, int]]] = {cls: set() for cls in (1, 2, 3)}

    for cls, palette, degree, budget in stages:
        for li in range(cls, ly.m + 1, 3):
            verts = frozenset(ly.layer(li))
            if not verts:
                continue
            sub, ids = g.induced(verts)
            guards = [
                comp
                for lj in (li - 1, li + 1)
                for color in palette
                for comp in comps.get((lj, color), ())
            ]
            groups = _groups_for_layer(g, td, holders, poured, guards, verts)
            sub_td, sub_depth, local_groups = _layer_view(
                td, holders, parent, depth, ids, groups
            )
            stage = f"stage-{cls} layer {li}"
            # Each layer's view is validated once: by the output check of
            # its enlargement when some group carries pairs, or here when
            # there is nothing to enlarge.
            try:
                if any(grp.pairs for grp in local_groups):
                    sub, sub_td = enlarge_decomposition(
                        sub, sub_td, local_groups, budget
                    )
                else:
                    validate_tree_decomposition(sub, sub_td).require(
                        InvalidDecomposition
                    )
                colors, clusters = band_two_color(
                    sub, sub_td, degree, cluster_factor, sub_depth
                )
            except GroupBudgetError as exc:
                raise GroupBudgetError(exc.budget, f"{stage}: {exc}") from exc
            except ClusteringBoundError as exc:
                raise ClusteringBoundError(stage, exc.measured, exc.bound) from exc
            for local, color in colors.items():
                coloring[ids[local]] = palette[color - 1]
            for color, local_comp in clusters.components:
                comps.setdefault((li, palette[color - 1]), []).append(
                    frozenset(ids[v] for v in local_comp)
                )
            for grp in groups:
                fake[cls].update(grp.pairs)
                for v in {v for pair in grp.pairs for v in pair}:
                    poured.setdefault(v, []).append(grp.subtree)

    report = monochromatic_components(g, coloring)
    if report.max_size > constants.g:
        raise ClusteringBoundError("three-color", report.max_size, constants.g)
    return ThreeColorResult(
        coloring=coloring,
        clustering=report.max_size,
        per_color_max=report.per_color_max,
        constants=constants,
        split=split,
        stage2_pairs=frozenset(fake[2]),
        stage3_pairs=frozenset(fake[3]),
    )
