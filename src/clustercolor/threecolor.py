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

from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass

from .errors import (
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
    InvalidLayering,
)
from .graph import (
    Graph,
    LayeredTreeDecomposition,
    layered_width,
    validate_layering,
    validate_tree_decomposition,
)
from .twocolor import (
    CLUSTER_FACTOR,
    EdgeGroup,
    GroupBudget,
    band_color,
    cluster_bound,
    enlarge_lists,
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


def compute_constants(width: int, degree: int) -> ThreeColorConstants:
    """Evaluate the pipeline's constant chain for the given width and degree."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    w, d = width, degree
    f1 = cluster_bound(w, d)
    delta2 = d + f1 * d * d
    w2 = w + 2 * (w + 1) * f1 * f1 * d * d
    f2 = cluster_bound(w2, delta2)
    delta3 = d + f2 * d * d
    w3 = w + 4 * (w2 + 1) * f2 * f2 * d * d
    f3 = cluster_bound(w3, delta3)
    g = (1 + f2 * d) * f3
    return ThreeColorConstants(
        width=w,
        degree=d,
        cluster_factor=CLUSTER_FACTOR,
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
class ThreeColorResult:
    """Coloring with its measured clustering (overall and per color), the
    constants used, and the number of fake edges stages 2 and 3 added."""

    coloring: dict[int, int]
    clustering: int
    per_color_max: dict[int, int]
    constants: ThreeColorConstants
    stage2_fake_edges: int
    stage3_fake_edges: int


def _layer_view(
    g: Graph,
    bags: Sequence[AbstractSet[int]],
    holders: dict[int, list[int]],
    parent: list[int],
    depth: list[int],
    poured: dict[int, list[frozenset[int]]],
    ids: tuple[int, ...],
    guards: list[frozenset[int]],
) -> tuple[
    list[tuple[int, int]],
    list[set[int]],
    list[tuple[int, int]],
    list[int],
    list[EdgeGroup],
    list[tuple[list[int], frozenset[int]]],
]:
    """The layer, its sparse sub-decomposition and the edge groups that
    guard it, as plain lists in local ids: the layer's edges, the view's
    bags, tree edges and original node depths, and the groups; last, each
    group's endpoints and subtree in original ids.

    Local vertex ids are positions in ``ids``, the layer's sorted vertices.
    Each guard component with at least two neighbors in the layer gives one
    group: all pairs of those neighbors; as cover, per connecting edge the
    first node holding both ends; and as subtree, the nodes whose (possibly
    enlarged) bags meet the component: those holding one of its vertices
    plus the subtrees its vertices were poured into.

    The view keeps the nodes that hold a layer vertex and the nodes of every
    group subtree, in ascending original id, with the original tree edges
    among them. Every vertex's node set, original and poured, is kept whole
    and is connected, so chaining the forest's component tops (kept nodes
    whose parent is not kept) in ascending order yields a valid
    decomposition of the layer.
    """
    index = {v: i for i, v in enumerate(ids)}
    edges = [
        (i, index[u])
        for i, v in enumerate(ids)
        for u in g.neighbors(v)
        if u > v and u in index
    ]
    kept = {t for v in ids for t in holders[v]}
    found = []
    for comp in sorted(guards, key=min):
        links = [(c, u) for c in comp for u in g.neighbors(c) if u in index]
        ends = sorted({index[u] for _, u in links})
        if len(ends) < 2:
            continue
        cover = {next(t for t in holders[c] if u in bags[t]) for c, u in links}
        subtree = frozenset(t for c in comp for t in holders[c]).union(
            *{sub for c in comp for sub in poured.get(c, ())}
        )
        kept |= subtree
        found.append((ends, cover, subtree))
    nodes = sorted(kept)
    local = {t: i for i, t in enumerate(nodes)}
    view_bags: list[set[int]] = [set() for _ in nodes]
    for i, v in enumerate(ids):
        for t in holders[v]:
            view_bags[local[t]].add(i)
    tree_edges: list[tuple[int, int]] = []
    tops: list[int] = []
    for i, t in enumerate(nodes):
        up = local.get(parent[t])
        if up is None:
            tops.append(i)
        else:
            tree_edges.append((i, up))
    tree_edges += zip(tops, tops[1:])
    groups = [
        EdgeGroup(
            nodes=frozenset(local[t] for t in cover),
            subtree=frozenset(local[t] for t in subtree),
            pairs=frozenset(
                (a, b) for k, a in enumerate(ends) for b in ends[k + 1 :]
            ),
        )
        for ends, cover, subtree in found
    ]
    pours = [([ids[i] for i in ends], subtree) for ends, _, subtree in found]
    return edges, view_bags, tree_edges, [depth[t] for t in nodes], groups, pours


def three_color(
    g: Graph, ltd: LayeredTreeDecomposition, delta: int
) -> ThreeColorResult:
    """3-color g so that every monochromatic component has at most
    ``constants.g`` vertices.

    ``delta`` must bound the maximum degree; the constants are computed for
    the measured layered width. Stage failures keep their exception types
    but name the stage and layer; the final clustering is measured and
    checked before returning.
    """
    ly = ltd.layering
    td = ltd.td
    # The whole input is validated once; the index that check builds (each
    # vertex's nodes, each node's depth and parent from the root) serves
    # every layer. The views keep these original depths, so their bands
    # match the whole tree's.
    checked = validate_tree_decomposition(g, td)
    checked.require(InvalidDecomposition)
    validate_layering(g, ly).require(InvalidLayering)
    w_eff = max(1, layered_width(ltd))
    holders, depth, parent = checked.holders, checked.depth, checked.parent
    if g.max_degree() > delta:
        raise ValueError(
            f"graph degree {g.max_degree()} exceeds declared bound {delta}"
        )
    d_eff = max(1, delta)
    constants = compute_constants(w_eff, d_eff)
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
    # is colored first, so it has no colored neighbors and takes no groups.
    stages = (
        (1, (1, 2), d_eff, GroupBudget(0, 0, 0)),
        (2, (2, 3), constants.delta2, budget2),
        (3, (1, 3), constants.delta3, budget3),
    )

    coloring: dict[int, int] = {}
    # Monochromatic components of each colored layer, as original ids,
    # keyed by (layer index, final color).
    comps: dict[tuple[int, int], list[frozenset[int]]] = {}
    # For each vertex an enlargement poured into bags, the group subtrees it
    # was poured into (shared, not copied).
    poured: dict[int, list[frozenset[int]]] = {}
    fake_edges = {cls: 0 for cls, *_ in stages}

    for cls, palette, degree, budget in stages:
        for li in range(cls, ly.m + 1, 3):
            ids = ly.layer(li)
            if not ids:
                continue
            guards = [
                comp
                for lj in (li - 1, li + 1)
                for color in palette
                for comp in comps.get((lj, color), ())
            ]
            edges, bags, tree_edges, view_depth, groups, pours = _layer_view(
                g, td.bags, holders, parent, depth, poured, ids, guards
            )
            n = len(ids)
            stage = f"stage-{cls} layer {li}"
            # enlarge_lists validates the view, with or without pairs to add.
            try:
                edges, bags = enlarge_lists(n, edges, bags, tree_edges, groups, budget)
                colors, clusters = band_color(n, edges, bags, view_depth, degree)
            except GroupBudgetError as exc:
                raise GroupBudgetError(exc.budget, f"{stage}: {exc}") from exc
            except ClusteringBoundError as exc:
                raise ClusteringBoundError(stage, exc.measured, exc.bound) from exc
            except InternalInvariantError as exc:
                raise InternalInvariantError(f"{stage}: {exc}") from exc
            for v, color in zip(ids, colors):
                coloring[v] = palette[color - 1]
            for color, local_comp in clusters.components:
                comps.setdefault((li, palette[color - 1]), []).append(
                    frozenset(ids[v] for v in local_comp)
                )
            # Pairs repeat across the groups of one layer, never across layers.
            fake_edges[cls] += len(set().union(*(grp.pairs for grp in groups)))
            for ends, subtree in pours:
                for v in ends:
                    poured.setdefault(v, []).append(subtree)

    report = monochromatic_components(g, coloring)
    if report.max_size > constants.g:
        raise ClusteringBoundError("three-color", report.max_size, constants.g)
    return ThreeColorResult(
        coloring=coloring,
        clustering=report.max_size,
        per_color_max=report.per_color_max,
        constants=constants,
        stage2_fake_edges=fake_edges[2],
        stage3_fake_edges=fake_edges[3],
    )
