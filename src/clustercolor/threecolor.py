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

The layers of a class lie three or more apart, so no edge joins two of them
and no guard component guards two of them. Each class is therefore colored
in one pass: one view holds all its layers side by side, each layer one
part, and is enlarged, validated and banded once. What the rule sets per
layer stays per layer: the band length, the clustering bound from the
layer's own enlarged width, the group budget, the fake-edge count and the
components that guard the next classes.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
    InvalidLayering,
)
from .graph import (
    ValidationReport,
    _bad_edge,
    _pair_index,
    _tree_index,
    bags_layered_width,
    check_decomposition,
    edge_span,
    layer_index,
)
from .twocolor import (
    CLUSTER_FACTOR,
    EdgeGroup,
    GroupBudget,
    _enlarged,
    band_color,
    cluster_bound,
    enlarge_lists,
)
from .verify import edge_components


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
    """Evaluate the pipeline's constant chain for the given width and
    degree: the stage-2 and stage-3 bounds are those of the enlargement
    lemma (``twocolor._enlarged``) under each stage's group budget."""
    return _constant_chain(width, degree)[0]


def _constant_chain(
    width: int, degree: int
) -> tuple[ThreeColorConstants, GroupBudget, GroupBudget]:
    """The constants with the stage-2 and stage-3 group budgets they come
    from. A stage-2 group guards one stage-1 component, of at most f1
    vertices and so at most f1*d neighbors in the layer; a node's bag meets
    at most w + 1 such components. Stage-3 groups guard components of both
    earlier classes, whose enlarged bags have at most w2 + 1 vertices.
    As implemented, the chain has degree Θ(w^19 Δ^37): g grows by 2^19
    when w doubles and by 2^37 when Δ doubles."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    w, d = width, degree
    f1 = cluster_bound(w, d)
    budget2 = GroupBudget(f1 * f1 * d * d, f1 * d * d, w + 1)
    w2, delta2 = _enlarged(budget2, w, d)
    f2 = cluster_bound(w2, delta2)
    budget3 = GroupBudget(f2 * f2 * d * d, f2 * d * d, 2 * (w2 + 1))
    w3, delta3 = _enlarged(budget3, w, d)
    f3 = cluster_bound(w3, delta3)
    g = (1 + f2 * d) * f3
    constants = ThreeColorConstants(
        width=w, degree=d, cluster_factor=CLUSTER_FACTOR, f1=f1, delta2=delta2,
        w2=w2, f2=f2, delta3=delta3, w3=w3, f3=f3, g=g,
    )
    return constants, budget2, budget3


@dataclass(frozen=True)
class ThreeColorResult:
    """Coloring, in vertex order, with its measured clustering (overall and
    per color), the constants used, the number of fake edges stages 2 and 3
    added, and the number of distinct edges of the colored graph. A fake
    edge is a distinct group pair, counted even when it is already an edge
    of the graph."""

    coloring: dict[int, int]
    clustering: int
    per_color_max: dict[int, int]
    constants: ThreeColorConstants
    stage2_fake_edges: int
    stage3_fake_edges: int
    edge_count: int


class _ClassView(NamedTuple):
    """A layer class as plain lists over the input's tree, for
    ``enlarge_lists`` and ``band_color``. ``ids`` holds the class's
    vertices, layer after layer, each layer ascending; a local id is a
    position in ``ids``. ``edges`` are the class's edges in local ids, and
    ``bags`` the restriction of the input's decomposition to the class: one
    bag per input node, empty where the node holds no class vertex.
    ``groups`` holds the edge groups, layer after layer, and ``parts`` each
    layer's vertex and group ends in ``ids`` and ``groups``; a group is a
    clique on its ends, in local ids, over a subtree of input nodes."""

    ids: list[int]
    edges: list[tuple[int, int]]
    bags: list[set[int]]
    groups: list[EdgeGroup]
    parts: list[tuple[int, int]]


def _class_view(
    adj: Sequence[Sequence[int]],
    holders: Sequence[Sequence[int]],
    nn: int,
    layers: Sequence[tuple[Sequence[int], list[tuple[int, ...]]]],
) -> _ClassView:
    """The view of one layer class over the input's nn nodes, given each of
    its layers as its sorted vertices and the guard components of its
    colored neighbor layers.

    The layers of a class lie three or more apart, so no edge joins two of
    them and no guard component has neighbors in two; the view is the
    disjoint union of the layers' own views, each layer one part.
    ``holders`` gives each vertex's nodes, including for a colored layer's
    vertex the nodes whose bags it was poured into. Each guard component
    with at least two neighbors in its layer gives one group: the clique on
    those neighbors, and as subtree the nodes whose (possibly enlarged) bags
    meet the component, those holding one of its vertices, which hold each
    neighbor with it. Restricting every bag to the class keeps each of its
    vertices' node sets whole, so the view's bags over the input's tree are
    a decomposition of the class.
    """
    ids = [v for layer, _ in layers for v in layer]
    # Each vertex's local id, -1 off the class. No edge joins two layers of
    # the class and each layer is ascending, so an edge (i, j) with i < j
    # is found once, from i, and has ids[i] < ids[j].
    local_id = [-1] * len(adj)
    for i, v in enumerate(ids):
        local_id[v] = i
    edges = [
        (i, j) for i, v in enumerate(ids) for u in adj[v] if (j := local_id[u]) > i
    ]
    bags: list[set[int]] = [set() for _ in range(nn)]
    for i, v in enumerate(ids):
        for t in holders[v]:
            bags[t].add(i)
    groups = []
    parts = []
    end = 0
    for layer, guards in layers:
        for comp in sorted(guards, key=min):
            # The class vertices among the component's neighbors, all in
            # this layer since the class's other layers lie farther away.
            ends = {local_id[u] for c in comp for u in adj[c]}
            ends.discard(-1)
            if len(ends) >= 2:
                subtree = frozenset(t for c in comp for t in holders[c])
                groups.append(EdgeGroup(subtree, tuple(sorted(ends))))
        end += len(layer)
        parts.append((end, len(groups)))
    return _ClassView(ids, edges, bags, groups, parts)


def _stage(cls: int, layers: Sequence[int], part: int | None) -> str:
    """The name of class ``cls``'s stage, and of the layer that is the given
    part of its view, when there is one."""
    return f"stage-{cls}" if part is None else f"stage-{cls} layer {layers[part]}"


def three_color_lists(
    n: int,
    edges: Iterable[tuple[int, int]],
    bags: Sequence[AbstractSet[int]],
    tree_edges: Collection[tuple[int, int]],
    rows: Sequence[Sequence[int]],
    root: int = 0,
) -> ThreeColorResult:
    """3-color the graph on 0..n-1 so that every monochromatic component has
    at most ``constants.g`` vertices, over plain lists: the graph by its
    edge lines (either orientation, repeats allowed), one bag per node, the
    tree by its distinct node pairs (no self-loops), and the layering by its
    rows, layer i being ``rows[i - 1]`` in any order.

    The input is validated first. Rows that are not disjoint or do not
    cover 0..n-1 exactly raise InvalidLayering before anything is sized by
    n. Then an edge line that is a self-loop or leaves 0..n-1 raises
    ValueError, an invalid decomposition (a tree pair or root that names no
    node fails the tree axiom) InvalidDecomposition, and an edge joining
    layers two or more apart InvalidLayering.
    The constants are computed for the measured layered width and maximum
    degree. Stage failures keep their exception types but name the stage
    and the lowest failing layer of the class (a fault that no layer owns
    names the stage alone); the final clustering is measured and checked
    before returning.
    Every class is colored over the input's own tree, indexed and searched
    from the root once. Once a layer is colored, each vertex poured into an
    enlarged bag gains that bag's node among its nodes (``holders``).
    """
    # Graph's pair index over the edge lines, the tree index and one pass
    # over the bags build what every class shares: each vertex's neighbors
    # and nodes, and each node's neighbors and depth from the root.
    partition = layer_index(n, rows)[1]
    ValidationReport((partition,)).require(InvalidLayering)
    # The rows cover 0..n-1: the layers as a list indexed by vertex.
    layer_of = [0] * n
    for i, row in enumerate(rows, start=1):
        for v in row:
            layer_of[v] = i
    edges, adj = _pair_index(n, edges, _bad_edge)
    index = _tree_index(len(bags), tree_edges, root)
    checked = check_decomposition(n, edges, bags, tree_edges, root, index)
    checked.require(InvalidDecomposition)
    ValidationReport((edge_span(edges, layer_of),)).require(InvalidLayering)
    w_eff = max(1, bags_layered_width(bags, layer_of))
    holders = checked.holders
    d_eff = max(1, max(map(len, adj), default=0))
    constants, budget2, budget3 = _constant_chain(w_eff, d_eff)
    # Per class: palette (local colors 1 and 2 map to its entries), degree
    # bound of the guarded layer, and budget for its edge groups. Class 1
    # is colored first, so it has no colored neighbors and takes no groups.
    stages = (
        (1, (1, 2), d_eff, GroupBudget(0, 0, 0)),
        (2, (2, 3), constants.delta2, budget2),
        (3, (1, 3), constants.delta3, budget3),
    )

    coloring = [0] * n
    # The guard components of each layer, as original ids, by layer index:
    # a colored layer's component in a color that a later class's palette
    # shares guards the one neighbor layer of that class. Those of the first
    # and last layers may aim at the absent layers 0 and len(rows) + 1.
    guards: list[list[tuple[int, ...]]] = [[] for _ in range(len(rows) + 2)]
    fake_edges = {cls: 0 for cls, *_ in stages}

    for k, (cls, palette, degree, budget) in enumerate(stages):
        lis = [li for li in range(cls, len(rows) + 1, 3) if rows[li - 1]]
        if not lis:
            continue
        # The color this class shares with each later class, and the step
        # from a layer of this class to that class's neighbor layer: +1 to
        # the next class, -1 to the one after it.
        step = {
            color: 1 if later == cls % 3 + 1 else -1
            for later, other, *_ in stages[k + 1 :]
            for color in palette
            if color in other
        }
        guarded = [(sorted(rows[li - 1]), guards[li]) for li in lis]
        view = _class_view(adj, holders, len(bags), guarded)
        ids, ends = view.ids, [end for end, _ in view.parts]
        # enlarge_lists validates the view, with or without pairs to add.
        try:
            view_edges, view_bags, pairs = enlarge_lists(
                len(ids), view.edges, view.bags, tree_edges, view.groups,
                budget, view.parts, index,
            )
            colors, clusters = band_color(
                len(ids), view_edges, view_bags, index.depth, degree, ends
            )
        except GroupBudgetError as exc:
            stage = _stage(cls, lis, exc.part)
            raise GroupBudgetError(exc.budget, f"{stage}: {exc.detail}") from exc
        except ClusteringBoundError as exc:
            witness = tuple(ids[v] for v in exc.witness)
            stage = _stage(cls, lis, exc.part)
            raise ClusteringBoundError(stage, witness, exc.bound) from exc
        except InternalInvariantError as exc:
            stage = _stage(cls, lis, exc.part)
            raise InternalInvariantError(f"{stage}: {exc}") from exc
        for v, color in zip(ids, colors):
            coloring[v] = palette[color - 1]
        for color, local_comp in clusters.components:
            if (d := step.get(palette[color - 1])) is not None:
                comp = tuple(map(ids.__getitem__, local_comp))
                guards[layer_of[comp[0]] + d].append(comp)
        fake_edges[cls] = pairs
        # The later layers this class guards see its enlarged bags: each
        # vertex new in a bag gains its node. The last class guards none,
        # and a class that added no pair keeps its view's own bags.
        if step and pairs:
            for t, (old, new) in enumerate(zip(view.bags, view_bags)):
                if len(new) > len(old):
                    for v in new.difference(old):
                        holders[ids[v]].append(t)
        # Free this class's lists before the next class's are built.
        del view, view_edges, view_bags, colors, clusters

    report = edge_components(n, edges, coloring)
    if report.max_size > constants.g:
        raise ClusteringBoundError("three-color", report.largest(), constants.g)
    return ThreeColorResult(
        coloring=dict(enumerate(coloring)),
        clustering=report.max_size,
        per_color_max=report.per_color_max,
        constants=constants,
        stage2_fake_edges=fake_edges[2],
        stage3_fake_edges=fake_edges[3],
        edge_count=len(edges),
    )
