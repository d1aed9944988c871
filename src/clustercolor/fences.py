"""Separator toolkit for tree-decompositions: tree parts, central nodes
and fences.

A fence is a set of tree nodes that chops the decomposition into parts,
each of which meets a given vertex set Q in a bounded number of vertices.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalInvariantError, InvalidDecomposition
from .graph import ValidationReport, check_decomposition

Bags = Sequence[AbstractSet[int]]
TreeEdges = Collection[tuple[int, int]]


@dataclass(frozen=True)
class TreePart:
    """A component of the tree minus a fence, widened by the fence nodes
    adjacent to it. ``boundary`` is the fence nodes inside the part."""

    nodes: frozenset[int]
    boundary: frozenset[int]


@dataclass(frozen=True)
class Fence:
    """Fence node set with the width bound and vertex set it was built for.

    Guarantees: every part meets ``q`` in at most 12w+13 vertices, every
    fence node touches at least two parts holding q-vertices beyond its own
    bag, and |nodes| <= max(|q| - 3w - 3, 0).
    """

    nodes: frozenset[int]
    w: int
    q: frozenset[int]


class _Rooted(NamedTuple):
    """The tree's nodes parents first, and each node's parent (-1 at the
    root)."""

    order: list[int]
    parent: list[int]


def _rooted(bags: Bags, tree_edges: TreeEdges, w: int | None = None) -> _Rooted:
    """Index the tree from node 0 after checking the tree and connectivity
    axioms, and the width against ``w`` when it is given."""
    width = max(map(len, bags), default=0) - 1
    if w is not None and width > w:
        raise InvalidDecomposition(f"width {width} exceeds declared {w}")
    # The check indexes vertices 0..n-1, so it runs on the bag vertices'
    # ranks, and its witness is mapped back to the vertex it ranks.
    ids = sorted(set().union(*bags))
    rank = {v: i for i, v in enumerate(ids)}
    ranked = [{rank[v] for v in bag} for bag in bags]
    report = check_decomposition(len(ids), (), ranked, tree_edges)
    checks = [
        c if c.witness is None else c._replace(witness=ids[c.witness])
        for c in report.checks
        if c.axiom in ("tree", "connectivity")
    ]
    ValidationReport(tuple(checks)).require(InvalidDecomposition)
    order = sorted(range(len(bags)), key=report.depth.__getitem__)
    return _Rooted(order, report.parent)


def _bag_union(bags: Bags, nodes: Iterable[int]) -> frozenset[int]:
    out: set[int] = set()
    for t in nodes:
        out |= bags[t]
    return frozenset(out)


def _split(parent: list[int], nodes: list[int], cut: AbstractSet[int]) -> list[list]:
    """Components of a connected part, given parents first, minus ``cut``:
    each parents first, listed by smallest node."""
    comp_of: dict[int, list[int]] = {}
    comps = []
    for t in nodes:
        if t not in cut:
            comp = comp_of.get(parent[t])
            if comp is None:
                comp = []
                comps.append(comp)
            comp.append(t)
            comp_of[t] = comp
    return sorted(comps, key=min)


def _parts(tree: _Rooted, fset: AbstractSet[int]) -> list[TreePart]:
    comps = _split(tree.parent, tree.order, fset)
    where = {t: i for i, comp in enumerate(comps) for t in comp}
    attach: list[set[int]] = [set() for _ in comps]
    for t in tree.order[1:]:
        p = tree.parent[t]
        if (t in fset) != (p in fset):
            inner, outer = (p, t) if t in fset else (t, p)
            attach[where[inner]].add(outer)
    return [
        TreePart(nodes=frozenset(comp).union(near), boundary=frozenset(near))
        for comp, near in zip(comps, attach)
    ]


def f_parts(
    bags: Bags, tree_edges: TreeEdges, fence_nodes: Iterable[int]
) -> list[TreePart]:
    """Parts of the tree relative to a fence node set, by smallest node.

    Each component of tree - fence is extended by the fence nodes adjacent
    to it; the boundary is those fence nodes. An empty fence yields one part
    covering the whole tree.
    """
    fset = frozenset(fence_nodes)
    for t in fset:
        if not 0 <= t < len(bags):
            raise ValueError(f"fence node {t} out of range")
    return _parts(_rooted(bags, tree_edges), fset)


def _central_in(bags: Bags, parent: list[int], nodes: list[int], q: frozenset) -> int:
    """Smallest node of a connected part, given parents first, such that
    every component hanging off it carries, together with its own bag,
    under two thirds of q.

    Each q-vertex is counted once, at its top: the first node of the part
    that holds it. By connectivity a child t's component carries the tops
    below t and the node's bag, and the component above carries the other
    tops and the node's bag, less the q-vertices of the bag topped above.
    """
    seen: set[int] = set()
    own = {}
    for t in nodes:
        tops = (bags[t] & q) - seen
        own[t] = len(tops)
        seen |= tops
    below = dict(own)
    heaviest: dict[int, int] = {}
    for t in reversed(nodes[1:]):
        p = parent[t]
        below[p] += below[t]
        heaviest[p] = max(heaviest.get(p, 0), below[t])
    for c in sorted(nodes):
        size = len(bags[c])
        loads = [heaviest[c] + size] if c in heaviest else []
        if c != nodes[0]:
            loads.append(len(seen) - below[c] + size - len(bags[c] & q) + own[c])
        if all(3 * load < 2 * len(q) for load in loads):
            return c
    raise InternalInvariantError("no central node exists for this vertex set")


def central_node(bags: Bags, tree_edges: TreeEdges, q: Iterable[int], w: int) -> int:
    """Node whose removal leaves every component holding under (2/3)|q|
    of q even after adding the node's own bag. Requires |q| >= 12w+13."""
    qset = frozenset(q)
    tree = _rooted(bags, tree_edges, w=w)
    if len(qset) < 12 * w + 13:
        raise ValueError(f"need at least {12 * w + 13} vertices, got {len(qset)}")
    return _central_in(bags, tree.parent, tree.order, qset)


def _eps_rec(
    bags: Bags, parent: list[int], nodes: list[int], q: frozenset, eps: Fraction, w: int
) -> set[int]:
    if len(q) * eps <= 12 * w + 13:
        return set()
    star = _central_in(bags, parent, nodes, q)
    out = {star}
    for comp in _split(parent, nodes, {star}):
        part = [star] + comp if parent[comp[0]] == star else comp + [star]
        sub_q = (q & _bag_union(bags, part)) | bags[star]
        out |= _eps_rec(bags, parent, part, sub_q, eps, w)
    return out


def _epsilon_fence(
    bags: Bags, tree_edges: TreeEdges, q: frozenset, epsilon: Fraction | int, w: int
) -> tuple[frozenset[int], _Rooted]:
    """``epsilon_fence`` together with the index it built."""
    eps = Fraction(epsilon)
    if w < 0:
        raise ValueError(f"need w >= 0, got {w}")
    if not Fraction(1, w + 1) <= eps <= 1:
        raise ValueError(f"epsilon {eps} outside [1/{w + 1}, 1]")
    tree = _rooted(bags, tree_edges, w=w)
    fence_set = frozenset(_eps_rec(bags, tree.parent, tree.order, q, eps, w))

    if len(fence_set) > max(eps * (len(q) - 3 * w - 3), 0):
        raise InternalInvariantError("fence size bound violated")
    cap = Fraction(12 * w + 13) / eps
    for part in _parts(tree, fence_set):
        load = (q & _bag_union(bags, part.nodes)) | _bag_union(bags, part.boundary)
        if len(load) > cap:
            raise InternalInvariantError("fence part load bound violated")
    return fence_set, tree


def epsilon_fence(
    bags: Bags, tree_edges: TreeEdges, q: Iterable[int], epsilon: Fraction | int, w: int
) -> frozenset[int]:
    """Fence of at most epsilon*(|q|-3w-3) nodes whose parts each carry at
    most (12w+13)/epsilon vertices of q, counting their boundary bags.

    epsilon must lie in [1/(w+1), 1] and is handled as an exact rational.
    Both output bounds are rechecked before returning.
    """
    return _epsilon_fence(bags, tree_edges, frozenset(q), epsilon, w)[0]


def _second_condition_counts(
    bags: Bags, tree: _Rooted, fence_set: set[int], q: frozenset[int]
) -> dict[int, int]:
    """For each fence node, how many parts both touch it and hold q-vertices
    outside its bag."""
    counts = {t: 0 for t in fence_set}
    for part in _parts(tree, fence_set):
        content = q & _bag_union(bags, part.nodes)
        for t in part.boundary:
            if content - bags[t]:
                counts[t] += 1
    return counts


def fence(bags: Bags, tree_edges: TreeEdges, q: Iterable[int], w: int) -> Fence:
    """Minimal fence for q: parts carry at most 12w+13 q-vertices and every
    fence node separates at least two parts with q-content beyond its bag.

    Built by shrinking an epsilon=1 fence: nodes failing the two-part
    condition are deleted in ascending id order until none remain, then all
    three guarantees are verified.
    """
    qset = frozenset(q)
    found, tree = _epsilon_fence(bags, tree_edges, qset, 1, w)
    working = set(found)
    while working:
        counts = _second_condition_counts(bags, tree, working, qset)
        doomed = next((t for t in sorted(working) if counts[t] <= 1), None)
        if doomed is None:
            break
        working.discard(doomed)

    if len(working) > max(len(qset) - 3 * w - 3, 0):
        raise InternalInvariantError("fence size bound violated")
    for part in _parts(tree, working):
        if len(qset & _bag_union(bags, part.nodes)) > 12 * w + 13:
            raise InternalInvariantError("fence part content bound violated")
    counts = _second_condition_counts(bags, tree, working, qset)
    if any(c < 2 for c in counts.values()):
        raise InternalInvariantError("fence minimality condition violated")
    return Fence(nodes=frozenset(working), w=w, q=qset)
