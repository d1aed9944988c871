"""Separator toolkit for tree-decompositions: tree parts, central nodes,
fences, and fan extraction from parades.

A fence is a set of tree nodes that chops the decomposition into parts,
each of which meets a given vertex set Q in a bounded number of vertices.
Parades are strictly descending chains of tree nodes; a fan is a parade
whose bags agree with the first bag in exactly `level` vertices and are
otherwise pairwise disjoint. These are the combinatorial gadgets the
three-coloring argument uses to keep monochromatic components apart.
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


@dataclass(frozen=True)
class Fan:
    """A descending node sequence whose bags all share exactly ``level``
    vertices with the first bag and are disjoint from each other outside it.

    ``anchor`` is (first node, last node); the shared-vertex and
    disjointness conditions quantify over the elements after the anchor.
    """

    nodes: tuple[int, ...]
    level: int
    anchor: tuple[int, int]


class _Rooted(NamedTuple):
    """The tree's nodes parents first, and each node's parent (-1 at the
    root) and depth."""

    order: list[int]
    parent: list[int]
    depth: list[int]


def _rooted(
    bags: Bags, tree_edges: TreeEdges, root: int = 0, w: int | None = None
) -> _Rooted:
    """Index the tree from ``root`` after checking the tree and connectivity
    axioms, and the width against ``w`` when it is given."""
    width = max(map(len, bags), default=0) - 1
    if w is not None and width > w:
        raise InvalidDecomposition(f"width {width} exceeds declared {w}")
    # The check indexes vertices 0..n-1, so it runs on the bag vertices'
    # ranks, and its witness is mapped back to the vertex it ranks.
    ids = sorted(set().union(*bags))
    rank = {v: i for i, v in enumerate(ids)}
    ranked = [{rank[v] for v in bag} for bag in bags]
    report = check_decomposition(len(ids), (), ranked, tree_edges, root)
    checks = [
        c if c.witness is None else c._replace(witness=ids[c.witness])
        for c in report.checks
        if c.axiom in ("tree", "connectivity")
    ]
    ValidationReport(tuple(checks)).require(InvalidDecomposition)
    order = sorted(range(len(bags)), key=report.depth.__getitem__)
    return _Rooted(order, report.parent, report.depth)


def _check_range(nodes: Iterable[int], count: int, what: str) -> None:
    for t in nodes:
        if not 0 <= t < count:
            raise ValueError(f"{what} {t} out of range")


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
    _check_range(fset, len(bags), "fence node")
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


def n_fan_bound(w: int, k: int) -> int:
    """Parade length that guarantees a fan of size k at width bound w."""
    if w < 0 or k < 1:
        raise ValueError("need w >= 0 and k >= 1")
    value = max(k, 2)
    for _ in range(w):
        value *= (k - 1) * (w + 1)
    return value


def _descends(tree: _Rooted, anc: int, node: int) -> bool:
    """Whether ``node`` is a strict descendant of ``anc``."""
    up = node
    while tree.depth[up] > tree.depth[anc]:
        up = tree.parent[up]
    return up == anc != node


def _is_parade(tree: _Rooted, nodes: Sequence[int]) -> bool:
    return all(_descends(tree, a, b) for a, b in zip(nodes, nodes[1:]))


def is_parade(
    bags: Bags, tree_edges: TreeEdges, nodes: Sequence[int], root: int = 0
) -> bool:
    """Whether each node is a strict descendant of the previous one, in the
    tree rooted at ``root``."""
    _check_range(nodes, len(bags), "parade node")
    return _is_parade(_rooted(bags, tree_edges, root), nodes)


def _fan_rec(
    bags: dict[int, AbstractSet[int]], parade: list[int], w: int, k: int
) -> tuple[list[int], int]:
    if len(parade) < n_fan_bound(w, k):
        raise InternalInvariantError("fan recursion ran out of parade")

    kept: list[int] = []
    kept_union: set[int] = set()
    for t in parade:
        if not (bags[t] & kept_union):
            kept.append(t)
            kept_union |= bags[t]
    if len(kept) >= k:
        return kept[:k], 0
    if w == 0:
        raise InternalInvariantError("disjoint pick failed at width zero")

    # Every parade element intersects some kept bag at or before it, so the
    # kept nodes cover the parade; take the most popular one.
    position = {t: i for i, t in enumerate(parade)}
    best_q = None
    best_members: list[int] = []
    for qnode in kept:
        members = [
            t
            for t in parade[position[qnode]:]
            if bags[t] & bags[qnode]
        ]
        if best_q is None or len(members) > len(best_members):
            best_q = qnode
            best_members = members
    if best_q is None:
        raise InternalInvariantError("no covering node in dense branch")

    by_size: dict[int, list[int]] = {}
    for t in best_members:
        by_size.setdefault(len(bags[t] & bags[best_q]), []).append(t)
    star = max(sorted(by_size), key=lambda a: len(by_size[a]))
    if star > w:
        raise InternalInvariantError("full-bag overlap class was largest")
    sub_parade = by_size[star]

    shared = bags[sub_parade[0]] & bags[best_q]
    for t in sub_parade:
        if bags[t] & bags[best_q] != shared:
            raise InternalInvariantError("overlap class shares no common core")

    stripped = dict(bags)
    for t in sub_parade:
        stripped[t] = bags[t] - shared
    nodes, level = _fan_rec(stripped, sub_parade, w - 1, k)
    return nodes, level + len(shared)


def _verify_fan(bags: Bags, tree: _Rooted, fan: Fan) -> None:
    nodes = fan.nodes
    anchor_bag = bags[nodes[0]]
    if not _is_parade(tree, nodes):
        raise InternalInvariantError("fan nodes are not strictly descending")
    if not all(_descends(tree, t, nodes[-1]) for t in nodes[:-1]):
        raise InternalInvariantError("fan end left an earlier subtree")
    outside: set[int] = set()
    for t in nodes[1:]:
        if len(bags[t] & anchor_bag) != fan.level:
            raise InternalInvariantError("fan bag overlaps anchor wrongly")
        free = bags[t] - anchor_bag
        if free & outside:
            raise InternalInvariantError("fan bags collide outside the anchor")
        outside |= free


def find_fan(
    bags: Bags,
    tree_edges: TreeEdges,
    parade: Sequence[int],
    w: int,
    k: int,
    root: int = 0,
) -> Fan:
    """Extract a size-k fan from a parade of length at least n_fan_bound(w, k)
    in the tree rooted at ``root``.

    Requires parade bags of size at most w+1 with no later bag contained in
    an earlier one. Greedily picks pairwise-disjoint bags; failing that,
    strips the common overlap with the most-intersected picked bag and
    recurses one width lower, accumulating the overlap into the fan level.
    """
    seq = list(parade)
    if not seq:
        raise ValueError("parade is empty")
    if len(seq) < n_fan_bound(w, k):
        raise ValueError(
            f"parade length {len(seq)} below required {n_fan_bound(w, k)}"
        )
    _check_range(seq, len(bags), "parade node")
    tree = _rooted(bags, tree_edges, root)
    for t in seq:
        if len(bags[t]) > w + 1:
            raise ValueError(f"bag of node {t} larger than {w + 1}")
    if not _is_parade(tree, seq):
        raise ValueError("sequence is not a parade")
    for j in range(len(seq)):
        for i in range(j + 1, len(seq)):
            if bags[seq[i]] <= bags[seq[j]]:
                raise ValueError(
                    f"bag of {seq[i]} contained in earlier bag of {seq[j]}"
                )

    nodes, level = _fan_rec({t: bags[t] for t in seq}, seq, w, k)
    fan = Fan(nodes=tuple(nodes), level=level, anchor=(nodes[0], nodes[-1]))
    if len(fan.nodes) != k or not 0 <= level <= w:
        raise InternalInvariantError("fan has wrong size or level")
    _verify_fan(bags, tree, fan)
    return fan
