import hashlib
import random
from collections import deque
from fractions import Fraction

import pytest

from clustercolor import InvalidDecomposition, TreeDecomposition
from clustercolor.fences import (
    central_node,
    epsilon_fence,
    f_parts,
    fence,
)

from helpers import random_decomposition

# SHA-256 of _fence_outputs(): every fence and epsilon-fence on the seeded
# corpus. A change that moves any of them moves this digest.
FENCE_DIGEST = "05b91d1bc57cc310bbe39ef8af8ca14bea776a318e31764d618c2cde696319ae"


def _singleton_path(n):
    return TreeDecomposition(
        [frozenset({i}) for i in range(n)], [(i, i + 1) for i in range(n - 1)]
    )


def _bag_union(td, nodes):
    out = set()
    for t in nodes:
        out |= td.bags[t]
    return out


def _parents(td):
    parent = {td.root: None}
    queue = deque([td.root])
    while queue:
        t = queue.popleft()
        for u in td.node_neighbors(t):
            if u not in parent:
                parent[u] = t
                queue.append(u)
    return parent


def test_f_parts_shapes():
    td = _singleton_path(5)
    whole = f_parts(td.bags, td.edges, [])
    assert len(whole) == 1
    assert whole[0].nodes == frozenset(range(5))
    assert whole[0].boundary == frozenset()

    parts = f_parts(td.bags, td.edges, [2])
    assert len(parts) == 2
    for part in parts:
        assert 2 in part.nodes
        assert part.boundary == frozenset({2})
    assert frozenset().union(*(p.nodes for p in parts)) == frozenset(range(5))

    for node in (9, -1):
        with pytest.raises(ValueError, match=f"^fence node {node} out of range$"):
            f_parts(td.bags, td.edges, [node])


def test_central_node_single_node_tree():
    td = TreeDecomposition([frozenset({0})])
    assert central_node(td.bags, td.edges, range(100, 113), 0) == 0


def test_central_node_balances_a_path():
    td = _singleton_path(21)
    q = frozenset(range(21))
    center = central_node(td.bags, td.edges, q, 0)
    for comp_nodes in (range(center), range(center + 1, 21)):
        carried = (q & _bag_union(td, comp_nodes)) | td.bags[center]
        assert 3 * len(carried) < 2 * len(q)


def test_central_node_preconditions():
    td = _singleton_path(21)
    with pytest.raises(ValueError):
        central_node(td.bags, td.edges, range(12), 0)
    with pytest.raises(InvalidDecomposition):
        central_node([frozenset({0, 1})], [], range(13), 0)


def test_epsilon_fence_small_q_is_empty():
    td = _singleton_path(10)
    assert epsilon_fence(td.bags, td.edges, range(10), 1, 0) == frozenset()


def test_epsilon_fence_splits_large_q():
    td = _singleton_path(40)
    q = frozenset(range(40))
    f = epsilon_fence(td.bags, td.edges, q, 1, 0)
    assert f
    for part in f_parts(td.bags, td.edges, f):
        load = (q & _bag_union(td, part.nodes)) | _bag_union(td, part.boundary)
        assert len(load) <= 13


def test_epsilon_fence_fractional_epsilon():
    td = _singleton_path(60)
    q = frozenset(range(60))
    f = epsilon_fence(td.bags, td.edges, q, Fraction(1, 2), 1)
    assert len(f) <= Fraction(1, 2) * (60 - 6)
    for part in f_parts(td.bags, td.edges, f):
        load = (q & _bag_union(td, part.nodes)) | _bag_union(td, part.boundary)
        assert len(load) <= Fraction(25) / Fraction(1, 2)


def test_epsilon_fence_rejects_bad_epsilon():
    td = _singleton_path(5)
    with pytest.raises(ValueError):
        epsilon_fence(td.bags, td.edges, range(5), Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        epsilon_fence(td.bags, td.edges, range(5), 2, 0)


def _check_fence(td, result):
    q = result.q
    w = result.w
    assert len(result.nodes) <= max(len(q) - 3 * w - 3, 0)
    parts = f_parts(td.bags, td.edges, result.nodes)
    for part in parts:
        assert len(q & _bag_union(td, part.nodes)) <= 12 * w + 13
    if q:
        for t in result.nodes:
            crossing = 0
            for part in parts:
                if t in part.boundary and (q & _bag_union(td, part.nodes)) - td.bags[t]:
                    crossing += 1
            assert crossing >= 2


def test_fence_on_long_path():
    td = _singleton_path(50)
    result = fence(td.bags, td.edges, range(50), 0)
    assert result.nodes
    _check_fence(td, result)


def test_fence_empty_and_small_q():
    td = _singleton_path(20)
    assert fence(td.bags, td.edges, [], 0).nodes == frozenset()
    small = fence(td.bags, td.edges, range(5), 0)
    assert small.nodes == frozenset()
    _check_fence(td, small)


def test_fence_random_instances():
    rng = random.Random(53)
    done = 0
    while done < 60:
        g, td = random_decomposition(rng, max_nodes=20, max_bag=3)
        universe = sorted(_bag_union(td, range(td.node_count)))
        if not universe:
            continue
        q = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
        w = max(td.width(), 0)
        result = fence(td.bags, td.edges, q, w)
        _check_fence(td, result)
        done += 1


def _components(parent, nodes):
    """Components of the tree on ``nodes``, each as the set of nodes that
    climb to the same highest ancestor inside ``nodes``, by smallest node."""
    tops = {}
    for t in nodes:
        top = t
        while parent[top] in nodes:
            top = parent[top]
        tops.setdefault(top, set()).add(t)
    return sorted(tops.values(), key=min)


def _reference_central(td, q):
    """The smallest node whose every component of the tree minus it carries,
    together with its bag, under two thirds of q."""
    parent = _parents(td)
    everything = set(range(td.node_count))
    for c in range(td.node_count):
        carried = (
            len((q & _bag_union(td, comp)) | td.bags[c])
            for comp in _components(parent, everything - {c})
        )
        if all(3 * size < 2 * len(q) for size in carried):
            return c
    return None


def _reference_parts(td, fence_nodes):
    """(nodes, boundary) of each component of the tree minus the fence,
    widened by the fence nodes next to it, by smallest node."""
    parent = _parents(td)
    out = []
    for comp in _components(parent, set(range(td.node_count)) - fence_nodes):
        attach = {f for f in fence_nodes if parent[f] in comp}
        attach |= {parent[t] for t in comp if parent[t] in fence_nodes}
        out.append((frozenset(comp | attach), frozenset(attach)))
    return out


def _fence_corpus():
    """Seeded valid decompositions, each with a vertex set and a width bound
    at or above the width."""
    rng = random.Random(2003)
    for _ in range(240):
        g, td = random_decomposition(
            rng, max_nodes=rng.choice((10, 60, 200)), max_bag=rng.randint(1, 3)
        )
        universe = sorted(_bag_union(td, range(td.node_count)))
        q = rng.sample(universe, rng.randint(len(universe) // 2, len(universe)))
        yield td, q, max(td.width(), 0) + (rng.random() < 0.2)


def _random_parade(rng, w, path_length, parade_length):
    """A path of nodes whose bags each keep up to w vertices of the previous
    bag and add fresh ones, up to w + 1, with decoy leaves hanging off it;
    the parade is a random descending choice of path nodes."""
    bags = [frozenset({0})]
    fresh = 1
    for _ in range(path_length - 1):
        previous = sorted(bags[-1])
        bag = set(rng.sample(previous, rng.randint(0, min(w, len(previous)))))
        bag.add(fresh)
        fresh += 1
        while len(bag) < w + 1 and rng.random() < 0.5:
            bag.add(fresh)
            fresh += 1
        bags.append(frozenset(bag))
    edges = [(i, i + 1) for i in range(path_length - 1)]
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(path_length)
        edges.append((at, len(bags)))
        bags.append(frozenset({fresh}) | frozenset(sorted(bags[at])[:w]))
        fresh += 1
    parade = tuple(sorted(rng.sample(range(path_length), parade_length)))
    return TreeDecomposition(bags, edges), parade


def test_central_node_and_parts_match_brute_force():
    """On random trees and on paths; q is padded with ids that no bag holds
    up to the 12w + 13 vertices that central_node requires."""
    rng = random.Random(2009)
    for _ in range(150):
        if rng.random() < 0.5:
            g, td = random_decomposition(rng, max_nodes=120, max_bag=rng.randint(1, 3))
        else:
            td, _ = _random_parade(rng, rng.randint(0, 2), rng.randint(1, 80), 1)
        w = max(td.width(), 0)
        need = 12 * w + 13
        universe = sorted(_bag_union(td, range(td.node_count)))
        size = rng.randint(min(len(universe), need), len(universe))
        q = set(rng.sample(universe, size))
        q |= set(range(-1, -1 - max(0, need - len(q)), -1))
        q = frozenset(q)
        assert central_node(td.bags, td.edges, q, w) == _reference_central(td, q)
        fence_nodes = frozenset(
            rng.sample(range(td.node_count), rng.randint(0, td.node_count))
        )
        parts = f_parts(td.bags, td.edges, fence_nodes)
        assert [(p.nodes, p.boundary) for p in parts] == _reference_parts(
            td, fence_nodes
        )


def _fence_outputs():
    lines = []
    for td, q, w in _fence_corpus():
        lines.append(
            repr(
                (
                    sorted(fence(td.bags, td.edges, q, w).nodes),
                    sorted(epsilon_fence(td.bags, td.edges, q, 1, w)),
                    sorted(epsilon_fence(td.bags, td.edges, q, Fraction(1, w + 1), w)),
                )
            )
        )
    return "\n".join(lines)


def test_fence_outputs_are_pinned():
    """Fence outputs on a seeded corpus, pinned by digest."""
    digest = hashlib.sha256(_fence_outputs().encode()).hexdigest()
    assert digest == FENCE_DIGEST


def test_central_node_is_linear_on_a_long_path():
    """Each read of a bag counts its size as elements visited (set
    operations in C bypass a bag's own iterator). Searching the tree again
    for every candidate node reads about n^2/3 bags on a path."""
    work = [0]

    class CountingBags(tuple):
        def __getitem__(self, t):
            bag = tuple.__getitem__(self, t)
            work[0] += len(bag)
            return bag

        def __iter__(self):
            for bag in tuple.__iter__(self):
                work[0] += len(bag)
                yield bag

    n = 2000
    bags = CountingBags(frozenset({i}) for i in range(n))
    center = central_node(bags, [(i, i + 1) for i in range(n - 1)], range(n), 0)
    assert center == 667
    assert work[0] <= 16 * n


def test_fence_rejects_negative_width():
    td = _singleton_path(5)
    with pytest.raises(ValueError, match="w >= 0"):
        epsilon_fence(td.bags, td.edges, range(5), 1, -1)
    with pytest.raises(ValueError, match="w >= 0"):
        fence(td.bags, td.edges, range(5), -1)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 2)], "connectivity axiom fails at vertex 0"),
        ([(0, 1), (1, 2), (0, 2)], "tree axiom fails"),
    ],
)
def test_fences_refuse_non_decompositions(edges, message):
    """Bags {0}, {1}, {0}: vertex 0 sits on two nodes that the path does not
    join; with a third tree edge, the nodes form a cycle."""
    bags = [frozenset({0}), frozenset({1}), frozenset({0})]
    calls = [
        lambda: central_node(bags, edges, range(13), 0),
        lambda: epsilon_fence(bags, edges, range(13), 1, 0),
        lambda: fence(bags, edges, range(13), 0),
        lambda: f_parts(bags, edges, [1]),
    ]
    expected = f"^invalid decomposition: {message}$"
    for call in calls:
        with pytest.raises(InvalidDecomposition, match=expected):
            call()


def test_fences_name_the_original_vertex():
    """The witness is the vertex as the bags give it, not its rank."""
    bags = [frozenset({7}), frozenset({10**6}), frozenset({7})]
    with pytest.raises(
        InvalidDecomposition,
        match="^invalid decomposition: connectivity axiom fails at vertex 7$",
    ):
        central_node(bags, [(0, 1), (1, 2)], range(13), 0)


def test_decomposition_check_is_sized_by_the_distinct_bag_vertices(monkeypatch):
    """Two bags holding 0 and 10**6 index two vertices, not 10**6 + 1."""
    from clustercolor import fences

    sizes = []
    check = fences.check_decomposition

    def sized(n, *args):
        sizes.append(n)
        return check(n, *args)

    monkeypatch.setattr(fences, "check_decomposition", sized)
    bags = [frozenset({0}), frozenset({10**6})]
    assert central_node(bags, [(0, 1)], range(13), 0) in (0, 1)
    assert sizes and max(sizes) <= 2
