"""Differential corpus: seeded instances run through ``three_color_lists``,
each summed up in one line.

A colored instance's line holds the SHA-256 of the ``.coloring`` text that
``color3`` writes for it, its clustering and its stage-2 and stage-3
fake-edge counts; a refused instance's line holds the exception type and
its message. ``test_corpus.py`` rebuilds the lines and compares them with
``corpus_digests.txt``. Rewriting that file is a deliberate act, done with

    PYTHONPATH=src python3 tests/corpus.py > tests/corpus_digests.txt

and its diff shows which instances moved.
"""

import hashlib
import random
from pathlib import Path

from clustercolor import (
    bfs_layering,
    gen_grid,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
    three_color_lists,
)
from helpers import (
    branching,
    folded_path,
    lists_of,
    nodes_permuted,
    permuted,
    random_decomposition,
    rerooted,
    spine_path,
)

DIGESTS = Path(__file__).resolve().parent / "corpus_digests.txt"


def families():
    """Every generator at small sizes."""
    for n in range(1, 9):
        yield f"grid-{n}", gen_grid(n)
        yield f"trigrid-{n}", gen_grid(n, triangulated=True)
    yield "trigrid-12", gen_grid(12, triangulated=True)
    for rows in range(1, 5):
        for cols in (1, 2, 5, 12):
            yield f"rect-{rows}x{cols}", gen_rect_grid(rows, cols)
    for n in (1, 2, 3, 10, 40):
        yield f"path-{n}", gen_path(n)
    for s, t in ((1, 1), (1, 4), (2, 3), (3, 3), (2, 6)):
        yield f"kst-{s}-{t}", gen_kst_instance(s, t)


def perturbations():
    """The reshaped instances of the golden tests, at smaller sizes."""
    bases = {
        "grid-6": gen_grid(6)[:2],
        "trigrid-8": gen_grid(8, triangulated=True)[:2],
        "rect-4x12": gen_rect_grid(4, 12)[:2],
        "path-30": gen_path(30)[:2],
    }
    for name, base in bases.items():
        for seed in (1, 2):
            yield f"{name}-permuted-{seed}", permuted(*base, seed=seed)
        yield f"{name}-rerooted", rerooted(*base)
        grown = branching(*rerooted(*base))
        yield f"{name}-branching", grown
        for seed in (3, 4):
            yield f"{name}-nodes-permuted-{seed}", nodes_permuted(*grown, seed=seed)
    for n in (9, 40, 41):
        yield f"path-{n}-folded", folded_path(n)


def random_instances(count=100, seed=17):
    """Seeded random decompositions, layered by distance from vertex 0, in
    turn as they are, with vertex 0 added to every bag, and as one layer."""
    rng = random.Random(seed)
    for i in range(count):
        g, td = random_decomposition(rng, max_nodes=30, max_bag=4)
        bags, rows = td.bags, bfs_layering(g, [0]).layers if g.n else ()
        shape = ("plain", "spanning", "one-layer")[i % 3]
        if g.n and shape == "spanning":
            bags = [bag | {0} for bag in bags]
        if g.n and shape == "one-layer":
            rows = [tuple(range(g.n))]
        yield f"random-{i}-{shape}", (g.n, g.edges, bags, td.edges, rows, td.root)


def broken_instances(count=12, seed=29):
    """Inputs that break one rule each: a fixed list on the triangulated
    4-grid, then seeded random decompositions with one corruption each."""
    grid = gen_grid(4, triangulated=True)
    n, edges, bags, tree_edges, rows, root = lists_of(*grid[:2])
    last = len(bags) - 1
    yield "broken-self-loop", (n, [*edges, (3, 3)], bags, tree_edges, rows, root)
    yield "broken-edge-range", (n, [*edges, (0, n)], bags, tree_edges, rows, root)
    yield "broken-root", (n, edges, bags, tree_edges, rows, last + 1)
    yield "broken-no-bags", (n, edges, [], [], rows, root)
    yield "broken-tree-cycle", (n, edges, bags, [*tree_edges, (0, last)], rows, root)
    yield "broken-tree-split", (n, edges, bags, sorted(tree_edges)[1:], rows, root)
    uncovered = [bag - {5} for bag in bags]
    yield "broken-uncovered-vertex", (n, edges, uncovered, tree_edges, rows, root)
    split = [*bags[:-1], bags[-1] | {0}]
    yield "broken-connectivity", (n, edges, split, tree_edges, rows, root)
    stray = [*bags[:-1], bags[-1] | {n}]
    yield "broken-bag-stray", (n, edges, stray, tree_edges, rows, root)
    yield "broken-layer-twice", (n, edges, bags, tree_edges, [*rows, (0,)], root)
    yield "broken-layer-missing", (n, edges, bags, tree_edges, rows[:-1], root)
    swapped = [rows[1], rows[0], *rows[2:]]
    yield "broken-layer-span", (n, edges, bags, tree_edges, swapped, root)

    rng = random.Random(seed)
    for i in range(count):
        g, td = random_decomposition(rng, max_nodes=12, max_bag=4)
        bags, tree_edges = list(td.bags), list(td.edges)
        rows = bfs_layering(g, [0]).layers if g.n else ()
        kind = ("drop-bag-vertex", "drop-tree-edge", "drop-layer", "extra-edge")[i % 4]
        if kind == "drop-bag-vertex" and any(bags):
            t = rng.choice([t for t, bag in enumerate(bags) if bag])
            bags[t] = bags[t] - {rng.choice(sorted(bags[t]))}
        elif kind == "drop-tree-edge" and tree_edges:
            tree_edges.pop(rng.randrange(len(tree_edges)))
        elif kind == "drop-layer" and rows:
            rows = rows[:-1]
        elif kind == "extra-edge" and g.n >= 2:
            edges = [*g.edges, tuple(rng.sample(range(g.n), 2))]
            yield f"broken-random-{i}-{kind}", (g.n, edges, bags, tree_edges, rows, td.root)
            continue
        yield f"broken-random-{i}-{kind}", (g.n, g.edges, bags, tree_edges, rows, td.root)


def halin(depth):
    """The Halin graph of a complete binary tree of the given depth (heap
    ids) with a path through its leaves, one layer, over the width-5
    decomposition on the tree itself: node x holds x and its parent, the
    leftmost and rightmost leaf below x, the rightmost leaf below its left
    child and the leftmost leaf below its right child."""
    inner = 2 ** depth - 1
    n = 2 * inner + 1

    def leaf(x, side):
        while x < inner:
            x = 2 * x + side
        return x

    edges = [(x, 2 * x + side) for x in range(inner) for side in (1, 2)]
    edges += [(x, x + 1) for x in range(inner, n - 1)]
    bags = []
    for x in range(n):
        bag = {x, (x - 1) // 2 if x else x, leaf(x, 1), leaf(x, 2)}
        if x < inner:
            bag |= {leaf(2 * x + 1, 2), leaf(2 * x + 2, 1)}
        bags.append(frozenset(bag))
    tree_edges = [((t - 1) // 2, t) for t in range(1, n)]
    return n, edges, bags, tree_edges, [tuple(range(n))], 0


def spine_cycle(n):
    """The n-cycle, one layer, over the path of bags {0, i, i + 1}."""
    cycle = [(i, (i + 1) % n) for i in range(n)]
    spine = [frozenset({0, i, i + 1}) for i in range(1, n - 1)]
    chain = [(t, t + 1) for t in range(n - 3)]
    return n, cycle, spine, chain, [tuple(range(n))], 0


def spanning_rect(cols):
    """The 6 x cols rect grid, one row per layer, with vertex 0 added to
    every bag of its decomposition."""
    n, edges, bags, tree_edges, _, root = lists_of(*gen_rect_grid(6, cols)[:2])
    rows = [tuple(range(r * cols, (r + 1) * cols)) for r in range(6)]
    return n, edges, [bag | {0} for bag in bags], tree_edges, rows, root


def refusals():
    """The valid inputs that banding refuses, one row each."""
    yield "spine-path-40", lists_of(*spine_path(40))
    yield "cycle-40-one-layer", spine_cycle(40)
    yield "rect-6x300-rows-spanning", spanning_rect(300)
    for depth in (7, 9):
        yield f"halin-{depth}", halin(depth)


def instances():
    """(name, three_color_lists arguments) for every corpus instance."""
    for name, built in (*families(), *perturbations()):
        yield name, lists_of(*built[:2])
    yield from random_instances()
    yield from broken_instances()
    yield from refusals()


def outcome(args):
    """One instance's coloring digest or refusal."""
    try:
        result = three_color_lists(*args)
    except (ValueError, RuntimeError) as exc:
        return f"refused {type(exc).__name__}: {exc}"
    text = "".join(f"{v} {c}\n" for v, c in sorted(result.coloring.items()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return (
        f"colored {digest} {result.clustering} "
        f"{result.stage2_fake_edges} {result.stage3_fake_edges}"
    )


def digest_lines():
    return [f"{name} {outcome(args)}" for name, args in instances()]


if __name__ == "__main__":
    print("\n".join(digest_lines()))
