"""Release gate: one test per advertised guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming the criterion
it checks, then asserts the individual conditions so failures point at
the exact broken guarantee. Limits (trial counts, time budgets, bound
values) are pinned here on purpose; loosening them is a release decision,
not a test fix.
"""

import random
import time

from clustercolor import (
    Graph,
    Layering,
    TreeDecomposition,
    check_decomposition,
    cluster_bound,
    compute_constants,
    enlarge_lists,
    gen_grid,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
    three_color_lists,
    trigrid_path_oracle,
    two_color_bounded_treewidth,
)
from clustercolor.graph import bags_layered_width, edge_span, layer_index
from clustercolor import pace

from helpers import lists_of, random_decomposition, random_groups


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail}")


def test_criterion_01_trigrid_clustering_plateau():
    start = time.perf_counter()
    try:
        values = {}
        for n in (10, 20, 30, 40):
            g, ltd, _ = gen_grid(n, triangulated=True)
            values[n] = three_color_lists(*lists_of(g, ltd)).clustering
    except Exception as exc:
        _report(1, False, f"raised {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    bound = compute_constants(2, 6).g
    plateau = values[20] == values[30] == values[40]
    under = all(v <= bound for v in values.values())
    ok = plateau and under and elapsed < 60.0
    _report(1, ok, f"trigrid clustering {values} in {elapsed:.1f}s")
    assert plateau, values
    assert under, values
    assert elapsed < 60.0


def test_criterion_02_palette_respects_layer_classes():
    allowed = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    instances = [
        gen_grid(6),
        gen_grid(9),
        gen_grid(6, triangulated=True),
        gen_grid(9, triangulated=True),
        gen_path(8),
        gen_path(21),
        gen_kst_instance(2, 3),
        gen_kst_instance(1, 4),
    ]
    try:
        violations = 0
        for g, ltd, _ in instances:
            result = three_color_lists(*lists_of(g, ltd))
            ly = ltd.layering
            assert set().union(*ly.layers) == set(g.vertices())
            layer_of = layer_index(g.n, ly.layers)[0]
            for v, i in layer_of.items():
                if result.coloring[v] not in allowed[(i - 1) % 3 + 1]:
                    violations += 1
    except Exception as exc:
        _report(2, False, f"raised {type(exc).__name__}: {exc}")
        raise
    _report(
        2,
        violations == 0,
        f"{violations} palette violations over {len(instances)} instances",
    )
    assert violations == 0


def test_criterion_03_enlargement_stays_within_budget():
    rng = random.Random(11)
    try:
        for _ in range(200):
            g, td = random_decomposition(rng)
            groups, budget = random_groups(rng, g, td)
            edges, bags, _ = enlarge_lists(
                g.n, g.edges, td.bags, td.edges, groups, budget
            )
            g2, td2 = Graph(g.n, edges), TreeDecomposition(bags, td.edges)
            assert check_decomposition(g2.n, g2.edges, td2.bags, td2.edges).ok
            growth = 2 * budget.max_groups_per_node * budget.max_pairs_per_group
            assert td2.width() <= td.width() + growth
            assert g2.max_degree() <= g.max_degree() + budget.max_pair_uses_per_vertex
            assert set(g.edges) <= set(g2.edges)
    except Exception as exc:
        _report(3, False, f"raised {type(exc).__name__}: {exc}")
        raise
    _report(3, True, "200 randomized enlargements within width/degree budgets")


def test_criterion_07_triangulated_grid_path_oracle():
    start = time.perf_counter()
    try:
        results = {n: trigrid_path_oracle(n) for n in (2, 3, 4)}
    except Exception as exc:
        _report(7, False, f"raised {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and elapsed < 60.0
    _report(7, ok, f"oracle {results} in {elapsed:.1f}s")
    assert all(results.values()), results
    assert elapsed < 60.0


def test_criterion_10_two_coloring_of_wide_strips():
    try:
        values = {}
        colors = set()
        for cols in (50, 200):
            g, ltd, _ = gen_rect_grid(3, cols)
            coloring, measured = two_color_bounded_treewidth(g, ltd.td)
            values[cols] = measured
            colors |= set(coloring.values())
        bound = cluster_bound(3, 4)
    except Exception as exc:
        _report(10, False, f"raised {type(exc).__name__}: {exc}")
        raise
    ok = (
        bound == 64
        and values[50] == values[200]
        and values[200] <= bound
        and colors <= {1, 2}
    )
    _report(10, ok, f"3xn strips cluster at {values} <= {bound} with colors {sorted(colors)}")
    assert bound == 64
    assert values[50] == values[200], values
    assert values[200] <= bound
    assert colors <= {1, 2}


def test_criterion_11_file_formats_round_trip_exactly():
    suite = [
        ("grid", gen_grid(5), 2),
        ("trigrid", gen_grid(5, triangulated=True), 2),
        ("trigrid", gen_grid(8, triangulated=True), 2),
        ("strip", gen_rect_grid(3, 7), 3),
        ("path", gen_path(9), 1),
        ("kst", gen_kst_instance(2, 3), 3),
        ("kst", gen_kst_instance(1, 4), 4),
    ]
    try:
        for name, (g, ltd, delta), advertised in suite:
            td = ltd.td
            assert check_decomposition(g.n, g.edges, td.bags, td.edges, td.root).ok, name
            layer_of, partition = layer_index(g.n, ltd.layering.layers)
            assert partition.passed and edge_span(g.edges, layer_of).passed, name
            assert bags_layered_width(td.bags, layer_of) == advertised, name

            text = pace.graph_to_pace(g)
            g2 = Graph(*pace.pace_to_edges(text))
            assert (g2.n, g2.edges) == (g.n, g.edges), name
            assert pace.graph_to_pace(g2) == text, name

            text = pace.td_to_pace(ltd.td, g.n)
            td2 = TreeDecomposition(*pace.pace_to_bags(text))
            assert td2.bags == ltd.td.bags, name
            assert sorted(td2.edges) == sorted(ltd.td.edges), name
            assert pace.td_to_pace(td2, g.n) == text, name

            text = pace.layering_to_text(ltd.layering)
            ly2 = Layering(pace.text_to_rows(text))
            assert ly2.layers == ltd.layering.layers, name
            assert pace.layering_to_text(ly2) == text, name
    except Exception as exc:
        _report(11, False, f"raised {type(exc).__name__}: {exc}")
        raise
    _report(11, True, f"{len(suite)} instances validate and round-trip byte-for-byte")
