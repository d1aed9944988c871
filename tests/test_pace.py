import random

import pytest

from clustercolor import Graph, Layering, PaceParseError, TreeDecomposition
from clustercolor.pace import (
    graph_to_pace,
    layering_to_text,
    pace_to_bags,
    pace_to_edges,
    read_bags,
    read_edges,
    read_rows,
    td_to_pace,
    text_to_rows,
    write_graph,
    write_layering,
    write_td,
)

from helpers import random_decomposition


def test_graph_round_trip():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert Graph(*pace_to_edges(graph_to_pace(g))) == g


def test_graph_text_shape():
    text = graph_to_pace(Graph(3, [(0, 2)]))
    assert text == "p tw 3 1\n1 3\n"


def test_graph_parses_comments_and_blanks():
    text = "c comment\n\np tw 3 2\n1 2\nc mid\n  \nc 1\n2 3\n"
    g = Graph(*pace_to_edges(text))
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert pace_to_edges(text) == (3, [(0, 1), (1, 2)])


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("p tw 2 1\n1 5\n")
    assert err.value.line == 2
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("p tw x 1\n")
    assert err.value.line == 1
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("1 2\n")
    assert "header" in str(err.value)
    with pytest.raises(PaceParseError):
        pace_to_edges("")
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("p tw 3 1\n2 2\n")
    assert "self-loop" in str(err.value)


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (pace_to_edges, "p tw -1 0\n", 1, "negative counts in header"),
        (pace_to_edges, "p tw 2 1\n1 2 1\n", 2, "expected edge line '<u> <v>'"),
        (pace_to_bags, "s td x 1 1\n", 1, "non-integer counts in header"),
        (pace_to_bags, "s td 1 -1 1\n", 1, "negative counts in header"),
        (pace_to_bags, "s td 1 1 1\nb\n", 2, "bag line missing id"),
        (pace_to_bags, "s td 1 1 1\nb 1 x\n", 2, "non-integer value in bag line"),
        (pace_to_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 2 1\n", 4,
         "expected tree edge line '<a> <b>'"),
        (pace_to_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 x\n", 4, "non-integer tree edge"),
        (pace_to_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 3\n", 4, "tree edge out of range 1..2"),
        (pace_to_bags, "c no header\n", 1, "missing 's td' header"),
    ],
)
def test_header_and_line_errors_name_their_line(parse, text, line, message):
    with pytest.raises(PaceParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_graph_rejects_edge_count_other_than_header():
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("c lead\np tw 3 5\n1 2\n")
    assert err.value.line == 2
    assert "5 edges" in str(err.value)
    with pytest.raises(PaceParseError) as err:
        pace_to_edges("p tw 3 1\n1 2\n2 3\n")
    assert err.value.line == 1


def test_td_rejects_bag_id_never_given():
    with pytest.raises(PaceParseError) as err:
        pace_to_bags("s td 3 2 3\nb 1 1 2\nb 3 2 3\n1 2\n2 3\n")
    assert err.value.line == 1
    assert "bag 2" in str(err.value)


def test_td_rejects_width_other_than_largest_bag():
    with pytest.raises(PaceParseError) as err:
        pace_to_bags("c lead\ns td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert err.value.line == 2
    assert "w+1 = 3" in str(err.value)


def test_td_rejects_self_loop_tree_edge_on_its_line():
    with pytest.raises(PaceParseError) as err:
        pace_to_bags("s td 2 1 2\nb 1 1\nb 2 2\n2 2\n")
    assert str(err.value) == "line 4: tree edge is a self-loop at node 2"


def test_td_without_nodes_names_the_header_line():
    with pytest.raises(PaceParseError) as err:
        pace_to_bags("c note\ns td 0 0 0\n")
    assert str(err.value) == "line 2: decomposition must have at least one node"


@pytest.mark.parametrize(
    "text, message",
    [
        # Collapsed, the bag would be blamed on the header's width.
        ("s td 1 2 2\nb 1 1 1\n", "line 2: vertex 1 repeats in bag 1"),
        # Collapsed, the bag would match the header and pass unnoticed.
        ("s td 2 1 2\nb 1 1\nb 2 2 2\n1 2\n", "line 3: vertex 2 repeats in bag 2"),
    ],
)
def test_td_repeated_bag_vertex_is_blamed_on_its_bag_line(text, message):
    with pytest.raises(PaceParseError) as err:
        pace_to_bags(text)
    assert str(err.value) == message


def test_td_lists_give_bags_and_distinct_tree_edges():
    text = "s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3\n2 1\n1 2\n2 3\n"
    assert pace_to_bags(text) == (
        [frozenset({0, 1}), frozenset({1, 2}), frozenset()],
        [(0, 1), (1, 2)],
    )
    # Blank and comment lines between the bags and the tree edges are skipped.
    spaced = "s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3\n\n  \nc tree\n2 1\n1 2\n2 3\n"
    assert pace_to_bags(spaced) == pace_to_bags(text)


def test_td_round_trip_preserves_empty_bags():
    td = TreeDecomposition(
        [frozenset({0, 1}), frozenset(), frozenset({1, 2})],
        [(0, 1), (1, 2)],
    )
    back = TreeDecomposition(*pace_to_bags(td_to_pace(td, 3)))
    assert back.bags == td.bags
    assert set(back.edges) == set(td.edges)


def test_td_text_shape():
    td = TreeDecomposition([frozenset({0}), frozenset({0, 2})], [(0, 1)])
    assert td_to_pace(td, 3) == "s td 2 2 3\nb 1 1\nb 2 1 3\n1 2\n"


def test_td_parse_errors():
    with pytest.raises(PaceParseError) as err:
        pace_to_bags("s td 2 1 3\nb 5 1\n")
    assert err.value.line == 2
    with pytest.raises(PaceParseError):
        pace_to_bags("s td 2 1 3\nb 1 1\nb 1 2\n")
    with pytest.raises(PaceParseError):
        pace_to_bags("s td 1 1 2\nb 1 9\n")
    with pytest.raises(PaceParseError):
        pace_to_bags("s td 0 0 0\n")
    with pytest.raises(PaceParseError):
        pace_to_bags("nonsense\n")


def test_layering_round_trip_with_empty_layers():
    ly = Layering([(0, 2), (), (1,)])
    assert Layering(text_to_rows(layering_to_text(ly))).layers == ly.layers
    empty = Layering([])
    assert layering_to_text(empty) == ""
    assert text_to_rows("") == []


def test_layering_parse_errors():
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1 2\n0\n")
    assert err.value.line == 2
    with pytest.raises(PaceParseError):
        text_to_rows("1 2\n2\n")


def test_layering_repeat_on_one_line_is_an_error():
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1 1\n2\n")
    assert str(err.value) == "line 1: vertex 1 repeats in layer 1"
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1\n3 2 3 2\n")
    assert str(err.value) == "line 2: vertex 2 repeats in layer 2"
    # A line that does not parse is reported before any repeat.
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1 1\nx\n")
    assert str(err.value) == "line 2: non-integer vertex id"
    assert text_to_rows("3 1\n\n2\n") == [(0, 2), (), (1,)]


def test_layering_repeat_names_the_line_of_the_later_layer():
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1 2\n2 3\n4\n5\n6\n")
    assert err.value.line == 2
    assert "layers 1 and 2" in str(err.value)
    # The repeated vertex is named by its 1-based id in the file.
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1 2\n2 3\n")
    assert str(err.value) == "line 2: vertex 2 appears in layers 1 and 2"
    # Empty lines are layers too, so they count towards the line number.
    with pytest.raises(PaceParseError) as err:
        text_to_rows("1\n\n2\n1\n\n3\n")
    assert err.value.line == 4
    assert str(err.value) == "line 4: vertex 1 appears in layers 1 and 4"


def test_file_io_round_trip(tmp_path):
    g = Graph(5, [(0, 4), (1, 2)])
    td = TreeDecomposition([frozenset({0, 4}), frozenset({1, 2, 3})], [(0, 1)])
    ly = Layering([(0, 1), (2, 3, 4)])
    write_graph(g, tmp_path / "x.gr")
    write_td(td, g.n, tmp_path / "x.td")
    write_layering(ly, tmp_path / "x.layers")
    assert Graph(*read_edges(tmp_path / "x.gr")) == g
    assert TreeDecomposition(*read_bags(tmp_path / "x.td")) == td
    assert Layering(read_rows(tmp_path / "x.layers")) == ly


def test_random_round_trips():
    rng = random.Random(11)
    for _ in range(40):
        g, td = random_decomposition(rng)
        assert Graph(*pace_to_edges(graph_to_pace(g))) == g
        back = TreeDecomposition(*pace_to_bags(td_to_pace(td, g.n)))
        assert back.bags == td.bags
        assert sorted(tuple(sorted(e)) for e in back.edges) == sorted(
            tuple(sorted(e)) for e in td.edges
        )


def test_td_header_vertex_count_must_match_a_given_graph():
    text = "c lead\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    assert pace_to_bags(text, 3) == pace_to_bags(text)
    for n_graph in (2, 4):
        with pytest.raises(PaceParseError) as err:
            pace_to_bags(text, n_graph)
        assert str(err.value) == (
            f"line 2: 's td' header declares n = 3 but the graph has {n_graph} vertices"
        )


# The writers' formulas before they took their names from one table and read
# the edges off the sorted adjacency; the writers must match them byte for byte.
def reference_graph_text(g):
    lines = [f"p tw {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def reference_td_text(td, n_vertices):
    width_plus = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {td.node_count} {width_plus} {n_vertices}"]
    swap = {0: td.root, td.root: 0}
    bags = [td.bags[swap.get(t, t)] for t in range(td.node_count)]
    edges = [(swap.get(a, a), swap.get(b, b)) for a, b in td.edges]
    for t, bag in enumerate(bags):
        body = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {t + 1} {body}".rstrip())
    for a, b in sorted(edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def reference_layering_text(ly):
    if not ly.layers:
        return ""
    lines = [" ".join(str(v + 1) for v in row) for row in ly.layers]
    return "\n".join(lines) + "\n"


def test_graph_writer_matches_the_sorting_reference():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(0, 30)
        # Vertices past the last few take part in no edge, so they stay isolated.
        live = rng.randint(0, n)
        pairs = [(u, v) for u in range(live) for v in range(u + 1, live)]
        lines = rng.sample(pairs, rng.randint(0, len(pairs)))
        lines += rng.sample(lines, len(lines) // 4)
        rng.shuffle(lines)
        lines = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in lines]
        g = Graph(n, lines)
        assert graph_to_pace(g) == reference_graph_text(g)
    assert graph_to_pace(Graph(0)) == reference_graph_text(Graph(0)) == "p tw 0 0\n"


def test_td_writer_matches_the_formatting_reference():
    rng = random.Random(25)
    for _ in range(200):
        nodes = rng.randint(1, 12)
        n_vertices = rng.randint(0, 20)
        order = list(range(nodes))
        rng.shuffle(order)
        edges = [
            (order[rng.randrange(i)], order[i])[:: rng.choice((1, -1))]
            for i in range(1, nodes)
        ]
        # Bags may be empty and may hold ids of n_vertices or more.
        bags = [
            rng.sample(range(n_vertices + 5), rng.randint(0, min(6, n_vertices + 5)))
            if rng.random() < 0.8 else []
            for _ in range(nodes)
        ]
        td = TreeDecomposition(bags, edges, root=rng.randrange(nodes))
        assert td_to_pace(td, n_vertices) == reference_td_text(td, n_vertices)


def test_layering_writer_matches_the_formatting_reference():
    rng = random.Random(26)
    for _ in range(200):
        ids = rng.sample(range(40), rng.randint(0, 40))
        cuts = sorted(rng.choices(range(len(ids) + 1), k=rng.randint(0, 8)))
        # Repeated cuts make empty layers.
        rows = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
        ly = Layering(rows)
        assert layering_to_text(ly) == reference_layering_text(ly)
    assert layering_to_text(Layering([])) == reference_layering_text(Layering([])) == ""


def test_writers_refuse_negative_ids():
    td = TreeDecomposition([frozenset({0, -2}), frozenset({-5, 1})], [(0, 1)])
    with pytest.raises(ValueError) as err:
        td_to_pace(td, 2)
    assert str(err.value) == "vertex -5 is negative: PACE numbers vertices from 1"
    with pytest.raises(ValueError) as err:
        layering_to_text(Layering([(0,), (), (-1, 2)]))
    assert str(err.value) == "vertex -1 is negative: PACE numbers vertices from 1"
