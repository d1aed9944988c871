"""The readers take each canonical name from a table and read every other
token as an integer; on any text they must give what readers that send
every token through ``int()`` give, values and errors alike.

The plain readers below are that reference: each token through ``int()``,
a range check and the 1-based shift, in the order the checks are made.
"""

import random
from collections import Counter

import pytest

from clustercolor import Layering, PaceParseError
from clustercolor.pace import (
    _bags,
    _edges_and_ids,
    _header,
    _ids,
    _ints,
    _read_color3_input,
    _rows,
    graph_to_pace,
    layering_to_text,
    pace_to_bags,
    pace_to_edges,
    read_bags,
    read_edges,
    read_rows,
    td_to_pace,
    text_to_rows,
)

from helpers import random_decomposition


def plain_edges(text):
    lines = enumerate(text.splitlines(), start=1)
    header_line, (n, m) = _header(lines, "p tw <n> <m>")
    edges = []
    for lineno, raw in lines:
        fields = raw.split()
        if len(fields) != 2:
            if not fields or fields[0][0] == "c":
                continue
            raise PaceParseError("expected edge line '<u> <v>'", lineno)
        a, b = fields
        try:
            u, v = int(a), int(b)
        except ValueError:
            if a[0] == "c":
                continue
            raise PaceParseError("non-integer edge endpoint", lineno) from None
        if not 0 < u <= n >= v > 0:
            raise PaceParseError(f"edge endpoint out of range 1..{n}", lineno)
        if u == v:
            raise PaceParseError("self-loop", lineno)
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise PaceParseError(
            f"header declares {m} edges but {len(edges)} edge lines follow",
            header_line,
        )
    return n, edges


def plain_bags(text, n_graph=None):
    lines = enumerate(text.splitlines(), start=1)
    header_line, (num_nodes, width_plus, n) = _header(lines, "s td <N> <w+1> <n>")
    if n_graph is not None and n != n_graph:
        raise PaceParseError(
            f"'s td' header declares n = {n} but the graph has {n_graph} vertices",
            header_line,
        )
    bags = {}
    tree_edges = {}
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if fields[0] == "b":
            if len(fields) < 2:
                raise PaceParseError("bag line missing id", lineno)
            bag_id, *verts = _ints(fields[1:], "non-integer value in bag line", lineno)
            if not (1 <= bag_id <= num_nodes):
                raise PaceParseError(f"bag id out of range 1..{num_nodes}", lineno)
            if bag_id in bags:
                raise PaceParseError(f"duplicate bag id {bag_id}", lineno)
            for v in verts:
                if not (1 <= v <= n):
                    raise PaceParseError(f"bag vertex {v} out of range 1..{n}", lineno)
            bag = frozenset(v - 1 for v in verts)
            if len(bag) < len(verts):
                again = min(v for v, count in Counter(verts).items() if count > 1)
                raise PaceParseError(f"vertex {again} repeats in bag {bag_id}", lineno)
            bags[bag_id] = bag
        else:
            if len(fields) != 2:
                raise PaceParseError("expected tree edge line '<a> <b>'", lineno)
            a, b = _ints(fields, "non-integer tree edge", lineno)
            if not (1 <= a <= num_nodes and 1 <= b <= num_nodes):
                raise PaceParseError(f"tree edge out of range 1..{num_nodes}", lineno)
            if a == b:
                raise PaceParseError(f"tree edge is a self-loop at node {a}", lineno)
            tree_edges[(a - 1, b - 1) if a < b else (b - 1, a - 1)] = None
    if num_nodes == 0:
        raise PaceParseError("decomposition must have at least one node", header_line)
    missing = next((i for i in range(1, num_nodes + 1) if i not in bags), None)
    if missing is not None:
        raise PaceParseError(f"bag {missing} of 1..{num_nodes} is never given", header_line)
    largest = max(len(bag) for bag in bags.values())
    if largest != width_plus:
        raise PaceParseError(
            f"header declares w+1 = {width_plus} but the largest bag has {largest}",
            header_line,
        )
    return [bags[i] for i in range(1, num_nodes + 1)], list(tree_edges)


def plain_rows(text):
    rows = []
    seen = set()
    repeat = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        verts = _ints(raw.split(), "non-integer vertex id", lineno)
        if verts and min(verts) < 1:
            v = next(v for v in verts if v < 1)
            raise PaceParseError(f"vertex id {v} must be positive", lineno)
        row = set(verts)
        if repeat is None and not seen.isdisjoint(row):
            v = min(seen & row)
            first = next(i for i, r in enumerate(rows, start=1) if v - 1 in r)
            repeat = PaceParseError(
                f"vertex {v} appears in layers {first} and {lineno}", lineno
            )
        elif repeat is None and len(row) < len(verts):
            again = min(v for v, count in Counter(verts).items() if count > 1)
            repeat = PaceParseError(f"vertex {again} repeats in layer {lineno}", lineno)
        seen |= row
        rows.append(tuple(v - 1 for v in sorted(row)))
    if repeat is not None:
        raise repeat
    return rows


READERS = [
    (pace_to_edges, plain_edges),
    (pace_to_bags, plain_bags),
    (text_to_rows, plain_rows),
]


def outcome(parse, *args):
    """What ``parse`` gives: its value, or its parse error's message and line."""
    try:
        return "value", parse(*args)
    except PaceParseError as exc:
        return "error", str(exc), exc.line


def assert_reads_alike(reader, plain, text, *args):
    assert outcome(reader, text, *args) == outcome(plain, text, *args), text


def _spelling(rng, token):
    """``token``, or another numeral that ``int()`` reads as the same value."""
    if not token.isdigit() or rng.random() < 0.8:
        return token
    forms = ["0" + token, "+" + token]
    if len(token) > 1:
        forms.append(token[0] + "_" + token[1:])
    return rng.choice(forms)


def _respaced(rng, line, blank_lines):
    """``line`` with its tokens spelled and spaced anew, and with blank or
    comment lines before it when ``blank_lines``."""
    gaps = [" ", " ", " ", "  ", "\t", " \t "]
    body = "".join(
        (rng.choice(gaps) if i else "") + _spelling(rng, token)
        for i, token in enumerate(line.split(" "))
    )
    if rng.random() < 0.1:
        body = rng.choice(gaps) + body
    if rng.random() < 0.1:
        body += rng.choice(gaps)
    lead = []
    if blank_lines and rng.random() < 0.15:
        lead.append(rng.choice(["", "  ", "\t", "c note", "c 1 2", "c"]))
    return lead + [body]


def _broken(rng, line, top):
    """``line`` with one token or field made wrong."""
    tokens = line.split(" ")
    i = rng.randrange(len(tokens))
    kind = rng.randrange(5)
    if kind == 0:
        tokens[i] = rng.choice(["0", "-1", str(top + 1), str(top + 10)])
    elif kind == 1:
        tokens[i] = rng.choice(["x", "1.5", "c", "b"])
    elif kind == 2:
        tokens.append(rng.choice(["1", "2", "7"]))
    elif kind == 3:
        del tokens[i]
    else:
        tokens.insert(i, tokens[i])
    return " ".join(tokens)


def perturbed(rng, text, top, blank_lines=True, break_prob=0.0):
    """``text`` with its lines respaced and respelled as in ``_respaced``,
    and each nonempty line but a header broken with probability
    ``break_prob``."""
    lines = []
    for line in text.splitlines():
        if line[:2] not in ("", "p ", "s ") and rng.random() < break_prob:
            line = _broken(rng, line, top)
        lines += _respaced(rng, line, blank_lines)
    return "\n".join(lines) + rng.choice(["\n", ""])


def random_texts(rng):
    """A random graph's ``.gr`` and ``.td`` texts, a random ``.layers`` text
    over its vertices, and the larger of its vertex and node counts."""
    g, td = random_decomposition(rng, max_nodes=12, max_bag=5)
    order = list(range(g.n))
    rng.shuffle(order)
    rows = [[] for _ in range(rng.randint(1, 6))]
    for v in order:
        rows[rng.randrange(len(rows))].append(v)
    layering = Layering([sorted(row) for row in rows])
    texts = graph_to_pace(g), td_to_pace(td, g.n), layering_to_text(layering)
    return *texts, g.n, max(g.n, td.node_count)


@pytest.mark.parametrize("seed", range(6))
def test_readers_match_the_plain_readers_on_respaced_files(seed):
    rng = random.Random(seed)
    for _ in range(60):
        gr, td, layers, n, top = random_texts(rng)
        assert_reads_alike(pace_to_edges, plain_edges, perturbed(rng, gr, n))
        assert_reads_alike(pace_to_bags, plain_bags, perturbed(rng, td, top), n)
        # A blank line in a .layers file is a layer, and a comment is an error.
        assert_reads_alike(text_to_rows, plain_rows, perturbed(rng, layers, n, False))
        assert outcome(text_to_rows, layers) == outcome(plain_rows, layers)


@pytest.mark.parametrize("seed", range(6))
def test_readers_match_the_plain_readers_on_broken_files(seed):
    rng = random.Random(100 + seed)
    refused = Counter()
    for _ in range(60):
        gr, td, layers, n, top = random_texts(rng)
        texts = [
            (perturbed(rng, gr, n, break_prob=0.2),),
            (perturbed(rng, td, top, break_prob=0.2), n),
            (perturbed(rng, layers, n, rng.random() < 0.2, break_prob=0.2),),
        ]
        for (reader, plain), args in zip(READERS, texts):
            result = outcome(reader, *args)
            assert result == outcome(plain, *args), args[0]
            refused[reader.__name__] += result[0] == "error"
    # The broken files do reach the error paths of every reader.
    assert len(refused) == 3 and min(refused.values()) >= 10, refused


def _table(k):
    """The vertex-name table of 1..k."""
    return dict(zip(map(str, range(1, k + 1)), range(k)))


@pytest.mark.parametrize("seed", range(6))
def test_a_graphs_table_reads_the_td_and_layers_as_the_plain_readers_do(seed):
    """``color3`` reads the ``.td`` vertices and the ``.layers`` through the
    ``.gr``'s vertex-name table. Through the table of the graph's own text,
    one bounded below the files' largest id and one holding ids above n,
    the two readers give what the plain readers give, values and errors
    alike; the broken lines put ids above n in both files."""
    rng = random.Random(300 + seed)
    refused = Counter()
    for _ in range(60):
        gr, td, layers, n, top = random_texts(rng)
        tables = [_edges_and_ids(gr)[2], _table(rng.randrange(n + 1)), _table(n + 10)]
        break_prob = rng.choice([0.0, 0.2])
        td = perturbed(rng, td, top, break_prob=break_prob)
        layers = perturbed(rng, layers, n, rng.random() < 0.2, break_prob=break_prob)
        for table in tables:
            # A table past n is set aside for the .td's own, bounded by n.
            for n_graph in (n, None):
                result = outcome(_bags, td, n_graph, table)
                assert result == outcome(plain_bags, td, n_graph), (td, len(table))
                refused["bags"] += result[0] == "error"
            result = outcome(_rows, layers, table)
            assert result == outcome(plain_rows, layers), (layers, len(table))
            refused["rows"] += result[0] == "error"
    assert min(refused.values()) >= 10, refused


def test_color3_input_reads_as_the_three_readers_do(tmp_path):
    """``_read_color3_input`` gives what ``read_edges``, ``read_bags`` against
    the graph's n and ``read_rows`` give, in that order: their values, or the
    first one's error, naming its file."""
    rng = random.Random(7)
    paths = [tmp_path / name for name in ("g.gr", "g.td", "g.layers")]
    refused = Counter()
    for _ in range(40):
        gr, td, layers, n, top = random_texts(rng)
        texts = [
            perturbed(rng, gr, n, break_prob=0.05),
            perturbed(rng, td, top, break_prob=0.05),
            perturbed(rng, layers, n, False, break_prob=0.05),
        ]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="ascii")
        try:
            n_read, edges = read_edges(paths[0])
            expected = ("value", (n_read, edges, *read_bags(paths[1], n_read),
                                  read_rows(paths[2])))
        except PaceParseError as exc:
            expected = ("error", str(exc))
        try:
            got = ("value", _read_color3_input(*paths))
        except PaceParseError as exc:
            got = ("error", str(exc))
        assert got == expected, texts
        refused[got[0]] += 1
    assert min(refused.values()) >= 5, refused


@pytest.mark.parametrize(
    "reader, plain, text",
    [
        (pace_to_edges, plain_edges, "p tw 2 1\n1 5\n"),
        (pace_to_edges, plain_edges, "p tw 3 1\n2 2\n"),
        (pace_to_edges, plain_edges, "p tw 3 1\n02 2\n"),
        (pace_to_edges, plain_edges, "p tw 2 1\n1 2 1\n"),
        (pace_to_edges, plain_edges, "p tw 3 5\n1 2\n"),
        (pace_to_edges, plain_edges, "p tw 3 1\n1 x\n"),
        (pace_to_edges, plain_edges, "p tw 3 1\nc1 2\n"),
        (pace_to_bags, plain_bags, "s td 1 1 1\nb\n"),
        (pace_to_bags, plain_bags, "s td 1 1 1\nb 1 x\n"),
        (pace_to_bags, plain_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 2 1\n"),
        (pace_to_bags, plain_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 x\n"),
        (pace_to_bags, plain_bags, "s td 2 1 1\nb 1 1\nb 2 1\n1 3\n"),
        (pace_to_bags, plain_bags, "s td 2 1 2\nb 1 1\nb 2 2\n2 2\n"),
        (pace_to_bags, plain_bags, "s td 2 1 2\nb 1 1\nb 2 2\n2 +2\n"),
        (pace_to_bags, plain_bags, "s td 1 2 2\nb 1 1 1\n"),
        (pace_to_bags, plain_bags, "s td 1 2 2\nb 1 1 01\n"),
        (pace_to_bags, plain_bags, "s td 2 1 2\nb 1 1\nb 2 2 2\n1 2\n"),
        (pace_to_bags, plain_bags, "s td 2 1 3\nb 5 1\n"),
        (pace_to_bags, plain_bags, "s td 2 1 3\nb 1 1\nb 1 2\n"),
        # A repeated bag id is reported before a vertex out of range.
        (pace_to_bags, plain_bags, "s td 2 1 3\nb 1 1\nb 1 9\n"),
        (pace_to_bags, plain_bags, "s td 2 1 3\nb 1 1\nb 01 9\n"),
        (pace_to_bags, plain_bags, "s td 1 1 2\nb 1 9\n"),
        (pace_to_bags, plain_bags, "s td 3 2 3\nb 1 1 2\nb 3 2 3\n1 2\n2 3\n"),
        (pace_to_bags, plain_bags, "c lead\ns td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n"),
        (pace_to_bags, plain_bags, "c note\ns td 0 0 0\n"),
        (text_to_rows, plain_rows, "1 2\n0\n"),
        (text_to_rows, plain_rows, "1 2\n-3\n"),
        (text_to_rows, plain_rows, "1 1\n2\n"),
        (text_to_rows, plain_rows, "1\n3 2 3 2\n"),
        (text_to_rows, plain_rows, "1 1\nx\n"),
        (text_to_rows, plain_rows, "1 2\n2 3\n4\n5\n6\n"),
        (text_to_rows, plain_rows, "1\n\n2\n1\n\n3\n"),
        (text_to_rows, plain_rows, "1\n\n2\n01\n\n3\n"),
    ],
)
def test_malformed_files_keep_their_messages_and_lines(reader, plain, text):
    result = outcome(reader, text)
    assert result[0] == "error"
    assert result == outcome(plain, text)


def test_tables_are_no_larger_than_the_text_has_room_for():
    assert _ids("", 10**9) == {"1": 0}
    assert _ids("p tw 1000000000 1\n1 2\n", 10**9) == {
        str(k + 1): k for k in range(7)
    }
    assert _ids("1 2 3\n", 2) == {"1": 0, "2": 1}
    # A name the table does not hold is read as an integer all the same,
    # and so is a token that is not a name.
    assert pace_to_edges("p tw 1000 1\n1 1000\n") == (1000, [(0, 999)])
    assert pace_to_edges("p tw 12 2\n1\t2\nc 1\n1 1_2\n") == (12, [(0, 1), (0, 11)])
