"""PACE-style text I/O for graphs, tree-decompositions, and layerings.

Graphs use the ``p tw`` header with one edge per line; decompositions use the
``s td`` header, ``b`` bag lines, and one tree edge per line. Vertices and
node ids are 1-based on disk and 0-based in memory, and the counts in a
header must match the lines that follow it. The layering sidecar is one line
per layer holding 1-based vertex ids; an empty line is an empty layer.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import PaceParseError
from .graph import Graph, Layering, TreeDecomposition


def _ints(fields: list[str], message: str, lineno: int) -> list[int]:
    """The fields as integers; one that is not raises ``message`` at the line."""
    try:
        return list(map(int, fields))
    except ValueError:
        raise PaceParseError(message, lineno) from None


def _header(lines, form: str) -> tuple[int, list[int]]:
    """Skip blank and comment lines up to the header that ``form`` names,
    such as ``"p tw <n> <m>"``; return its line number and its counts, which
    must be non-negative integers."""
    words = form.split()
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if len(fields) != len(words) or fields[:2] != words[:2]:
            raise PaceParseError(f"expected header '{form}'", lineno)
        counts = _ints(fields[2:], "non-integer counts in header", lineno)
        if min(counts) < 0:
            raise PaceParseError("negative counts in header", lineno)
        return lineno, counts
    raise PaceParseError(f"missing '{words[0]} {words[1]}' header", 1)


def _names(rows: Iterable[Sequence[int]], top: int = 0) -> list[str]:
    """The 1-based names ``"1"``, ``"2"``, ... of the ids 0..k-1, where k
    is ``top`` or, if larger, the largest id in ``rows`` plus one; each row
    is ascending. The writers take every id's name from this table, so the
    table is as long as the largest id. A negative id would index it from
    the back and be written under a wrong name, so one raises ValueError
    naming the smallest."""
    rows = [row for row in rows if row]
    low = min((row[0] for row in rows), default=0)
    if low < 0:
        raise ValueError(f"vertex {low} is negative: PACE numbers vertices from 1")
    top = max(top, max((row[-1] + 1 for row in rows), default=0))
    return list(map(str, range(1, top + 1)))


def _ids(text: str, top: int) -> dict[str, int]:
    """The reverse of `_names` for the readers: the names ``"1"``, ``"2"``,
    ... mapped to the ids 0, 1, ..., as many as ``top`` and ``text`` allow.
    Every token but the last is followed by a space or a line break, so the
    table has no more names than ``text`` has room for, whatever a header
    declares. A reader takes each canonical name in range from it; a token
    that is not in it (a comment, a non-canonical numeral such as ``05``,
    an id out of range) sends its line through ``int()`` and the checks."""
    k = min(top, text.count(" ") + text.count("\n") + 1)
    return dict(zip(map(str, range(1, k + 1)), range(k)))


def graph_to_pace(g: Graph) -> str:
    """The ``.gr`` text of ``g``: the header, then each edge once as
    ``u v`` with u < v, in ascending order. The edges are read off the
    adjacency, walking u upward and keeping each neighbor v > u; this
    relies on `Graph` keeping every neighbor list sorted, which makes the
    walk give exactly the order of ``sorted(g.edges)`` with no sort."""
    names = _names((), g.n)
    lines = [f"p tw {g.n} {len(g.edges)}"]
    for u, name in enumerate(names):
        lines += [f"{name} {names[v]}" for v in g.neighbors(u) if v > u]
    return "\n".join(lines) + "\n"


def pace_to_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse a ``p tw n m`` graph into n and its 0-based edge lines, in file
    order; the number of edge lines must be m."""
    lines = enumerate(text.splitlines(), start=1)
    header_line, (n, m) = _header(lines, "p tw <n> <m>")
    ids = _ids(text, n)
    edges: list[tuple[int, int]] = []
    append = edges.append
    # A line of two names in range joined by one space is read from the
    # table. Any other line is split and read as integers; a blank or
    # comment line is told apart only then: a first field starting with "c"
    # is never an integer.
    for lineno, raw in lines:
        a, _, b = raw.partition(" ")
        try:
            u, v = ids[a], ids[b]
        except KeyError:
            fields = raw.split()
            if len(fields) != 2:
                if not fields or fields[0][0] == "c":
                    continue
                raise PaceParseError("expected edge line '<u> <v>'", lineno) from None
            a, b = fields
            try:
                u, v = int(a), int(b)
            except ValueError:
                if a[0] == "c":
                    continue
                raise PaceParseError("non-integer edge endpoint", lineno) from None
            # Both endpoints in 1..n.
            if not 0 < u <= n >= v > 0:
                raise PaceParseError(
                    f"edge endpoint out of range 1..{n}", lineno
                ) from None
            u, v = u - 1, v - 1
        if u == v:
            raise PaceParseError("self-loop", lineno)
        append((u, v))
    if len(edges) != m:
        raise PaceParseError(
            f"header declares {m} edges but {len(edges)} edge lines follow",
            header_line,
        )
    return n, edges


def td_to_pace(td: TreeDecomposition, n_vertices: int) -> str:
    """The ``.td`` text of ``td`` for a graph on ``n_vertices``: the header,
    one ``b`` line per node with its bag ascending, then the tree edges in
    ascending order. Nodes 0 and ``td.root`` trade ids, since readers root
    at node 1. A bag may hold ids of ``n_vertices`` or more, which are
    written as they are; a negative id raises ValueError."""
    swap = {0: td.root, td.root: 0}
    bags = [sorted(td.bags[swap.get(t, t)]) for t in range(td.node_count)]
    edges = [(swap.get(a, a), swap.get(b, b)) for a, b in td.edges]
    names = _names(bags, td.node_count)
    name = names.__getitem__
    lines = [f"s td {td.node_count} {max(map(len, bags))} {n_vertices}"]
    lines += [" ".join(["b", names[t], *map(name, bag)]) for t, bag in enumerate(bags)]
    lines += [f"{names[a]} {names[b]}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n"


def pace_to_bags(
    text: str, n_graph: int | None = None
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """Parse an ``s td N w+1 n`` decomposition into its bags in node order
    and its distinct tree edges (a, b), a < b, in the order first given.
    Every bag id 1..N must be given, no bag line may repeat a vertex, and
    the largest bag must have exactly w+1 vertices. When ``n_graph``, the
    vertex count of the graph the decomposition is for, is given, the
    header's n must equal it."""
    lines = enumerate(text.splitlines(), start=1)
    header_line, (num_nodes, width_plus, n) = _header(lines, "s td <N> <w+1> <n>")
    if n_graph is not None and n != n_graph:
        raise PaceParseError(
            f"'s td' header declares n = {n} but the graph has {n_graph} vertices",
            header_line,
        )
    node, vertex = _ids(text, num_nodes), _ids(text, n)
    # Bags by 0-based node id.
    bags: dict[int, frozenset[int]] = {}
    tree_edges: dict[tuple[int, int], None] = {}
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        # A line whose ids are all names in range is read from the tables;
        # any other is read as integers and checked.
        try:
            if fields[0] == "b":
                t = node[fields[1]]
                verts = list(map(vertex.__getitem__, fields[2:]))
            else:
                t = None
                a, b = fields
                a, b = node[a], node[b]
        except (LookupError, ValueError):
            if fields[0] == "b":
                if len(fields) < 2:
                    raise PaceParseError("bag line missing id", lineno) from None
                bag_id, *verts = _ints(
                    fields[1:], "non-integer value in bag line", lineno
                )
                if not (1 <= bag_id <= num_nodes):
                    raise PaceParseError(
                        f"bag id out of range 1..{num_nodes}", lineno
                    ) from None
                t = bag_id - 1
                # A repeated bag id is reported before its vertices.
                if t not in bags:
                    for v in verts:
                        if not (1 <= v <= n):
                            raise PaceParseError(
                                f"bag vertex {v} out of range 1..{n}", lineno
                            ) from None
                verts = [v - 1 for v in verts]
            else:
                if len(fields) != 2:
                    raise PaceParseError(
                        "expected tree edge line '<a> <b>'", lineno
                    ) from None
                a, b = _ints(fields, "non-integer tree edge", lineno)
                if not (1 <= a <= num_nodes and 1 <= b <= num_nodes):
                    raise PaceParseError(
                        f"tree edge out of range 1..{num_nodes}", lineno
                    ) from None
                a, b = a - 1, b - 1
        if t is None:
            if a == b:
                raise PaceParseError(f"tree edge is a self-loop at node {a + 1}", lineno)
            tree_edges[(a, b) if a < b else (b, a)] = None
            continue
        if t in bags:
            raise PaceParseError(f"duplicate bag id {t + 1}", lineno)
        bag = frozenset(verts)
        if len(bag) < len(verts):
            again = min(v for v, count in Counter(verts).items() if count > 1)
            raise PaceParseError(f"vertex {again + 1} repeats in bag {t + 1}", lineno)
        bags[t] = bag
    if num_nodes == 0:
        raise PaceParseError("decomposition must have at least one node", header_line)
    missing = next((i for i in range(num_nodes) if i not in bags), None)
    if missing is not None:
        raise PaceParseError(
            f"bag {missing + 1} of 1..{num_nodes} is never given", header_line
        )
    largest = max(len(bag) for bag in bags.values())
    if largest != width_plus:
        raise PaceParseError(
            f"header declares w+1 = {width_plus} but the largest bag has {largest}",
            header_line,
        )
    return [bags[i] for i in range(num_nodes)], list(tree_edges)


def layering_to_text(ly: Layering) -> str:
    """The ``.layers`` text of ``ly``: line i holds layer i's vertices,
    ascending, and an empty layer is an empty line. A negative id raises
    ValueError."""
    if not ly.layers:
        return ""
    name = _names(ly.layers).__getitem__
    return "\n".join([" ".join(map(name, row)) for row in ly.layers]) + "\n"


def text_to_rows(text: str) -> list[tuple[int, ...]]:
    """Parse a layering sidecar into its layers, line i being layer i, each
    as its 0-based vertex ids in ascending order. No vertex may appear
    twice, on one line or on two; a line that repeats one is reported once
    every line has parsed."""
    # A layering has no header: the text alone bounds its table.
    ids = _ids(text, len(text))
    rows: list[tuple[int, ...]] = []
    seen: set[int] = set()
    repeat = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        try:
            verts = list(map(ids.__getitem__, fields))
        except KeyError:
            verts = _ints(fields, "non-integer vertex id", lineno)
            if verts and min(verts) < 1:
                v = next(v for v in verts if v < 1)
                raise PaceParseError(f"vertex id {v} must be positive", lineno) from None
            verts = [v - 1 for v in verts]
        row = set(verts)
        if repeat is None and not seen.isdisjoint(row):
            # Name the smallest vertex this line repeats, by its id in the
            # file, and the line (layer) it first appeared on.
            v = min(seen & row)
            first = next(i for i, r in enumerate(rows, start=1) if v in r)
            repeat = PaceParseError(
                f"vertex {v + 1} appears in layers {first} and {lineno}", lineno
            )
        elif repeat is None and len(row) < len(verts):
            again = min(v for v, count in Counter(verts).items() if count > 1)
            repeat = PaceParseError(
                f"vertex {again + 1} repeats in layer {lineno}", lineno
            )
        seen |= row
        rows.append(tuple(sorted(row)))
    if repeat is not None:
        raise repeat
    return rows


def _read(path: str | os.PathLike) -> str:
    """The text of the file at ``path``, which must be ASCII. A byte that is
    not raises PaceParseError naming the file, at the line the parsers'
    ``splitlines`` would give it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("ascii")
        lineno = len((before + "_").splitlines())
        raise PaceParseError(
            f"non-ASCII byte 0x{data[exc.start]:02x}", lineno, os.fspath(path)
        ) from None


def _parse_file(path: str | os.PathLike, parse, *args):
    """``parse`` of the text of the file at ``path`` and ``args``; its
    PaceParseError is raised again naming the file."""
    text = _read(path)
    try:
        return parse(text, *args)
    except PaceParseError as exc:
        raise PaceParseError(exc.detail, exc.line, os.fspath(path)) from None


def _write(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_edges(path: str | os.PathLike) -> tuple[int, list[tuple[int, int]]]:
    return _parse_file(path, pace_to_edges)


def write_graph(g: Graph, path: str | os.PathLike) -> None:
    _write(path, graph_to_pace(g))


def read_bags(
    path: str | os.PathLike, n_graph: int | None = None
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    return _parse_file(path, pace_to_bags, n_graph)


def write_td(td: TreeDecomposition, n_vertices: int, path: str | os.PathLike) -> None:
    _write(path, td_to_pace(td, n_vertices))


def read_rows(path: str | os.PathLike) -> list[tuple[int, ...]]:
    return _parse_file(path, text_to_rows)


def write_layering(ly: Layering, path: str | os.PathLike) -> None:
    _write(path, layering_to_text(ly))
