"""List-coloring scaffolding over layerings: segments, residue-compatible
lists, standard pairs, progress steps, gates, a segment-local clustering
check, and the apex-splitting transformation.

Colors are integers 1..s+2. A layering forbids one color per layer by
residue, which traps each monochromatic component inside s+1 consecutive
layers; segments are exactly those windows. Standard pairs track a set of
precolored (singleton-list) vertices together with the bookkeeping rules
for how lists near them must have shrunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InternalInvariantError, InvalidLayering
from .graph import AxiomCheck, Graph, Layering, ValidationReport, validate_layering
from .neighborhoods import n_below
from .verify import check_list_coloring, monochromatic_components


def forbidden_color(layer_index: int, s: int) -> int:
    """The one color of 1..s+2 banned in the given layer."""
    return ((layer_index - 1) % (s + 2)) + 1


def _norm_lists(lists: Mapping[int, Iterable[int]]) -> dict[int, frozenset[int]]:
    return {v: frozenset(colors) for v, colors in lists.items()}


@dataclass(frozen=True)
class Segment:
    """s+1 consecutive layers starting at ``start`` (possibly nonpositive),
    carrying the union of their vertices. ``level`` is the color whose
    components this window can contain."""

    level: int
    start: int
    vertices: frozenset[int]


@dataclass(frozen=True)
class StandardPair:
    """Precolored vertex set plus the list-assignment that records it.

    Valid pairs keep the precolored set exactly equal to the singleton-list
    vertices, with near-boundary lists shrunk by one color per precolored
    neighbor and disjoint from those neighbors' colors.
    """

    precolored: frozenset[int]
    lists: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "precolored", frozenset(self.precolored))
        object.__setattr__(self, "lists", _norm_lists(self.lists))


def segments(ly: Layering, s: int, level: int) -> list[Segment]:
    """All nonempty level-``level`` windows of s+1 consecutive layers.

    Window starts run over start = level+1 (mod s+2); starts at or below
    zero simply contribute fewer real layers. Windows whose layers are all
    empty are dropped.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if not 1 <= level <= s + 2:
        raise ValueError(f"level {level} outside 1..{s + 2}")
    period = s + 2
    target = (level + 1) % period
    out = []
    a = 1 - s
    while a % period != target:
        a += 1
    while a <= ly.m:
        verts: set[int] = set()
        for j in range(a, a + s + 1):
            verts.update(ly.layer(j))
        if verts:
            out.append(Segment(level=level, start=a, vertices=frozenset(verts)))
        a += period
    return out


def compatible_lists(ly: Layering, s: int) -> dict[int, frozenset[int]]:
    """Maximum lists respecting the layering: each vertex gets 1..s+2 minus
    its layer's forbidden color, so every list has size s+1."""
    if s < 1:
        raise ValueError("s must be positive")
    full = frozenset(range(1, s + 3))
    out: dict[int, frozenset[int]] = {}
    for i in range(1, ly.m + 1):
        allowed = full - {forbidden_color(i, s)}
        for v in ly.layer(i):
            out[v] = allowed
    return out


def is_compatible(
    ly: Layering,
    lists: Mapping[int, Iterable[int]],
    s: int,
    apex: Iterable[int] = (),
) -> tuple[bool, int | None]:
    """Whether the lists respect the layering's forbidden colors.

    Layered vertices need nonempty lists inside 1..s+2 avoiding their
    layer's banned color; apex vertices only need nonempty lists inside
    1..s+2. Returns (ok, witness vertex).
    """
    if s < 1:
        raise ValueError("s must be positive")
    norm = _norm_lists(lists)
    full = frozenset(range(1, s + 3))
    for v in sorted(ly.vertices):
        lst = norm.get(v)
        if not lst or not lst <= full:
            return False, v
        if forbidden_color(ly.layer_of(v), s) in lst:
            return False, v
    for v in sorted(set(apex)):
        lst = norm.get(v)
        if not lst or not lst <= full:
            return False, v
    return True, None


def validate_standard_pair(g: Graph, pair: StandardPair, s: int) -> ValidationReport:
    """Check the three standard-pair conditions, with witnesses."""
    if s < 1:
        raise ValueError("s must be positive")
    lists = pair.lists
    y1 = pair.precolored
    checks = []

    missing = next(
        (v for v in g.vertices() if not lists.get(v)), None
    )
    checks.append(AxiomCheck("list-domain", missing is None, missing))

    def lst(v: int) -> frozenset[int]:
        return lists.get(v) or frozenset()

    singles = {v for v in g.vertices() if len(lst(v)) == 1}
    odd = next(iter(sorted(singles ^ y1)), None)
    checks.append(AxiomCheck("singleton-set", odd is None, odd))

    boundary_witness = None
    if missing is None:
        for y in sorted(n_below(g, y1, s)):
            pre_nbrs = [u for u in g.neighbors(y) if u in y1]
            if len(lst(y)) != s + 1 - len(pre_nbrs):
                boundary_witness = (y,)
                break
            clash = next((u for u in pre_nbrs if lst(y) & lst(u)), None)
            if clash is not None:
                boundary_witness = (y, clash)
                break
    checks.append(AxiomCheck("boundary-lists", boundary_witness is None, boundary_witness))

    interior_witness = None
    if missing is None:
        closed = set(y1)
        for y in y1:
            closed.update(g.neighbors(y))
        interior_witness = next(
            (v for v in g.vertices() if v not in closed and len(lst(v)) != s + 1),
            None,
        )
    checks.append(AxiomCheck("interior-lists", interior_witness is None, interior_witness))
    return ValidationReport(tuple(checks))


def progress(
    g: Graph, pair: StandardPair, force: Iterable[int], avoid: int, s: int
) -> StandardPair:
    """Precolor ``force`` away from color ``avoid`` and shrink nearby lists.

    Newly precolored vertices get the smallest color in their list other
    than ``avoid``. Vertices with under s precolored neighbors lose the
    colors those new singletons took, then drop their largest colors down
    to size |list| - (new precolored neighbors). Everything else is
    untouched, so lists only ever shrink. The result is validated and a
    violation raises instead of propagating a broken pair.
    """
    if s < 1:
        raise ValueError("s must be positive")
    force_set = frozenset(force)
    y1 = pair.precolored
    lists = pair.lists
    fresh = force_set - y1
    new_y1 = y1 | force_set
    new_lists = dict(lists)
    for v in sorted(fresh):
        options = sorted(lists.get(v, frozenset()) - {avoid})
        if not options:
            raise ValueError(f"vertex {v} has no color other than {avoid} to take")
        new_lists[v] = frozenset({options[0]})
    for v in sorted(n_below(g, new_y1, s)):
        fresh_nbrs = [u for u in g.neighbors(v) if u in fresh]
        if not fresh_nbrs:
            continue
        old = lists.get(v, frozenset())
        base = set(old)
        for u in fresh_nbrs:
            base -= new_lists[u]
        target_size = len(old) - len(fresh_nbrs)
        if target_size < 1:
            raise ValueError(f"list of vertex {v} would shrink to nothing")
        new_lists[v] = frozenset(sorted(base)[:target_size])
    out = StandardPair(precolored=new_y1, lists=new_lists)
    report = validate_standard_pair(g, out, s)
    if not report.ok:
        bad = report.failures()[0]
        raise ValueError(
            f"progress produced an invalid pair ({bad.axiom}, witness {bad.witness})"
        )
    return out


def gates(g: Graph, pair: StandardPair, sources: Iterable[int]) -> frozenset[int]:
    """Unprecolored neighbors of ``sources`` whose list meets the source's
    assigned color. ``sources`` must be precolored."""
    src = frozenset(sources)
    stray = src - pair.precolored
    if stray:
        raise ValueError(f"gate sources must be precolored; {min(stray)} is not")
    out = set()
    for y in src:
        y_list = pair.lists.get(y, frozenset())
        for v in g.neighbors(y):
            if v not in pair.precolored and pair.lists.get(v, frozenset()) & y_list:
                out.add(v)
    return frozenset(out)


def segment_local_clustering_check(
    g: Graph,
    ly: Layering,
    lists: Mapping[int, Iterable[int]],
    coloring: dict[int, int],
    s: int,
    k: int,
) -> bool:
    """True iff every color-``i`` component inside every level-``i`` segment
    has at most k vertices.

    Because compatible lists confine each monochromatic component to one
    segment of its color's level, this is equivalent to global clustering
    at most k; the equivalence is cross-checked on every call.
    """
    validate_layering(g, ly).require(InvalidLayering)
    ok, witness = is_compatible(ly, lists, s)
    if not ok:
        raise ValueError(f"lists are not layer-compatible at vertex {witness}")
    norm = _norm_lists(lists)
    ok, witness = check_list_coloring(coloring, norm)
    if not ok:
        raise ValueError(f"coloring leaves its list at vertex {witness}")

    segment_max = 0
    for level in range(1, s + 3):
        for seg in segments(ly, s, level):
            sub, old_ids = g.induced(seg.vertices)
            sub_colors = {i: coloring[old_ids[i]] for i in range(sub.n)}
            for color, verts in monochromatic_components(sub, sub_colors).components:
                if color == level:
                    segment_max = max(segment_max, len(verts))
    local_ok = segment_max <= k

    global_ok = monochromatic_components(g, coloring).max_size <= k
    if local_ok != global_ok:
        raise InternalInvariantError(
            "segment-local and global clustering checks disagree"
        )
    return local_ok


@dataclass(frozen=True)
class ApexSplitResult:
    """Outcome of splitting apex vertices into per-layer copies.

    ``copies`` maps each apex vertex to {layer index: new vertex id} for its
    surviving copies; ``vertex_map`` carries the non-apex vertices to their
    new ids. ``lists`` is the transferred list-assignment when one was given.
    """

    graph: Graph
    layering: Layering
    copies: dict[int, dict[int, int]]
    vertex_map: dict[int, int]
    lists: dict[int, frozenset[int]] | None


def apex_split(
    g: Graph,
    z: Iterable[int],
    ly: Layering,
    lists: Mapping[int, Iterable[int]] | None = None,
    s: int | None = None,
) -> ApexSplitResult:
    """Replace each apex vertex by one copy per layer, wired to its
    same-layer neighbors.

    ``ly`` must layer g minus the apexes. Edges between two apexes are
    dropped. When lists are given (``s`` then required), a copy whose
    singleton list matches its layer's forbidden color is deleted and its
    edges rewired to the neighboring layer's copy, which the alternating
    residues guarantee survives. The output layering is revalidated.
    """
    z_set = frozenset(z)
    for v in z_set:
        if not 0 <= v < g.n:
            raise ValueError(f"apex vertex {v} out of range")
    if lists is not None and s is None:
        raise ValueError("s is required when lists are given")
    if s is not None and s < 1:
        raise ValueError("s must be positive")

    expected = set(g.vertices()) - z_set
    if set(ly.vertices) != expected:
        raise InvalidLayering("layering must cover exactly the non-apex vertices")
    for u, v in sorted(g.edges):
        if u in z_set or v in z_set:
            continue
        if abs(ly.layer_of(u) - ly.layer_of(v)) > 1:
            raise InvalidLayering(f"edge ({u}, {v}) spans non-adjacent layers")

    norm = _norm_lists(lists) if lists is not None else None
    if not z_set:
        return ApexSplitResult(
            graph=g,
            layering=ly,
            copies={},
            vertex_map={v: v for v in g.vertices()},
            lists=norm,
        )

    # The rewiring step needs a neighbor layer to exist, so a single-layer
    # input gains one empty layer.
    m = max(ly.m, 2)
    pruned: set[tuple[int, int]] = set()
    if norm is not None:
        for zz in sorted(z_set):
            lst = norm.get(zz)
            if not lst:
                raise ValueError(f"apex vertex {zz} has no list")
            if len(lst) == 1:
                (color,) = tuple(lst)
                if 1 <= color <= s + 2:
                    for i in range(1, m + 1):
                        if forbidden_color(i, s) == color:
                            pruned.add((zz, i))

    base = sorted(expected)
    vertex_map = {v: idx for idx, v in enumerate(base)}
    next_id = len(base)
    copies: dict[int, dict[int, int]] = {}
    for zz in sorted(z_set):
        copies[zz] = {}
        for i in range(1, m + 1):
            if (zz, i) not in pruned:
                copies[zz][i] = next_id
                next_id += 1

    new_edges = [
        (vertex_map[u], vertex_map[v])
        for u, v in g.edges
        if u not in z_set and v not in z_set
    ]
    for zz in sorted(z_set):
        for u in g.neighbors(zz):
            if u in z_set:
                continue
            i = ly.layer_of(u)
            if i in copies[zz]:
                target = copies[zz][i]
            else:
                j = i + 1 if i == 1 else i - 1
                if j not in copies[zz]:
                    raise InternalInvariantError(
                        f"adjacent copies of apex {zz} both pruned"
                    )
                target = copies[zz][j]
            new_edges.append((target, vertex_map[u]))
    out_graph = Graph(next_id, new_edges)

    new_layers = []
    for i in range(1, m + 1):
        row = [vertex_map[v] for v in ly.layer(i)]
        row.extend(copies[zz][i] for zz in sorted(z_set) if i in copies[zz])
        new_layers.append(row)
    out_layering = Layering(new_layers)
    rep = validate_layering(out_graph, out_layering)
    if not rep.ok:
        raise InternalInvariantError(
            f"split produced an invalid layering: {rep.failures()[0]}"
        )

    out_lists = None
    if norm is not None:
        out_lists = {vertex_map[v]: norm[v] for v in base if v in norm}
        for zz in sorted(z_set):
            for i, nid in copies[zz].items():
                out_lists[nid] = norm[zz]
    return ApexSplitResult(
        graph=out_graph,
        layering=out_layering,
        copies=copies,
        vertex_map=vertex_map,
        lists=out_lists,
    )
