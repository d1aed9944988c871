"""End-to-end checks for the command-line frontend."""

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys

import random

import pytest

from clustercolor import (
    Graph,
    GroupBudgetError,
    LayeredTreeDecomposition,
    Layering,
    PaceParseError,
    TreeDecomposition,
    check_decomposition,
    edge_components,
    gen_grid,
    gen_path,
    gen_rect_grid,
    three_color_lists,
)
from clustercolor import cli, pace
from clustercolor.cli import GEN_FAMILIES, main
from clustercolor.graph import bags_layered_width, edge_span, layer_index
from helpers import lists_of, permuted, spine_path, without_first_vertex


def read_instance(prefix):
    g = Graph(*pace.read_edges(f"{prefix}.gr"))
    td = TreeDecomposition(*pace.read_bags(f"{prefix}.td"))
    ly = Layering(pace.read_rows(f"{prefix}.layers"))
    return g, td, ly


def gen_inputs(tmp_path, family, n):
    """Write a ``gen`` instance and return ``color3``'s input options for it."""
    prefix = tmp_path / f"{family}{n}"
    assert main(["gen", family, "--n", str(n), "--out", str(prefix)]) == 0
    return [
        "--gr", f"{prefix}.gr", "--td", f"{prefix}.td", "--layers", f"{prefix}.layers"
    ]


def test_gen_grid_writes_parseable_files(tmp_path, capsys):
    prefix = tmp_path / "grid4"
    assert main(["gen", "grid", "--n", "4", "--out", str(prefix)]) == 0
    g, td, ly = read_instance(prefix)
    assert g.n == 16
    assert check_decomposition(g.n, g.edges, td.bags, td.edges, td.root).ok
    layer_of, partition = layer_index(g.n, ly.layers)
    assert partition.passed and edge_span(g.edges, layer_of).passed
    assert bags_layered_width(td.bags, layer_of) == 2
    out = capsys.readouterr().out
    assert "16 vertices" in out
    assert str(prefix) in out


def test_gen_every_family_round_trips(tmp_path):
    for family in GEN_FAMILIES:
        prefix = tmp_path / family
        assert main(["gen", family, "--n", "4", "--out", str(prefix)]) == 0
        g, td, ly = read_instance(prefix)
        assert check_decomposition(g.n, g.edges, td.bags, td.edges, td.root).ok
        layer_of, partition = layer_index(g.n, ly.layers)
        assert partition.passed and edge_span(g.edges, layer_of).passed


def test_every_gen_family_colors_and_verifies(tmp_path, capsys):
    for family in GEN_FAMILIES:
        inputs = gen_inputs(tmp_path, family, 4)
        out = str(tmp_path / f"run-{family}")
        assert main(["color3", *inputs, "--out", out]) == 0, family
        with open(f"{out}.report.json") as fh:
            k = json.load(fh)["clustering"]
        argv = ["verify", "--gr", inputs[1], "--coloring", f"{out}.coloring",
                "--k", str(k)]
        assert main(argv) == 0, family
        capsys.readouterr()


def test_color3_family_report_matches_independent_recheck(tmp_path, capsys):
    prefix = tmp_path / "tri"
    inputs = gen_inputs(tmp_path, "trigrid", 6)
    capsys.readouterr()
    assert main(["color3", *inputs, "--out", str(prefix)]) == 0
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    assert report["vertices"] == 36
    assert report["clustering"] <= report["bound"]
    coloring = {}
    with open(f"{prefix}.coloring") as fh:
        for line in fh:
            v, c = line.split()
            coloring[int(v)] = int(c)
    assert len(coloring) == 36
    assert set(coloring.values()) <= {1, 2, 3}
    g, _, _ = gen_grid(6, triangulated=True)
    detail = edge_components(g.n, g.edges, coloring)
    assert detail.max_size == report["clustering"]
    out = capsys.readouterr().out
    assert "clustering" in out


def test_color3_accepts_pace_files(tmp_path):
    prefix = tmp_path / "grid"
    assert main(["gen", "grid", "--n", "5", "--out", str(prefix)]) == 0
    code = main(
        [
            "color3",
            "--gr",
            f"{prefix}.gr",
            "--td",
            f"{prefix}.td",
            "--layers",
            f"{prefix}.layers",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 0
    with open(tmp_path / "run.report.json") as fh:
        report = json.load(fh)
    assert report["vertices"] == 25


def test_color3_input_mode_errors(tmp_path, capsys):
    prefix = tmp_path / "grid"
    main(["gen", "grid", "--n", "3", "--out", str(prefix)])
    out = str(tmp_path / "run")
    for argv in (
        ["color3", "--gr", f"{prefix}.gr", "--out", out],
        ["color3", "--out", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2


@pytest.mark.parametrize("declared", [9, 4])
def test_color3_refuses_a_td_header_for_another_vertex_count(
    tmp_path, monkeypatch, capsys, declared
):
    """The ``.td`` header's n must be the ``.gr``'s, whether or not the bags
    stay inside 1..n; the pair is refused before the colorer runs."""
    def colorer_reached(*args):
        raise AssertionError("three_color_lists ran")

    monkeypatch.setattr(cli, "three_color_lists", colorer_reached)
    inputs = gen_inputs(tmp_path, "path", 5)
    td = tmp_path / "path5.td"
    text = td.read_text()
    assert text.startswith("s td 4 2 5\n")
    td.write_text(text.replace("s td 4 2 5", f"s td 4 2 {declared}", 1))
    assert main(["color3", *inputs, "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {td}: line 1: 's td' header declares n = {declared} "
        "but the graph has 5 vertices\n"
    )
    assert not (tmp_path / "run.coloring").exists()


def test_color3_delta_is_an_argparse_error(tmp_path, capsys):
    """The degree is measured from the graph, so there is none to declare."""
    inputs = gen_inputs(tmp_path, "grid", 4)
    with pytest.raises(SystemExit) as exc:
        main(["color3", *inputs, "--delta", "4", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --delta 4" in capsys.readouterr().err


def test_color3_group_budget_overrun_exits_1(tmp_path, monkeypatch, capsys):
    def overrun(*args, **kwargs):
        raise GroupBudgetError("max_pairs_per_group", "stage-2 layer 2: group 0")

    monkeypatch.setattr(cli, "three_color_lists", overrun)
    inputs = gen_inputs(tmp_path, "grid", 3)
    code = main(["color3", *inputs, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_color3_corrupted_view_exits_1(tmp_path, monkeypatch, capsys):
    """A class view that fails validation is an internal fault (exit 1),
    not an input error (exit 2), and the error line names the layer where
    it failed, with the witness in that layer's ids."""
    from clustercolor import threecolor

    class_view = threecolor._class_view
    inputs = gen_inputs(tmp_path, "trigrid", 6)
    for part, layer in ((0, 1), (1, 4)):
        corrupt = without_first_vertex(class_view, part)
        monkeypatch.setattr(threecolor, "_class_view", corrupt)
        assert main(["color3", *inputs, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: stage-1 layer {layer}: enlarged decomposition invalid: "
            "vertex-coverage axiom fails at vertex 0\n"
        )


def test_color3_refusal_exits_1_and_names_the_stage(tmp_path, capsys):
    g, ltd = spine_path(40)
    prefix = tmp_path / "spine"
    pace.write_graph(g, f"{prefix}.gr")
    pace.write_td(ltd.td, g.n, f"{prefix}.td")
    pace.write_layering(ltd.layering, f"{prefix}.layers")
    code = main(
        ["color3", "--gr", f"{prefix}.gr", "--td", f"{prefix}.td",
         "--layers", f"{prefix}.layers", "--out", str(tmp_path / "run")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "stage-1 layer 1" in err


def test_color3_names_the_failed_axiom(tmp_path, capsys):
    prefix = tmp_path / "p"
    assert main(["gen", "path", "--n", "5", "--out", str(prefix)]) == 0
    gr, td, layers = f"{prefix}.gr", f"{prefix}.td", f"{prefix}.layers"
    with open(layers) as fh:
        lines = fh.readlines()
    short = tmp_path / "short.layers"
    short.write_text("".join(lines[:-1]))
    with open(gr) as fh:
        header, *edges = fh.readlines()
    assert header == "p tw 5 4\n"
    chord = tmp_path / "chord.gr"
    chord.write_text("p tw 5 5\n" + "".join(edges) + "1 5\n")
    out = str(tmp_path / "run")
    for graph, layering, line in (
        (gr, short, "error: invalid layering: partition axiom fails at vertex 4\n"),
        (chord, layers,
         "error: invalid decomposition: edge-coverage axiom fails at edge (0, 4)\n"),
    ):
        argv = ["color3", "--gr", str(graph), "--td", td, "--layers", str(layering),
                "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err == line


@pytest.mark.parametrize(
    "rows, witness",
    [
        # A stray id n + 1 on a line of its own, and on a line with a vertex.
        (["1", "2", "3", "4", "5", "6"], 5),
        (["1", "2 6", "3", "4", "5"], 5),
        # Vertex 1 (0 in the library's ids) moved out for a stray id: the
        # vertex left out is named before any stray id.
        (["6", "2", "3", "4", "5"], 0),
        # The smallest stray id is named, wherever it stands.
        (["1 60", "2", "3", "4", "5", "9"], 8),
    ],
)
def test_color3_names_a_stray_layering_id(tmp_path, capsys, rows, witness):
    """A layering id outside 1..n is a partition failure, named like any
    other, even though no vertex has a layer to index it by."""
    prefix = tmp_path / "p"
    assert main(["gen", "path", "--n", "5", "--out", str(prefix)]) == 0
    layers = tmp_path / "stray.layers"
    layers.write_text("".join(f"{row}\n" for row in rows))
    argv = ["color3", "--gr", f"{prefix}.gr", "--td", f"{prefix}.td",
            "--layers", str(layers), "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: invalid layering: partition axiom fails at vertex {witness}\n"
    )


def test_color3_ignores_duplicate_edge_lines(tmp_path, capsys):
    """Repeated and reversed edge lines leave the coloring and the report as
    the clean file gives them, with the distinct edges counted."""
    inputs = gen_inputs(tmp_path, "trigrid", 6)
    gr = inputs[1]
    with open(gr) as fh:
        header, *lines = fh.readlines()
    extra = lines[::3] + [" ".join(line.split()[::-1]) + "\n" for line in lines[::4]]
    noisy = tmp_path / "noisy.gr"
    noisy.write_text(f"p tw 36 {len(lines) + len(extra)}\n" + "".join(lines + extra))
    outputs = []
    for name, graph in (("clean", gr), ("noisy", str(noisy))):
        out = str(tmp_path / name)
        assert main(["color3", "--gr", graph, *inputs[2:], "--out", out]) == 0
        with open(f"{out}.coloring", "rb") as fh:
            coloring = fh.read()
        with open(f"{out}.report.json") as fh:
            report = json.load(fh)
        assert report.pop("coloring_file") == f"{out}.coloring"
        outputs.append((coloring, report))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["edges"] == len(lines)


def test_color3_builds_no_objects_and_validates_each_class_once(
    tmp_path, monkeypatch
):
    """color3 runs on the parsed lists: no Graph, TreeDecomposition or
    Layering is built; the input is validated once and each nonempty layer
    class's view once; one component pass per class plus the final one."""
    from clustercolor import graph, threecolor, twocolor, verify

    inputs = gen_inputs(tmp_path, "trigrid", 20)
    rows = pace.read_rows(inputs[5])
    nonempty = len({i % 3 for i, row in enumerate(rows) if row})
    assert nonempty == 3
    calls = {"validate": 0, "components": 0, "objects": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    validate = counted("validate", graph.check_decomposition)
    components = counted("components", verify.edge_components)
    for module in (graph, twocolor, threecolor):
        monkeypatch.setattr(module, "check_decomposition", validate)
    for module in (verify, twocolor, threecolor):
        monkeypatch.setattr(module, "edge_components", components)
    for cls in (graph.Graph, graph.TreeDecomposition, graph.Layering):
        monkeypatch.setattr(cls, "__init__", counted("objects", cls.__init__))
    assert main(["color3", *inputs, "--out", str(tmp_path / "run")]) == 0
    assert calls == {
        "validate": 1 + nonempty,
        "components": nonempty + 1,
        "objects": 0,
    }


def _shuffled_files(g, ltd, seed, prefix, root=0):
    """Write the instance rooted at ``root``, with its vertex ids permuted by
    the seed, its edge lines shuffled and some reversed; return the permuted
    instance."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in sorted(g.edges)]
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    td = TreeDecomposition(
        [[perm[v] for v in bag] for bag in ltd.td.bags], ltd.td.edges, root
    )
    ly = Layering([[perm[v] for v in row] for row in ltd.layering.layers])
    with open(f"{prefix}.gr", "w") as fh:
        fh.write(f"p tw {g.n} {len(edges)}\n")
        fh.writelines(f"{u + 1} {v + 1}\n" for u, v in edges)
    pace.write_td(td, g.n, f"{prefix}.td")
    pace.write_layering(ly, f"{prefix}.layers")
    return Graph(g.n, edges), LayeredTreeDecomposition(td, ly)


@pytest.mark.parametrize(
    "build, every_root",
    [
        (lambda: gen_grid(12, triangulated=True), True),
        (lambda: gen_rect_grid(6, 40), False),
        (lambda: gen_path(60), False),
    ],
    ids=["trigrid", "rect_grid", "path"],
)
@pytest.mark.parametrize("seed", [3, 8])
def test_color3_colors_as_three_color_does(tmp_path, capsys, build, every_root, seed):
    """``write_td`` writes a decomposition's root as node 1, where ``color3``
    roots it, so the files color as the rooted decomposition does in
    memory: at every root of the triangulated 12-grid, and at the first,
    middle and last root of the others."""
    g, ltd, _ = build()
    last = ltd.td.node_count - 1
    roots = range(last + 1) if every_root else (0, last // 2, last)
    prefix = str(tmp_path / "x")
    argv = ["color3", "--gr", f"{prefix}.gr", "--td", f"{prefix}.td",
            "--layers", f"{prefix}.layers", "--out", prefix]
    for root in roots:
        pg, pltd = _shuffled_files(g, ltd, seed, prefix, root)
        assert main(argv) == 0
        expected = three_color_lists(*lists_of(pg, pltd)).coloring
        with open(f"{prefix}.coloring") as fh:
            assert fh.read() == "".join(
                f"{v} {c}\n" for v, c in sorted(expected.items())
            ), root


# SHA-256 of color3's outputs on the triangulated 10x10 grid from gen:
# report.json with the --out prefix replaced by "RUN" (it holds the
# constants chain, "cluster_factor": 4 among them), and the coloring file.
TRIGRID_10_REPORT_SHA256 = (
    "874b7513be087cd2f54b3a9ec1dc3714471b43c0d67156a099aff2a96fb2bea2"
)
TRIGRID_10_COLORING_SHA256 = (
    "bfc2440f3c31a621af12e908b9731de19df6fcfb5c92a4ff526d5f74d15d8859"
)


def test_color3_output_bytes_are_pinned(tmp_path, capsys):
    inputs = gen_inputs(tmp_path, "trigrid", 10)
    out = str(tmp_path / "run")
    assert main(["color3", *inputs, "--out", out]) == 0
    with open(f"{out}.report.json", encoding="utf-8") as fh:
        report = fh.read().replace(out, "RUN").encode()
    with open(f"{out}.coloring", "rb") as fh:
        coloring = fh.read()
    assert hashlib.sha256(report).hexdigest() == TRIGRID_10_REPORT_SHA256
    assert hashlib.sha256(coloring).hexdigest() == TRIGRID_10_COLORING_SHA256


# The benchmark's three workloads, as bench/workloads.json generates them,
# with the clustering and the SHA-256 of the .coloring that color3 gives at
# seed 1.
BENCH_INSTANCES = {
    "trigrid-wide": (
        lambda: gen_grid(100, triangulated=True),
        18,
        "b2466cb758ab91a25dc1c728f303dc43b735cc71b1d88532e9298904080bfc15",
    ),
    "path-long": (
        lambda: gen_path(1000),
        2,
        "2e91afe9bee6dbc25cfa7837dcc1b14ecb1bfdea9d3e6c049c0ba24e105b9760",
    ),
    "rect-deep": (
        lambda: gen_rect_grid(6, 300),
        12,
        "1b7b4bd67f59e41f17cf1374f11557958c0faab87756d252cae88fa8289d7b97",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_INSTANCES))
def test_color3_bench_instances_are_pinned(tmp_path, capsys, name):
    """Each bench instance, its vertex ids permuted by
    ``random.Random(1).shuffle`` as bench/run.py permutes them at seed 1,
    colors to pinned bytes and clustering."""
    build, clustering, digest = BENCH_INSTANCES[name]
    g, ltd, _ = build()
    perm = list(range(g.n))
    random.Random(1).shuffle(perm)
    td = ltd.td
    prefix = str(tmp_path / name)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    pace.write_graph(Graph(g.n, edges), f"{prefix}.gr")
    bags = [[perm[v] for v in bag] for bag in td.bags]
    pace.write_td(TreeDecomposition(bags, td.edges, td.root), g.n, f"{prefix}.td")
    rows = [[perm[v] for v in layer] for layer in ltd.layering.layers]
    pace.write_layering(Layering(rows), f"{prefix}.layers")
    inputs = ["--gr", f"{prefix}.gr", "--td", f"{prefix}.td"]
    inputs += ["--layers", f"{prefix}.layers"]
    assert main(["color3", *inputs, "--out", prefix]) == 0
    with open(f"{prefix}.report.json", encoding="utf-8") as fh:
        assert json.load(fh)["clustering"] == clustering
    with open(f"{prefix}.coloring", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("name", sorted(BENCH_INSTANCES))
def test_bench_instances_cluster_alike_at_other_seeds(name, seed):
    """Banding reads only node depths, so each bench instance keeps its
    clustering whatever its vertex ids: at seeds 2 and 3, permuted as
    bench/run.py permutes them, it clusters as at seed 1."""
    build, clustering, _ = BENCH_INSTANCES[name]
    g, ltd, _ = build()
    result = three_color_lists(*lists_of(*permuted(g, ltd, seed)))
    assert result.clustering == clustering


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collecting):
    """A command runs with the cyclic collector paused, and main leaves it
    enabled or disabled as it found it, whether the command exits 0, 1 or 2."""
    inputs = gen_inputs(tmp_path, "path", 5)
    g, ltd = spine_path(40)
    spine = str(tmp_path / "spine")
    pace.write_graph(g, f"{spine}.gr")
    pace.write_td(ltd.td, g.n, f"{spine}.td")
    pace.write_layering(ltd.layering, f"{spine}.layers")
    refused = ["--gr", f"{spine}.gr", "--td", f"{spine}.td"]
    refused += ["--layers", f"{spine}.layers"]
    invalid = [*inputs[:5], f"{spine}.layers"]
    during = []
    colorer = cli.three_color_lists

    def spying(*args):
        during.append(gc.isenabled())
        return colorer(*args)

    monkeypatch.setattr(cli, "three_color_lists", spying)
    out = ["--out", str(tmp_path / "run")]
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in ((inputs, 0), (refused, 1), (invalid, 2)):
            assert main(["color3", *argv, *out]) == code
            assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert during == [False] * 3


# SHA-256 of the .gr, .td and .layers files gen writes for each family, at
# --n 5 and the kst defaults --s 2 --t 3.
GEN_FILES_SHA256 = {
    "grid": (
        "f99e7c2682642d1cc483a48c66546fbf885cdf333d2a3baecd93c1de40b38b93",
        "5265ffa5941aa2d351011a8665c609334069ee9edce3641ff52a786ce94b9f78",
        "046d2e60e44db3b2789f6dd9533aafcf593b4268125457bc8738dd8a2b221481",
    ),
    "trigrid": (
        "4d45591c78eb7bf47001596a0fd35a0ca54c1dd83ae2a8c44bc65779d3c33cdc",
        "5265ffa5941aa2d351011a8665c609334069ee9edce3641ff52a786ce94b9f78",
        "046d2e60e44db3b2789f6dd9533aafcf593b4268125457bc8738dd8a2b221481",
    ),
    "kst": (
        "1393b389f9e04eb40b5fefde9afb80f9123b3bfbcdbeb80bd2b68bda46e5755f",
        "895fe7fa8855814b835dffd66e35ebb8ceb64a03000a1960fbd0112f1d250856",
        "5d454bdef31923296587c2fad6c14047233e9b268dce50671188b9e14450f4b8",
    ),
    "path": (
        "ace521ab6e3b17c513e3b481c8186eb0e7fe8647c3101450dffa1efc7f2741f3",
        "5fd172a8ecb2608646864e61755c89598ae4c67152edc56f51216ef887caa8aa",
        "f6b49467f595b1a44e442c198b3df4d221e88efcaabc26254f8e0ad4f79b6242",
    ),
}


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_gen_file_bytes_are_pinned(tmp_path, capsys, family):
    prefix = tmp_path / family
    assert main(["gen", family, "--n", "5", "--out", str(prefix)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"{family}.{ext}").read_bytes()).hexdigest()
        for ext in ("gr", "td", "layers")
    )
    assert digests == GEN_FILES_SHA256[family]


def test_verify_exit_codes_and_detail(tmp_path, capsys):
    gr = tmp_path / "p3.gr"
    pace.write_graph(Graph(3, [(0, 1), (1, 2)]), gr)
    coloring = tmp_path / "p3.coloring"
    coloring.write_text("0 1\n1 1\n2 1\n")

    assert main(["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "3"]) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["ok"] and detail["clustering"] == 3

    assert main(["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "2"]) == 1
    detail = json.loads(capsys.readouterr().out)
    assert not detail["ok"] and detail["clustering"] == 3


def test_verify_skips_blank_lines_and_padding_in_the_coloring_file(tmp_path, capsys):
    inputs = gen_inputs(tmp_path, "path", 3)
    capsys.readouterr()
    details = []
    for name, text in (
        ("compact", "0 1\n1 2\n2 1\n"),
        ("padded", "\n  0 1\n\n1\t2  \n   \n2 1\n\n"),
    ):
        coloring = tmp_path / f"{name}.coloring"
        coloring.write_text(text)
        argv = ["verify", "--gr", inputs[1], "--coloring", str(coloring), "--k", "1"]
        assert main(argv) == 0, name
        details.append(capsys.readouterr().out)
    assert details[0] == details[1]
    assert json.loads(details[0])["ok"]


def test_verify_rejects_malformed_coloring_files(tmp_path, capsys):
    gr = tmp_path / "p2.gr"
    pace.write_graph(Graph(2, [(0, 1)]), gr)

    def run(text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        return main(["verify", "--gr", str(gr), "--coloring", str(path), "--k", "1"])

    assert run("0 1 2\n") == 2
    assert run("0 x\n") == 2
    assert run("0 1\n") == 2
    assert run("0 1\n0 2\n1 1\n") == 2
    assert run("0 1\n7 1\n") == 2
    assert capsys.readouterr().err.count("error:") == 5


def test_verify_reads_the_coloring_file_as_ascii(tmp_path, capsys):
    """A non-ASCII digit is not a vertex id, in the coloring file as in
    every other input: the Arabic-Indic zero is refused, not read as 0. The
    error names the file and the line of the first non-ASCII byte, with
    lines counted as the parsers count them."""
    gr = tmp_path / "p2.gr"
    gr.write_text("p tw 2 1\n1 2\n")
    coloring = tmp_path / "c.coloring"
    coloring.write_bytes(b"\xd9\xa0 1\n1 1\n")
    argv = ["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {coloring}: line 1: non-ASCII byte 0xd9\n"
    coloring.write_text("0 1\n1 1\n")
    gr.write_bytes(b"p tw 2 1\r1 2\n\xff\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {gr}: line 3: non-ASCII byte 0xff\n"


def test_every_parse_error_names_its_file(tmp_path, capsys):
    """verify reads two files and color3 three, so each parse error names
    the file as well as the line."""
    gr = tmp_path / "p3.gr"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    coloring = tmp_path / "c.coloring"
    coloring.write_text("0 1\n1 x\n2 1\n")
    argv = ["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {coloring}: line 2: expected two integers\n"
    coloring.write_text("0 1\n1 2\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {coloring}: coloring file is missing vertex 2\n"
    coloring.write_text("0 1\n1 2\n2 1\n")
    gr.write_text("p tw 3 2\n1 x\n2 3\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {gr}: line 2: non-integer edge endpoint\n"

    inputs = gen_inputs(tmp_path, "path", 3)
    layers, td = inputs[5], inputs[3]
    out = ["--out", str(tmp_path / "run")]
    with open(layers, "a") as fh:
        fh.write("x\n")
    assert main(["color3", *inputs, *out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {layers}: line 4: non-integer vertex id\n"
    inputs = gen_inputs(tmp_path, "path", 3)
    with open(td, "a") as fh:
        fh.write("b\n")
    assert main(["color3", *inputs, *out]) == 2
    assert capsys.readouterr().err == f"error: {td}: line 5: bag line missing id\n"


def test_verify_rejects_malformed_graph_files_like_read_edges(tmp_path, capsys):
    coloring = tmp_path / "c.coloring"
    coloring.write_text("0 1\n1 2\n2 1\n")
    malformed = {
        "header": "p td 3 2\n1 2\n2 3\n",
        "endpoint": "p tw 3 2\n1 2\n2 x\n",
        "range": "c lead\np tw 3 2\n1 2\n2 4\n",
        "loop": "p tw 3 2\n1 2\n3 3\n",
        "count": "p tw 3 3\n1 2\n\n2 3\n",
    }
    for name, text in malformed.items():
        gr = tmp_path / f"{name}.gr"
        gr.write_text(text)
        with pytest.raises(PaceParseError) as err:
            pace.read_edges(gr)
        argv = ["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "3"]
        assert main(argv) == 2, name
        assert capsys.readouterr().err == f"error: {err.value}\n", name


def test_verify_ignores_duplicate_edge_lines(tmp_path, capsys):
    coloring = tmp_path / "c.coloring"
    coloring.write_text("0 1\n1 1\n2 2\n3 1\n")
    details = []
    for name, text in (
        ("plain", "p tw 4 2\n1 2\n2 3\n"),
        ("repeated", "p tw 4 4\n1 2\n2 3\n2 1\n1 2\n"),
    ):
        gr = tmp_path / f"{name}.gr"
        gr.write_text(text)
        argv = ["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "2"]
        assert main(argv) == 0, name
        details.append(json.loads(capsys.readouterr().out))
    assert details[0] == details[1]
    assert details[0]["clustering"] == 2 and details[0]["ok"]


def test_unknown_family_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "hexes", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    prefix = tmp_path / "mod"
    proc = subprocess.run(
        [sys.executable, "-m", "clustercolor", "gen", "path", "--n", "3",
         "--out", str(prefix)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    g, td, ly = read_instance(prefix)
    assert g.n == 3 and ly.m == 3


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_quietly(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clustercolor", "gen", "kst",
             "--out", str(tmp_path / "kst")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_verify_with_a_closed_stdout_exits_141_quietly(tmp_path, capsys):
    """The reader is gone before ``verify`` prints its JSON verdict."""
    inputs = gen_inputs(tmp_path, "path", 3)
    coloring = tmp_path / "p3.coloring"
    coloring.write_text("0 1\n1 2\n2 1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clustercolor", "verify", "--gr", inputs[1],
             "--coloring", str(coloring), "--k", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def _in_512_mb(*argv):
    """Run ``python argv`` on this checkout's source in a child limited to
    512 MB of address space."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    limit = (512 << 20, 512 << 20)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )


def test_header_counts_are_not_trusted_before_the_lines_confirm_them(tmp_path):
    """A header may declare a billion bags or vertices. In a child limited
    to 512 MB of address space, ``read_bags``, ``verify`` and ``color3``
    still refuse such files with their usual messages and exit codes: none
    sizes anything from the header count before the lines that follow
    confirm it."""
    td = tmp_path / "huge.td"
    td.write_text("s td 1000000000 1 1\nb 1 1\n")
    gr = tmp_path / "huge.gr"
    gr.write_text("p tw 1000000000 0\n")
    coloring = tmp_path / "one.coloring"
    coloring.write_text("0 1\n")
    read = _in_512_mb(
        "-c", "import sys; from clustercolor.pace import read_bags; "
        "read_bags(sys.argv[1])", str(td)
    )
    assert read.returncode == 1
    assert read.stderr.splitlines()[-1] == (
        f"clustercolor.errors.PaceParseError: {td}: "
        "line 1: bag 2 of 1..1000000000 is never given"
    )
    verify = _in_512_mb(
        "-m", "clustercolor", "verify", "--gr", str(gr),
        "--coloring", str(coloring), "--k", "1"
    )
    assert (verify.returncode, verify.stderr) == (
        2, f"error: {coloring}: coloring file is missing vertex 1\n"
    )
    small_td = tmp_path / "one.td"
    small_td.write_text("s td 1 1 1000000000\nb 1 1\n")
    layers = tmp_path / "one.layers"
    layers.write_text("1\n")
    color3 = _in_512_mb(
        "-m", "clustercolor", "color3", "--gr", str(gr), "--td", str(small_td),
        "--layers", str(layers), "--out", str(tmp_path / "run")
    )
    assert (color3.returncode, color3.stderr) == (
        2, "error: invalid layering: partition axiom fails at vertex 1\n"
    )


def test_a_huge_header_over_an_edge_line_sizes_no_name_table_by_it(tmp_path):
    """The ``.gr`` reader's name table is bounded by the file, not by the
    header: a billion-vertex header over one edge line still reaches the
    coloring check in 512 MB."""
    gr = tmp_path / "huge.gr"
    gr.write_text("p tw 1000000000 1\n1 2\n")
    coloring = tmp_path / "one.coloring"
    coloring.write_text("0 1\n")
    verify = _in_512_mb(
        "-m", "clustercolor", "verify", "--gr", str(gr),
        "--coloring", str(coloring), "--k", "1"
    )
    assert (verify.returncode, verify.stderr) == (
        2, f"error: {coloring}: coloring file is missing vertex 1\n"
    )


COMMANDS_IN_ONE_PROCESS = """
import json, sys
from clustercolor.cli import main
p = sys.argv[1]
files = ["--gr", p + ".gr", "--td", p + ".td", "--layers", p + ".layers"]
assert main(["gen", "trigrid", "--n", "4", "--out", p]) == 0
assert main(["color3", *files, "--out", p]) == 0
assert main(["verify", "--gr", p + ".gr", "--coloring", p + ".coloring", "--k", "16"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_the_commands_load_every_module_of_the_package(tmp_path):
    """``gen``, ``color3`` and ``verify`` run in a fresh interpreter and
    between them import every module of the package but ``__main__``, so
    no module is left that no command reaches."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    package = os.path.join(src, "clustercolor")
    modules = {
        f"clustercolor.{name[:-3]}".removesuffix(".__init__")
        for name in os.listdir(package)
        if name.endswith(".py") and name != "__main__.py"
    }
    proc = subprocess.run(
        [sys.executable, "-c", COMMANDS_IN_ONE_PROCESS, str(tmp_path / "tri")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "clustercolor.cli" in modules
    assert modules <= loaded, sorted(modules - loaded)
