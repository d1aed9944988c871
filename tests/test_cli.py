"""End-to-end checks for the command-line frontend."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from clustercolor import (
    Graph,
    GroupBudgetError,
    LayeredTreeDecomposition,
    PaceParseError,
    gen_grid,
    layered_width,
    monochromatic_components,
    validate_layering,
    validate_tree_decomposition,
)
from clustercolor import cli, pace
from clustercolor.cli import GEN_FAMILIES, main
from helpers import spine_path, without_vertex_zero


def read_instance(prefix):
    g = pace.read_graph(f"{prefix}.gr")
    td = pace.read_td(f"{prefix}.td")
    ly = pace.read_layering(f"{prefix}.layers")
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
    assert validate_tree_decomposition(g, td).ok
    assert validate_layering(g, ly).ok
    assert layered_width(LayeredTreeDecomposition(td, ly)) == 2
    out = capsys.readouterr().out
    assert "16 vertices" in out
    assert str(prefix) in out


def test_gen_every_family_round_trips(tmp_path):
    for family in GEN_FAMILIES:
        prefix = tmp_path / family
        assert main(["gen", family, "--n", "4", "--out", str(prefix)]) == 0
        g, td, ly = read_instance(prefix)
        assert validate_tree_decomposition(g, td).ok
        assert validate_layering(g, ly).ok


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
    detail = monochromatic_components(g, coloring)
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


def test_color3_rejects_degree_above_declared_bound(tmp_path, capsys):
    inputs = gen_inputs(tmp_path, "grid", 4)
    code = main(["color3", *inputs, "--delta", "1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_color3_group_budget_overrun_exits_1(tmp_path, monkeypatch, capsys):
    def overrun(*args, **kwargs):
        raise GroupBudgetError("max_pairs_per_group", "stage-2 layer 2: group 0")

    monkeypatch.setattr(cli, "three_color", overrun)
    inputs = gen_inputs(tmp_path, "grid", 3)
    code = main(["color3", *inputs, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_color3_corrupted_view_exits_1(tmp_path, monkeypatch, capsys):
    """A layer view that fails validation is an internal fault (exit 1),
    not an input error (exit 2), and the error line names where it failed."""
    from clustercolor import threecolor

    monkeypatch.setattr(
        threecolor, "_layer_view", without_vertex_zero(threecolor._layer_view)
    )
    inputs = gen_inputs(tmp_path, "trigrid", 6)
    assert main(["color3", *inputs, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "stage-1 layer 1: " in err
    assert "vertex-coverage axiom fails at vertex 0" in err


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
    assert not detail["clustering_ok"]

    lists = tmp_path / "p3.lists"
    lists.write_text("0 1 2\n1 1\n2 2 3\n")
    code = main(
        ["verify", "--gr", str(gr), "--coloring", str(coloring),
         "--lists", str(lists), "--k", "3"]
    )
    assert code == 1
    detail = json.loads(capsys.readouterr().out)
    assert detail["clustering_ok"] and not detail["lists_ok"]
    assert detail["list_witness"] == 2


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


def test_verify_rejects_malformed_graph_files_like_read_graph(tmp_path, capsys):
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
            pace.read_graph(gr)
        argv = ["verify", "--gr", str(gr), "--coloring", str(coloring), "--k", "3"]
        assert main(argv) == 2, name
        assert capsys.readouterr().err == f"error: {err.value}\n", name


def test_verify_ignores_duplicate_edge_lines(tmp_path, capsys):
    coloring = tmp_path / "c.coloring"
    coloring.write_text("0 1\n1 1\n2 2\n3 1\n")
    lists = tmp_path / "c.lists"
    lists.write_text("0 1\n1 1 2\n2 2\n3 1 3\n")
    details = []
    for name, text in (
        ("plain", "p tw 4 2\n1 2\n2 3\n"),
        ("repeated", "p tw 4 4\n1 2\n2 3\n2 1\n1 2\n"),
    ):
        gr = tmp_path / f"{name}.gr"
        gr.write_text(text)
        argv = ["verify", "--gr", str(gr), "--coloring", str(coloring),
                "--lists", str(lists), "--k", "2"]
        assert main(argv) == 0, name
        details.append(json.loads(capsys.readouterr().out))
    assert details[0] == details[1]
    assert details[0]["clustering"] == 2 and details[0]["lists_ok"]


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
