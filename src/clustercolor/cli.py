"""Command-line frontend.

Subcommands: ``gen`` writes graph/decomposition/layering files for the
built-in instance families, ``color3`` runs the clustered 3-coloring and
writes a coloring file plus a JSON report, and ``verify`` independently
rechecks a coloring file against a clustering limit, printing its verdict
as JSON. ``gen`` and ``color3`` print only a short text summary.

Coloring files hold one ``vertex color`` pair per line with the library's
0-based ids; the PACE formats keep their own 1-based convention.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict

from . import pace
from .errors import GroupBudgetError, PaceParseError
from .generators import gen_grid, gen_kst_instance, gen_path
from .threecolor import three_color_lists
from .verify import edge_components

# Each family's builder: graph plus certified layered decomposition.
_FAMILIES = {
    "grid": lambda a: gen_grid(a.n, triangulated=False),
    "trigrid": lambda a: gen_grid(a.n, triangulated=True),
    "kst": lambda a: gen_kst_instance(a.s, a.t),
    "path": lambda a: gen_path(a.n),
}
GEN_FAMILIES = tuple(_FAMILIES)


def cmd_gen(args) -> int:
    g, ltd, _ = _FAMILIES[args.family](args)
    paths = {
        "graph": f"{args.out}.gr",
        "decomposition": f"{args.out}.td",
        "layering": f"{args.out}.layers",
    }
    pace.write_graph(g, paths["graph"])
    pace.write_td(ltd.td, g.n, paths["decomposition"])
    pace.write_layering(ltd.layering, paths["layering"])
    print(
        f"wrote {args.family} instance: {g.n} vertices, "
        f"{len(g.edges)} edges, {ltd.layering.m} layers"
    )
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    return 0


def cmd_color3(args) -> int:
    n, edges, bags, tree_edges, rows = pace._read_color3_input(
        args.gr, args.td, args.layers
    )
    result = three_color_lists(n, edges, bags, tree_edges, rows)

    coloring_path = f"{args.out}.coloring"
    pace._write(
        coloring_path, "".join(f"{v} {c}\n" for v, c in result.coloring.items())
    )

    report = {
        "command": "color3",
        "vertices": n,
        "edges": result.edge_count,
        "layers": len(rows),
        "clustering": result.clustering,
        "bound": result.constants.g,
        "constants": asdict(result.constants),
        "per_color_max": {str(c): m for c, m in sorted(result.per_color_max.items())},
        "stages": {
            "stage2_fake_edges": result.stage2_fake_edges,
            "stage3_fake_edges": result.stage3_fake_edges,
        },
        "coloring_file": coloring_path,
    }
    report_path = f"{args.out}.report.json"
    pace._write(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"clustering {result.clustering} (bound {result.constants.g}) "
        f"over {n} vertices"
    )
    print(f"  report: {report_path}")
    print(f"  coloring: {coloring_path}")
    return 0


def _read_coloring(path: str, n: int) -> dict[int, int]:
    coloring: dict[int, int] = {}
    for lineno, raw in enumerate(pace._read(path).splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise PaceParseError("expected 'vertex color'", lineno, path)
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise PaceParseError("expected two integers", lineno, path) from None
        if not 0 <= v < n:
            raise PaceParseError(f"vertex {v} out of range", lineno, path)
        if v in coloring:
            raise PaceParseError(f"vertex {v} colored twice", lineno, path)
        coloring[v] = c
    for v in range(n):
        if v not in coloring:
            raise ValueError(f"{path}: coloring file is missing vertex {v}")
    return coloring


def cmd_verify(args) -> int:
    n, edges = pace.read_edges(args.gr)
    coloring = _read_coloring(args.coloring, n)
    report = edge_components(n, edges, coloring)
    detail = {
        "command": "verify",
        "vertices": n,
        "clustering": report.max_size,
        "k": args.k,
        "per_color_max": {str(c): m for c, m in sorted(report.per_color_max.items())},
        "ok": report.max_size <= args.k,
    }
    print(json.dumps(detail, indent=2, sort_keys=True))
    return 0 if detail["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercolor",
        description="Clustered colorings of graphs with layered tree decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance family")
    p_gen.add_argument("family", choices=GEN_FAMILIES)
    p_gen.add_argument("--n", type=int, default=10, help="side length / path length")
    p_gen.add_argument("--s", type=int, default=2, help="small side for kst")
    p_gen.add_argument("--t", type=int, default=3, help="large side for kst")
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(func=cmd_gen)

    p_color = sub.add_parser("color3", help="run the clustered 3-coloring")
    p_color.add_argument("--gr", required=True, help="PACE graph file")
    p_color.add_argument("--td", required=True, help="PACE tree-decomposition file")
    p_color.add_argument("--layers", required=True, help="layering sidecar file")
    p_color.add_argument("--out", required=True, help="output path prefix")
    p_color.set_defaults(func=cmd_color3)

    p_verify = sub.add_parser("verify", help="recheck a coloring file")
    p_verify.add_argument("--gr", required=True, help="PACE graph file")
    p_verify.add_argument("--coloring", required=True, help="vertex color per line")
    p_verify.add_argument("--k", type=int, required=True, help="clustering limit")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The commands make no reference cycles on their success path, so the
    # cyclic collector would only rescan their live objects; it is paused
    # for the command and restored as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        # A buffered stdout meets a closed reader here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: exit as SIGPIPE would, with no error
        # line. Pointing stdout at devnull keeps the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GroupBudgetError, RuntimeError) as exc:
        # A pipeline that missed its certificate. GroupBudgetError is also a
        # ValueError, so it must be caught before the input-error branch.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
