"""The README's command-line examples run as written."""

import argparse
import json
import re
import shlex
from pathlib import Path

from clustercolor.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    """The ``clustercolor`` lines of the code block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("clustercolor ")
    ]


def option(argv, name):
    return argv[argv.index(name) + 1]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = command_lines()
    verifies = [argv for argv in commands if argv[0] == "verify"]
    assert verifies
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    # The README says verify rechecks against the clustering color3 reported.
    for argv in verifies:
        prefix = option(argv, "--coloring").removesuffix(".coloring")
        with open(f"{prefix}.report.json") as fh:
            assert int(option(argv, "--k")) == json.load(fh)["clustering"]


def test_readme_lists_exactly_color3s_options():
    text = README.read_text(encoding="utf-8")
    after = text.split("`color3` reads one instance", 1)[1]
    bullets = re.match(r"[^\n]*\n\n((?:(?:- |  )[^\n]*\n)+)", after).group(1)
    documented = set(re.findall(r"`(--[a-z-]+)", bullets))
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    offered = {
        flag
        for action in sub.choices["color3"]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == offered
