"""The README's examples run as written."""

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


def test_readme_python_example_runs():
    """The library example runs and gives the values its comments state."""
    section = README.read_text(encoding="utf-8").split("```python\n", 1)[1]
    namespace = {}
    exec(section.split("```", 1)[0], namespace)
    result = namespace["result"]
    assert result.clustering == 18
    assert sorted(set(result.coloring.values())) == [1, 2, 3]


def test_readme_lists_exactly_each_commands_options():
    text = README.read_text(encoding="utf-8")
    listed = dict(
        re.findall(
            r"^`(\w+)` [^\n]*takes these options:\n\n((?:(?:- |  )[^\n]*\n)+)",
            text,
            re.M,
        )
    )
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(listed) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        offered = {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert set(re.findall(r"`(--[a-z-]+)", listed[command])) == offered, command
