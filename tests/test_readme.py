"""The README's examples run as written."""

import argparse
import importlib
import json
import re
import shlex
from pathlib import Path

import clustercolor
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


def command_names():
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


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
        with open(f"{prefix}.report.json", encoding="utf-8") as fh:
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
    commands = command_names()
    assert sorted(listed) == sorted(commands)
    for command, parser in commands.items():
        offered = {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert set(re.findall(r"`(--[a-z-]+)", listed[command])) == offered, command


def test_readme_library_tour_names_only_what_each_module_has():
    """Every backticked identifier in a "Library tour" row is an attribute
    of that row's module; a CLI command name is not an identifier here."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert rows
    commands = command_names()
    for module_name, contents in rows:
        module = importlib.import_module(f"clustercolor.{module_name}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            assert name in commands or hasattr(module, name), (module_name, name)


def test_readme_object_entry_points_exist():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"object entry points?\s*\(([^)]*)\)", text).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    for name in names:
        assert name in clustercolor.__all__, name
