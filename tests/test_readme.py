"""The README's command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

from clustercolor.cli import main

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
