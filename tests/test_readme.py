"""The README's commands, test paths and example stay live.

Every ``scubasearch ...`` command of the README's CLI block must parse with
the CLI's own parser, every test file its install section names must exist,
and its Python example must run, so a renamed flag, a moved test file or a
name the package stops exporting fails here, not in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from scubasearch import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    """The text of the README's ``## title`` section."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def blocks(text, language=""):
    """The fenced code blocks of ``text`` opened by ```` ```language ````."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def commands():
    """Each ``scubasearch ...`` command of the CLI section's first block,
    ``\\`` continuations joined."""
    lines = blocks(section("CLI"))[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("scubasearch ")]


def test_cli_block_names_every_subcommand():
    assert {argv[1] for argv in commands()} == {"gen", "run", "sweep", "degn", "graph"}


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_commands_parse(argv):
    # The parser refuses an unknown flag or value with ValueError.
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]


def test_named_test_paths_exist():
    paths = set(re.findall(r"tests/[\w/]+\.py", section("Install and test")))
    assert "tests/test_readme.py" in paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []


def test_python_example_runs(capsys):
    examples = blocks(README, "python")
    assert examples
    for code in examples:
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
