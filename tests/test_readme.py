"""The README's code runs as documented."""

import argparse
import re
import shlex
import shutil
from pathlib import Path

from sntorsion.cli import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_excludes():
    section = README.read_text().split("\n## Library example\n", 1)[1]
    namespace: dict = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), namespace)
    # the block asserts the verdict itself; this checks that it ran
    assert namespace["verdict"] == "excluded"


def test_shell_examples_run_and_exclude(tmp_path, monkeypatch, capsys):
    # the examples read the bundled tables by their path from the repository
    # root and write s7.tbl to the working directory
    tables = Path("src") / "sntorsion" / "data" / "tables"
    shutil.copytree(README.parent / tables, tmp_path / tables)
    monkeypatch.chdir(tmp_path)
    section = README.read_text().split("\nExamples:\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [
        shlex.split(line) for line in block.splitlines() if line.strip()[:1] not in ("", "#")
    ]
    assert [argv[:2] for argv in commands] == [
        ["sntorsion", "solve"], ["sntorsion", "solve"], ["sntorsion", "chartable"],
        ["sntorsion", "solve"], ["sntorsion", "verify-paper"],
    ]
    for argv in commands:
        rc = main(argv[1:])
        out = capsys.readouterr().out
        assert rc == EXIT_OK, argv
        if argv[1] == "solve":
            assert "\n  verdict: excluded\n" in out, argv


def test_command_line_synopsis_names_every_option_of_each_subcommand():
    section = README.read_text().split("\n## Command line\n", 1)[1]
    synopsis = re.search(r"```\n(.*?)```", section, re.S).group(1)
    named: dict[str, set[str]] = {}
    for line in synopsis.splitlines():
        if line.startswith("sntorsion "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert named.keys() == subparsers.choices.keys()
    for command, parser in subparsers.choices.items():
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert named[command] == options - {"--help"}, command
