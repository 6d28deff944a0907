"""The README Quickstart and the command tour of docs/reproduction.md run
as written."""

import re
import shlex
from pathlib import Path

import pytest

from fouriergit.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
REPRODUCTION = ROOT / "docs" / "reproduction.md"


def test_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2, "README.md lacks the exact and sampled blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["noisy"].kind == "sampled_reconstructed"


def _fouriergit_commands(text):
    """(argv, key=value tokens shown after it) for each `$ fouriergit`
    command of the console blocks, in order. A `\\` ends a continued line;
    `...` and `# ...` comments are not shown output."""
    commands = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            argv = shlex.split(command)
            if argv[0] != "fouriergit":
                continue
            tokens = [tok for line in shown.splitlines()
                      for tok in line.partition("#")[0].split() if "=" in tok]
            commands.append((argv[1:], tokens))
    return commands


def test_reproduction_commands_print_what_the_docs_show(
    tmp_path, monkeypatch, capsys
):
    commands = _fouriergit_commands(REPRODUCTION.read_text())
    assert [argv[0] for argv, _ in commands] == [
        "report", "model", "model", *["plan"] * 6, "sweep", "shots-demo",
    ]
    monkeypatch.chdir(tmp_path)
    for argv, tokens in commands:
        code = main(argv)
        printed = capsys.readouterr().out.split()
        assert code == 0, argv
        missing = [tok for tok in tokens if tok not in printed]
        assert not missing, (argv, missing)
