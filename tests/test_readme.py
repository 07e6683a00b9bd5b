"""The README's Quick start block and its command-line examples run as
printed."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lvkernel
from lvkernel.cli import _COMMANDS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(lvkernel.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.762127 vs exact 1.758795\n"


def _cli_examples():
    """(comment, argv) for each `lvkernel` command of the Command line block,
    with its backslash continuations joined; the comment is the last one above
    the command."""
    block = re.search(r"```sh\n(#.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    examples, comment = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            comment = line
        elif line.startswith("lvkernel "):
            examples.append((comment, shlex.split(line)[1:]))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_cli_examples_cover_every_subcommand():
    assert len(CLI_EXAMPLES) == 8
    assert {argv[0] for _, argv in CLI_EXAMPLES} == set(_COMMANDS)


@pytest.mark.parametrize("comment, argv", CLI_EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, (_, argv) in enumerate(CLI_EXAMPLES)])
def test_cli_example_runs(comment, argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 0, err
    named = re.search(r"\(CSV: ([^)]+)\)", comment)
    if named:
        assert out.splitlines()[0] == named.group(1)
    else:
        assert comment.endswith("(a bare number)")
        float(out)
