"""Every command of the README's command-line block runs and exits with 0."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from zetakit.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _command_lines():
    """The `zetakit ...` lines of the first ```sh block that has any."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        cmds = [argv[1:] for argv in lines if argv and argv[0] == "zetakit"]
        if cmds:
            return cmds
    return []


COMMANDS = _command_lines()


def test_block_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_exits_zero(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    assert out.getvalue()
