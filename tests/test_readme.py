"""Every command of the README's command-line block runs and exits with 0,
and its Python example prints what its comments say."""

import contextlib
import io
import math
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


def _python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_python_example_runs_and_prints_what_it_says():
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block(), "README.md", "exec"), namespace)
    zeta0, pole, continued, series = out.getvalue().splitlines()
    assert complex(zeta0) == pytest.approx(-0.25, abs=1e-14)
    first = namespace["report"].poles[0]
    assert (first.location, first.order) == (1.5, 1)
    assert first.residue == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert pole == repr(first)
    assert complex(continued) == pytest.approx(-0.13942, abs=1e-5)
    g = math.gamma        # the Airy zeta(2) in closed form
    assert complex(series) == pytest.approx(3 ** (2 / 3) * g(2 / 3) ** 2 / g(1 / 3) ** 2,
                                            rel=1e-10)
