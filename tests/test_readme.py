"""Every command of the README's command-line block runs and exits with 0,
and on every catalog model either runs or fails with one clean error line;
its Python example prints what its comments say."""

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


MODELS = {"riemann": ["--model", "riemann"],
          "hurwitz": ["--model", "hurwitz", "--a", "0.25"],
          "airy": ["--model", "airy"],
          "pcf": ["--model", "pcf", "--a", "1"],
          "chf": ["--model", "chf", "--a", "0.5", "--b", "1.5"]}


def _on_model(argv, model):
    """argv with its --model and model parameters replaced by the model's."""
    out, rest = [argv[0]], iter(argv[1:])
    for arg in rest:
        if arg in ("--model", "--a", "--b"):
            next(rest)
        else:
            out.append(arg)
    return out[:1] + MODELS[model] + out[1:]


PAIRS = [(argv, model) for argv in COMMANDS if "--model" in argv for model in MODELS]


@pytest.mark.parametrize("argv, model", PAIRS,
                         ids=[f"{model}: {' '.join(a)}" for a, model in PAIRS])
def test_command_on_every_model(argv, model):
    # exit 0 with output, or exit 1 with exactly one error line and no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_on_model(argv, model))
    if code == 0:
        assert out.getvalue()
    else:
        assert code == 1
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


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
