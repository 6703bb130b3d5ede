import json
import os
import subprocess
import sys

HEAVY = ("scipy", "mpmath", "numpy.polynomial")


def test_package_and_cli_load_numpy_only():
    # a fresh interpreter: the test session itself has scipy and mpmath loaded
    code = ("import json, sys; import zetakit, zetakit.cli; "
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == []
