"""Time one set-up in a fresh interpreter: import zetakit, build, fill tables.

    python3 perfbench/setup_probe.py PLAN.json

PLAN.json is written by run.py (workloads.setup_plan).  Prints the seconds
from before ``import zetakit`` to the end of the set-up.
"""

import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports neither numpy nor zetakit)


def main():
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    workloads.prepare(plan)
    print(f"{time.perf_counter() - t0:.6f}")


if __name__ == "__main__":
    main()
