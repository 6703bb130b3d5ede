"""Host-speed calibration: a fixed kernel timed between the ops of a run.

The machine this benchmark was written on is a shared host whose speed
drifts by up to 1.7x within minutes (load on the sibling vCPU), and
process CPU time drifts with wall time.  So every run also times this
kernel, which does not depend on zetakit: pure-Python float and complex
arithmetic, ``math``/``cmath`` calls, small numpy array ops, dict updates
and a pointer chase through a list of 200 000 ints (about 7 MB, past the
core's own caches), the same kinds of work the library does.  The
host's slow spells are mostly slower memory: interleaved with the
workloads' decks on a 2-vCPU Intel Xeon host, the kernel without the
chase followed 0.35 to 0.85 of their swings (log-log slope), and with it
0.85 to 1.07.  The chase runs cold, after the ops have used the caches;
run back to back it stays in cache and follows almost none of them.  run.py times it
between ops, about once per ``EVERY_S`` of op time, and reports times
at the reference speed:

    reported time = measured time * REF_S / mean kernel time of the run

``REF_S`` is a fixed constant (about the kernel's time on that host, run
between ops), so the reported numbers read as seconds on that host at
that speed.  The set-up probes run right after the timed loop and are
scaled by the loop's factor.  A change to zetakit moves the measured time and not the kernel's,
and so shows in full.
"""

import cmath
import math
import random
import time

import numpy as np

REF_S = 4.0e-3          # kernel seconds at the reference speed
EVERY_S = 0.08          # run the kernel after an op once this much op time has passed
CHASE = list(range(200_000))
random.Random(1).shuffle(CHASE)


def kernel():
    s = 0.0
    for i in range(1500):
        s += (i * 0.5) % 7.0
    z = 0j
    for i in range(400):
        z = cmath.exp(-z * 1e-3 + 1j * i * 1e-3) + math.lgamma(1.0 + i * 1e-3)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(25):
        a = np.sqrt(a * 0.5 + 1.0)
    d = {}
    for i in range(800):
        d[i % 517] = [i] * 3
    chase = CHASE
    k = 0
    for i in range(0, 200_000, 40):
        k += chase[chase[i]]
    return s, z, a, d, k


class Calibration:
    """Kernel samples of one run: wall and process-CPU seconds each."""

    def __init__(self):
        self.wall, self.cpu = [], []

    def sample(self):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def wall_factor(self):
        """Multiply a measured wall time by this to get it at the reference speed."""
        return REF_S * len(self.wall) / sum(self.wall)

    def cpu_factor(self):
        return REF_S * len(self.cpu) / sum(self.cpu)
