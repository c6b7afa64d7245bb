"""How fast the host runs right now, measured with a fixed loop.

The benchmark's machine is shared: other tenants slow its cores by up to a
half, for seconds or for minutes at a time.  Process CPU time leaves out the
time spent waiting for a core, but not a core that runs slower.  So the
benchmark runs a short burst of this fixed loop between any two calls it
times, and scales each call's time by how long the bursts around it took
against ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean burst time

The loop is the same kind of work as rssinfo's: half of it Python calls and
float arithmetic over small numpy arrays, as in the quadrature and the
kernels, and half of it passes over a fresh array of 10^6 floats, as in the
Monte Carlo oracle.  Each half alone follows the other kind of work less
well.  It calls nothing in rssinfo, so no change to the program can change
it.  A scaled time reads in seconds of a host on which one burst takes
``REFERENCE_S``.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 1500
REFERENCE_S = 0.01  # about one burst on the 2-core machine of the recorded baseline
_X = np.linspace(0.01, 0.99, 15)
_Y = np.random.default_rng(0).random(1_000_000)


def burst() -> float:
    """Process CPU seconds taken by one fixed loop (about 10 ms)."""
    t = time.process_time()
    s = 0.0
    for k in range(ITERATIONS):
        s += float(np.dot(_X, np.exp(-_X * (k * 1e-4)))) + math.fsum((s, 1.0, -s))
    z = np.log(_Y)
    z *= 0.5
    np.exp(z, out=z)
    s += float(z.sum())
    return time.process_time() - t
