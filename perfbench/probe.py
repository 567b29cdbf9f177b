"""Host-speed probe: a fixed computation that never imports geomforce.

    python3 perfbench/probe.py

prints the wall time of one probe in seconds.  run.py runs it in its own
fresh process next to every workload run and scales the workload's times by
REFERENCE_S / (mean probe time), so the end-to-end times read in seconds
of a host running at the reference speed.  The shared host this benchmark
was written on changes its speed by up to 1.6x from one half-minute to the
next; the probe slows with it, the program cannot change it, and the mix --
an interpreter loop, sorting, dicts and JSON of small objects, many tiny
numpy calls and wide numpy passes over arrays of 65,536 columns -- is the
mix of the workloads.
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np

# median of 30 probe times on the host the benchmark was written on: a
# 2-vCPU KVM guest, Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, one
# BLAS thread
REFERENCE_S = 0.21


def probe():
    """Seconds one pass of the fixed computation takes."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(80000):
        total += math.sqrt(i) * 0.5
    rng = random.Random(1)
    items = sorted((rng.random(), i, str(i)) for i in range(15000))
    index = {key: value for value, _, key in items}
    total += sum(index[str(i)] for i in range(0, 15000, 3))
    json.dumps([{"x": [value, i, 0.5], "k": key} for value, i, key in items[:5000]])
    v, m = np.ones(3), np.eye(3)
    for _ in range(2000):
        v = m @ v
        v = v / np.linalg.norm(v)
    a = np.random.default_rng(0).standard_normal((35, 65536))
    np.einsum("ij,kj->ikj", a[:6], a[:6]).sum(axis=2)
    np.sin(a) * a
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(probe()))
