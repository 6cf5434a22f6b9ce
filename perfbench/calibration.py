"""A fixed piece of work that measures how fast the machine is right now.

On a shared host the speed a process gets drifts by tens of percent from
second to second and from minute to minute, and every process on the host
feels it alike. The benchmark times this probe in its own process right
before and right after each command, and scales the command's wall time by
`REFERENCE_S` over the probe's time, so a command's reported seconds are
what it would have taken on a machine where the probe takes `REFERENCE_S`. The probe does what fedsim does most, in the same proportions:
small softmax-regression steps on sampled batches, a coordinate-wise
trimmed mean, and Python-level loops and dicts. It is part of the
benchmark, never of the program, so a change to fedsim cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the median of `probe()` on a shared 2-vCPU Xeon VM (numpy 2.4.6,
# OpenBLAS, one BLAS thread). Only the scale of the reported times depends
# on it; changing it would break comparison with earlier runs.
REFERENCE_S = 0.09

_REPS = 80


def probe() -> float:
    """Wall seconds for the fixed work; its inputs never change."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((560, 60))
    y = rng.integers(0, 10, 560)
    w = np.zeros((60, 10))
    updates = rng.standard_normal((20, 610))
    rows = np.arange(56)
    t0 = time.perf_counter()
    for _ in range(_REPS):
        for _ in range(20):
            idx = rng.permutation(560)[:56]
            xb = x[idx]
            z = xb @ w
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[rows, y[idx]] -= 1.0
            w -= 0.01 * (xb.T @ p) / 56
        trimmed = np.sort(updates, axis=0)[4:-4].mean(axis=0)
        sum({i: float(trimmed[i]) for i in range(0, 610, 7)}.values())
    return time.perf_counter() - t0
