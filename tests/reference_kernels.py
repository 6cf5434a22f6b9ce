"""Reference copies of the client-side kernels as they were before they
were rewritten to build their results in place.

The program's `models.gradient`, `clients.client_local_update`,
`RngStream._block` and `RngStream.permutation` must return the same bytes
as these, -0.0 included (`tests/test_kernels.py`). Each body is kept
verbatim; only the names differ.
"""

from __future__ import annotations

import numpy as np

from fedsim.models import ModelSpec
from fedsim.numcore import _GOLDEN


def _split_linear(spec: ModelSpec, w: np.ndarray):
    f, c = spec.input_dim, spec.num_classes
    W = w[: c * f].reshape(c, f)
    b = w[c * f :]
    return W, b


def _split_mlp(spec: ModelSpec, w: np.ndarray):
    f, c, h = spec.input_dim, spec.num_classes, spec.hidden
    o = 0
    W1 = w[o : o + h * f].reshape(h, f)
    o += h * f
    b1 = w[o : o + h]
    o += h
    W2 = w[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = w[o : o + c]
    return W1, b1, W2, b2


def _forward(spec: ModelSpec, w: np.ndarray, x: np.ndarray):
    if spec.kind == "mlp":
        W1, b1, W2, b2 = _split_mlp(spec, w)
        z1 = x @ W1.T + b1
        a1 = np.maximum(z1, 0.0)
        return a1 @ W2.T + b2, z1, a1
    W, b = _split_linear(spec, w)
    return x @ W.T + b, None, None


def gradient(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    s, z1, a1 = _forward(spec, w, x)
    if spec.kind == "ridge":
        err = s.copy()
        err[np.arange(n), y] -= 1.0
        err /= n
    else:
        shifted = s - s.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        err = e / e.sum(axis=1, keepdims=True)
        err[np.arange(n), y] -= 1.0
        err /= n

    if spec.kind == "mlp":
        W2 = _split_mlp(spec, w)[2]
        gW2 = err.T @ a1
        gb2 = err.sum(axis=0)
        back = (err @ W2) * (z1 > 0.0)
        gW1 = back.T @ x
        gb1 = back.sum(axis=0)
        g = np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])
    else:
        gW = err.T @ x
        gb = err.sum(axis=0)
        g = np.concatenate([gW.ravel(), gb])
    return g + spec.l2 * w


def client_local_update(spec, w, inputs, labels, sampler, round_idx, l, eta):
    batches = sampler.round_batches(round_idx, l)
    if l == 1:
        idx = batches[0]
        return gradient(spec, w, inputs[idx], labels[idx])
    cur = w
    for idx in batches:
        g = gradient(spec, cur, inputs[idx], labels[idx])
        cur = cur - eta * g
    return (w - cur) / eta


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def block(seed: int, first: int, n: int) -> np.ndarray:
    """`RngStream(seed)._block(first, n)`."""
    idx = np.arange(first + 1, first + n + 1, dtype=np.uint64)
    states = np.uint64(seed) + idx * np.uint64(_GOLDEN)
    return _mix64_array(states)


def permutation(seed: int, first: int, n: int) -> np.ndarray:
    """`RngStream(seed).permutation(n)` with the counter at `first`."""
    keys = block(seed, first, n)
    return np.argsort(keys, kind="stable").astype(np.int64)
