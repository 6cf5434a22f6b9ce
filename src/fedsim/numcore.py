"""Dense vector helpers, deterministic counter-based RNG streams, and
finite-difference oracles shared by the rest of the simulator.

All model parameters and updates are flat 1-D float64 arrays. Randomness
everywhere flows through :class:`RngStream`, an explicit splitmix64-style
generator, so that a run is a pure function of its seed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags: every consumer of randomness derives its seed with a
# distinct tag so streams never alias across subsystems.
STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_DATAGEN = 2
STREAM_PARTITION = 3
STREAM_ATTACK = 4
STREAM_DETECT = 5
STREAM_FINETUNE = 6
STREAM_MALICIOUS = 7


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(global_seed: int, stream_tag: int, client_id: int = 0, round_idx: int = 0) -> int:
    """Derive an independent 64-bit seed from (tag, client, round).

    The fields are folded in sequentially through the bijective mixer, so
    distinct field tuples give distinct seeds in practice. Same inputs
    always give the same output.
    """
    h = global_seed & _MASK64
    for field in (stream_tag, client_id, round_idx):
        h = mix64((h + _GOLDEN + (field & _MASK64)) & _MASK64)
    return h


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class RngStream:
    """Counter-based splitmix64 generator.

    Draw ``i`` is ``mix64(seed + i * golden)``: the stream is stateless up
    to its counter, replays identically for a given seed, and is never
    shared between owners.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * _GOLDEN) & _MASK64)

    def _next_block(self, n: int) -> np.ndarray:
        """Vectorized batch of n raw 64-bit draws."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        states = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        return _mix64_array(states)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self._next_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        u1 = np.maximum(u1, 2.0**-53)  # keep log() finite
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint_below(self, n: int) -> int:
        """Integer in [0, n) via 64-bit multiply-shift."""
        if n <= 0:
            raise ValueError("randint_below needs n >= 1")
        return (self.next_u64() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n), via argsort of 64-bit keys."""
        keys = self._next_block(n)
        return np.argsort(keys, kind="stable").astype(np.int64)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n), in draw order."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        return self.permutation(n)[:k]

    def gamma(self, alpha: float) -> float:
        """One Gamma(alpha, 1) draw (Marsaglia-Tsang squeeze method)."""
        if alpha <= 0.0:
            raise ValueError("gamma needs alpha > 0")
        if alpha < 1.0:
            # boost: G(a) = G(a+1) * U^(1/a)
            u = max(self.uniform(), 2.0**-53)
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        while True:
            x = float(self.normals(1)[0])
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = self.uniform()
            if u < 1.0 - 0.0331 * x**4:
                return d * v
            if u > 0.0 and np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(v)):
                return d * v

    def dirichlet(self, alpha: float, k: int) -> np.ndarray:
        """Symmetric Dirichlet(alpha, ..., alpha) draw over k categories."""
        g = np.array([self.gamma(alpha) for _ in range(k)])
        return g / g.sum()


def as_vector(values, *, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 parameter/update vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def linf_norm(v) -> float:
    """Max absolute coordinate of a nonempty vector.

    Validates in the same pass: a NaN propagates through the max, so a
    non-finite entry shows as a non-finite result and raises ValueError.
    """
    m = float(np.abs(v).max())
    if not math.isfinite(m):
        raise ValueError("linf_norm argument contains non-finite entries")
    return m


def finite_diff_gradient(f: Callable[[np.ndarray], float], w, h: float) -> np.ndarray:
    """Central-difference gradient oracle: (f(w+h e_j) - f(w-h e_j)) / 2h.

    Raises if any evaluation of f is non-finite, which signals a broken
    loss surface rather than a numerics issue here.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    w = as_vector(w, name="w")
    grad = np.empty_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        fp = float(f(w + e))
        fm = float(f(w - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite loss evaluation at coordinate {j}")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad
