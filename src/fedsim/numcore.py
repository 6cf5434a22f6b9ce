"""Dense vector helpers, deterministic counter-based RNG streams and the
two digests, shared by the rest of the simulator.

All model parameters and updates are flat 1-D float64 arrays. Randomness
everywhere flows through :class:`RngStream`, an explicit splitmix64-style
generator, so that a run is a pure function of its seed.
"""

from __future__ import annotations

import math

import numpy as np

# BLAKE2b and SHA-256 from CPython's built-in modules: `hashlib` would also
# load OpenSSL's libcrypto, a few MB of resident memory for no other use.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_NORMAL_CHUNK = 4096  # Box-Muller pairs built at a time by `RngStream.normals`

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
    """splitmix64 finalizer of each entry of a uint64 array, in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _unit(block: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws as doubles in [0, 1): their top 53 bits."""
    return (block >> np.uint64(11)).astype(np.float64) * 2.0**-53


class RngStream:
    """Counter-based splitmix64 generator.

    Draw ``i`` is ``mix64(seed + i * golden)``: the stream is stateless up
    to its counter, replays identically for a given seed, and is never
    shared between owners.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def _block(self, first: int, n: int) -> np.ndarray:
        """Raw 64-bit draws first+1 .. first+n, vectorized; the counter
        does not move."""
        states = np.arange(first + 1, first + n + 1, dtype=np.uint64)
        states *= np.uint64(_GOLDEN)
        states += np.uint64(self.seed)
        return _mix64_array(states)

    def _next_block(self, n: int) -> np.ndarray:
        """The next n raw 64-bit draws."""
        block = self._block(self.counter, n)
        self.counter += n
        return block

    def uniforms(self, n: int) -> np.ndarray:
        return _unit(self._next_block(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller. Pair i of the m = ceil(n/2)
        pairs takes the stream's uniforms i and m + i and gives normals i
        (cosine) and m + i (sine). The pairs are built a fixed-size chunk
        at a time straight into the output, so the temporaries stay small
        whatever n is."""
        m = (n + 1) // 2
        out = np.empty(2 * m)
        for a in range(0, m, _NORMAL_CHUNK):
            k = min(_NORMAL_CHUNK, m - a)
            u1 = _unit(self._block(self.counter + a, k))
            u2 = _unit(self._block(self.counter + m + a, k))
            np.maximum(u1, 2.0**-53, out=u1)  # keep log() finite
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            np.multiply(r, np.cos(theta), out=out[a : a + k])
            np.multiply(r, np.sin(theta), out=out[m + a : m + a + k])
        self.counter += 2 * m
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n), via argsort of 64-bit keys."""
        keys = self._next_block(n)
        return np.argsort(keys, kind="stable").astype(np.int64, copy=False)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n), in draw order.
        Every caller asks for k <= n: the config bounds the malicious and
        detection counts, and `recovery.fine_tune` checks each class count."""
        return self.permutation(n)[:k]

    def gamma(self, alpha: float) -> float:
        """One Gamma(alpha, 1) draw (Marsaglia-Tsang squeeze method).
        The config guarantees alpha > 0 (`finetune.beta`)."""
        if alpha < 1.0:
            # boost: G(a) = G(a+1) * U^(1/a)
            u = max(float(self.uniforms(1)[0]), 2.0**-53)
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        while True:
            x = float(self.normals(1)[0])
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = float(self.uniforms(1)[0])
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


def linf_norm(v) -> float:
    """Max absolute coordinate of a nonempty vector.

    Validates in the same pass: a NaN propagates through the max, so a
    non-finite entry shows as a non-finite result and raises ValueError.
    """
    m = float(np.abs(v).max())
    if not math.isfinite(m):
        raise ValueError("linf_norm argument contains non-finite entries")
    return m
