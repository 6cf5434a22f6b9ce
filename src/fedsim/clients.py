"""Client-side local computation: mini-batch scheduling and model updates.

Batches are a pure function of (global seed, client id, round index): each
epoch's shuffle is derived from the epoch number, and round t consumes
batches t*l .. t*l + l - 1 of that deterministic sequence. Replaying a
round therefore reproduces the exact batch a client used in the original
training, which the recovery engine depends on.
"""

from __future__ import annotations

import numpy as np

from . import models
from .numcore import STREAM_BATCH, RngStream, derive_seed


class BatchSampler:
    """Deterministic without-replacement mini-batch plan for one client."""

    def __init__(self, global_seed: int, client_id: int, n_examples: int, batch_size: int):
        """`FlSetup` checks that the shard is nonempty, the config that
        batch_size >= 1."""
        self.global_seed = global_seed
        self.client_id = client_id
        self.n = n_examples
        self.batch_size = min(batch_size, n_examples)
        self.per_epoch = -(-n_examples // self.batch_size)  # ceil
        self._epoch = -1
        self._perm = None

    def batch(self, step: int) -> np.ndarray:
        """Read-only index array for global batch number `step`.

        The permutation of the epoch last used is kept, so a sequential pass
        derives each epoch's permutation once.
        """
        epoch, slot = divmod(step, self.per_epoch)
        if epoch != self._epoch:
            rng = RngStream(derive_seed(self.global_seed, STREAM_BATCH, self.client_id, epoch))
            perm = rng.permutation(self.n)
            perm.flags.writeable = False
            self._epoch, self._perm = epoch, perm
        lo = slot * self.batch_size
        return self._perm[lo : lo + self.batch_size]

    def round_batches(self, round_idx: int, l: int) -> list[np.ndarray]:
        base = round_idx * l
        return [self.batch(base + j) for j in range(l)]


def client_local_update(
    spec: models.ModelSpec,
    w: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
    sampler: BatchSampler,
    round_idx: int,
    l: int,
    eta: float,
) -> np.ndarray:
    """Model update a client reports for the given round.

    l = 1 returns the mini-batch gradient at w. l > 1 runs l local SGD
    steps with rate eta and returns (w - w_after) / eta, which coincides
    with the gradient definition at l = 1. The config guarantees l >= 1.
    """
    if l == 1:
        idx = sampler.batch(round_idx)
        return models.gradient(spec, w, inputs[idx], labels[idx])
    cur = w
    for idx in sampler.round_batches(round_idx, l):
        g = models.gradient(spec, cur, inputs[idx], labels[idx])
        g *= eta
        cur = np.subtract(cur, g, out=g)  # cur - eta * g, in g's buffer
    # In place, as (w - cur) / eta: `cur -= w; cur /= -eta` would give -0.0
    # where w and cur agree.
    np.subtract(w, cur, out=cur)
    cur /= eta
    return cur
