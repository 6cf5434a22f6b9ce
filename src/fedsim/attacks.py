"""Poisoning attacks (directed-deviation "trim" attack, scaled backdoor)
and the false-negative/false-positive detection simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .clients import BatchSampler, client_local_update
from .numcore import RngStream


@dataclass(frozen=True)
class Trigger:
    kind: str  # pixel_patch | every_kth
    rows: int = 0
    cols: int = 0
    k: int = 0
    value: float = 1.0


@dataclass(frozen=True)
class AttackConfig:
    kind: str  # trim | backdoor
    b: float = 2.0  # trim: deviation factor
    trigger: Trigger | None = None
    target_label: int = 0
    lam: float = 1.0  # backdoor: update scaling factor
    adaptive: bool = False


def embed_trigger(inputs: np.ndarray, trigger: Trigger) -> np.ndarray:
    """Return a triggered copy of a 2-D batch of inputs.

    pixel_patch treats each input as a square image and overwrites the
    bottom-right rows x cols block (the config guarantees that the dim is
    square and the block fits); every_kth overwrites coordinates
    k-1, 2k-1, ... . Embedding is idempotent.
    """
    x = np.array(inputs, dtype=np.float64)  # a copy
    dim = x.shape[1]
    if trigger.kind == "pixel_patch":
        side = math.isqrt(dim)
        img = x.reshape(-1, side, side)
        img[:, side - trigger.rows :, side - trigger.cols :] = trigger.value
        x = img.reshape(-1, dim)
    else:
        x[:, trigger.k - 1 :: trigger.k] = trigger.value
    return x


def poison_shard_backdoor(
    inputs: np.ndarray, labels: np.ndarray, trigger: Trigger, target_label: int
) -> tuple[np.ndarray, np.ndarray]:
    """Append a trigger-embedded, target-labeled copy of every local
    example. The originals are left untouched; the result is twice the size.
    `config.build_setup` guarantees a nonempty float64/int64 shard.
    """
    forged = embed_trigger(inputs, trigger)
    px = np.concatenate([inputs, forged])
    py = np.concatenate([labels, np.full(labels.shape[0], target_label, dtype=np.int64)])
    return px, py


def backdoor_update(
    spec: models.ModelSpec,
    w: np.ndarray,
    poisoned_inputs: np.ndarray,
    poisoned_labels: np.ndarray,
    sampler: BatchSampler,
    round_idx: int,
    l: int,
    eta: float,
    lam: float,
) -> np.ndarray:
    """lam times the benign-procedure update computed on poisoned data.
    The config guarantees lam > 0, and so does `adaptive_scale`."""
    u = client_local_update(
        spec, w, poisoned_inputs, poisoned_labels, sampler, round_idx, l, eta
    )
    return lam * u


def adaptive_scale(lam: float, m: int, m_prime: int) -> float:
    """Re-scaled factor lam * m / m_prime when only m_prime of m attackers
    survive detection, keeping the total scaling mass constant. Needs
    1 <= m_prime <= m: it applies only while some attacker is undetected."""
    return lam * m / m_prime


def trim_attack_updates(
    benign_updates, n_malicious: int, b: float, rng: RngStream
) -> list[np.ndarray]:
    """Directed-deviation updates for the full-knowledge untargeted attack.

    Per coordinate, with mu the benign mean, lo/hi the benign min/max:
    when mu > 0 the malicious values land just below the benign minimum
    (in [lo/b, lo] if lo > 0, else [b*lo, lo]); when mu <= 0 they land
    just above the benign maximum (in [hi, b*hi] if hi > 0, else
    [hi, hi/b]). One vector per malicious client; the config guarantees
    b > 1.
    """
    mat = np.stack(benign_updates)
    mu = mat.mean(axis=0)
    hi = mat.max(axis=0)
    lo = mat.min(axis=0)

    down = mu > 0
    lows = np.where(down, np.where(lo > 0, lo / b, b * lo), hi)
    highs = np.where(down, lo, np.where(hi > 0, b * hi, hi / b))
    out = []
    for _ in range(n_malicious):
        u = rng.uniforms(mat.shape[1])
        out.append(lows + u * (highs - lows))
    return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def simulate_detection(
    truth_malicious, all_clients, fnr: float, fpr: float, rng: RngStream
) -> frozenset:
    """The clients a detector with exact miss/false-alarm counts flags.

    Exactly round(fnr * m) malicious clients are dropped from the detected
    set and exactly round(fpr * (n - m)) benign clients are added, both
    chosen uniformly. Rounding is to the nearest integer, ties up. The
    config guarantees that both rates lie in [0, 1].
    """
    truth = sorted(truth_malicious)
    benign = sorted(set(all_clients) - set(truth))
    n_miss = _round_half_up(fnr * len(truth))
    n_false = _round_half_up(fpr * len(benign))
    missed = {truth[i] for i in rng.choice(len(truth), n_miss)} if truth else set()
    falsely = {benign[i] for i in rng.choice(len(benign), n_false)} if benign else set()
    return frozenset((set(truth) - missed) | falsely)
