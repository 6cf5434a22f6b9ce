"""Server-side aggregation rules and the global update step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RULE_KINDS = ("fedavg", "median", "trimmed_mean")


@dataclass(frozen=True)
class AggregationRule:
    kind: str
    k: int = 0  # trimmed_mean only


def _stack(updates) -> np.ndarray:
    """The updates as the rows of one finite float64 matrix.

    Every round reports at least one d-vector per client, so only the
    values are checked: the whole matrix in one pass, and only when that
    check fails does it look for the update to name.
    """
    mat = np.asarray(np.stack(updates), dtype=np.float64)
    if not np.isfinite(mat).all():
        bad = next(i for i, row in enumerate(mat) if not np.isfinite(row).all())
        raise ValueError(f"update[{bad}] contains non-finite entries")
    return mat


def fedavg(updates, sizes) -> np.ndarray:
    """Average weighted by local dataset sizes: one shard length per
    update, each >= 1 as `config.build_setup` guarantees."""
    mat = _stack(updates)
    w = np.asarray(sizes, dtype=np.float64)
    w = w / w.sum()
    return w @ mat


def coord_median(updates) -> np.ndarray:
    """Coordinate-wise median; even counts use the mean of the middle two."""
    mat = _stack(updates)
    return np.median(mat, axis=0)


def trimmed_mean(updates, k: int) -> np.ndarray:
    """Per coordinate: sort, drop the k largest and k smallest, average.
    The config guarantees more than 2k updates, and so does `cmd_recover`."""
    mat = _stack(updates)
    n = mat.shape[0]
    if k == 0:
        return mat.mean(axis=0)
    srt = np.sort(mat, axis=0)
    return srt[k : n - k].mean(axis=0)


def aggregate(rule: AggregationRule, updates, sizes) -> np.ndarray:
    if rule.kind == "fedavg":
        return fedavg(updates, sizes)
    if rule.kind == "median":
        return coord_median(updates)
    return trimmed_mean(updates, rule.k)


def apply_update(w: np.ndarray, aggregated: np.ndarray, eta: float) -> np.ndarray:
    """One global step: w - eta * aggregated. `aggregated` comes from
    `aggregate`, whose `_stack` checked every update, and the config
    guarantees eta > 0."""
    return w - eta * aggregated
