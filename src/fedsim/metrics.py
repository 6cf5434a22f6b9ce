"""Evaluation metrics: test error rate, attack success rate, cost saving."""

from __future__ import annotations

import numpy as np

from . import models
from .attacks import Trigger, embed_trigger
from .data import Dataset


def test_error_rate(spec: models.ModelSpec, w, test: Dataset) -> float:
    """Fraction of test inputs the model misclassifies."""
    if test.size < 1:
        raise ValueError("empty test set")
    preds = models.predict(spec, w, test.inputs)
    return float(np.mean(preds != test.labels))


def attack_success_rate(
    spec: models.ModelSpec, w, test: Dataset, trigger: Trigger, target_label: int
) -> float:
    """Fraction of triggered non-target inputs predicted as the target.

    Inputs whose ground truth already equals the target label are excluded
    from the denominator.
    """
    keep = test.labels != target_label
    if not np.any(keep):
        raise ValueError("test set contains only target-label examples")
    triggered = embed_trigger(test.inputs[keep], trigger)
    preds = models.predict(spec, w, triggered)
    return float(np.mean(preds == target_label))


def cost_saving(total_rounds: int, exact_rounds_per_client: dict) -> tuple[dict, float]:
    """Per-client cost-saving percentage (T - T_r) / T * 100 and its mean."""
    if total_rounds <= 0:
        raise ValueError("total_rounds must be positive")
    if not exact_rounds_per_client:
        raise ValueError("no clients to account for")
    cp = {}
    for cid, tr in exact_rounds_per_client.items():
        if not (0 <= tr <= total_rounds):
            raise ValueError(f"client {cid}: exact rounds {tr} outside [0, {total_rounds}]")
        cp[cid] = (total_rounds - tr) / total_rounds * 100.0
    acp = float(np.mean(list(cp.values())))
    return cp, acp
