"""Evaluation metrics: test error rate, attack success rate, cost saving."""

from __future__ import annotations

import numpy as np

from . import models
from .attacks import Trigger, embed_trigger
from .data import Dataset


def test_error_rate(spec: models.ModelSpec, w, test: Dataset) -> float:
    """Fraction of test inputs the model misclassifies; `Dataset` is never empty."""
    preds = models.predict(spec, w, test.inputs)
    return float(np.mean(preds != test.labels))


def attack_success_rate(
    spec: models.ModelSpec, w, test: Dataset, trigger: Trigger, target_label: int
) -> float:
    """Fraction of triggered non-target inputs predicted as the target.

    Inputs whose ground truth already equals the target label are excluded
    from the denominator. `config.build_datasets` guarantees that one is left.
    """
    keep = test.labels != target_label
    triggered = embed_trigger(test.inputs[keep], trigger)
    preds = models.predict(spec, w, triggered)
    return float(np.mean(preds == target_label))


def cost_saving(total_rounds: int, exact_rounds_per_client: dict) -> tuple[dict, float]:
    """Per-client cost-saving percentage (T - T_r) / T * 100 and its mean.
    The config guarantees T >= 1, `cmd_recover` at least one client, and
    each recovery counts T_r in [0, T]."""
    cp = {}
    for cid, tr in exact_rounds_per_client.items():
        cp[cid] = (total_rounds - tr) / total_rounds * 100.0
    acp = float(np.mean(list(cp.values())))
    return cp, acp
