"""Cross-module integration paths not covered by the per-module suites:
multi-step local updates through training and recovery, the MNIST config
branch, and the median rule inside recovery."""

import json
import re
import struct

import numpy as np
import pytest

from conftest import CHASH, assert_both_accept, build_setup, train_and_load
from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig
from fedsim.cli import main as cli_main
from fedsim.data import gen_synthetic
from fedsim.flengine import HistoryStore, train
from fedsim.models import ModelSpec
from fedsim.recovery import RecoveryParams, fedrecover, train_from_scratch


def write_idx(dir_path, n, seed, side=28):
    """Small random side x side (MNIST: 28 x 28) IDX pair in the real wire
    format."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    img = dir_path / f"images_{seed}.idx"
    lab = dir_path / f"labels_{seed}.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img, lab


class TestMultiStepLocalUpdates:
    def make(self, l, attack=None, malicious=()):
        dataset = gen_synthetic(3, 6, 60, 3.0, seed=44)
        return build_setup(
            spec=ModelSpec("logreg", 6, 3, l2=0.05),
            dataset=dataset,
            n_clients=6,
            rule=AggregationRule("fedavg"),
            eta=0.1,
            batch_size=16,
            seed=44,
            attack=attack,
            malicious=malicious,
            l=l,
        )

    def test_training_runs_and_changes_with_l(self, tmp_path):
        final1 = train(self.make(1), 10, tmp_path / "l1.bin", CHASH, (10,))[10]
        final3 = train(self.make(3), 10, tmp_path / "l3.bin", CHASH, (10,))[10]
        assert not np.array_equal(final1, final3)

    def test_recovery_period_one_matches_scratch_with_l3(self, tmp_path):
        setup = self.make(3, attack=AttackConfig(kind="trim", b=2.0), malicious=(1,))
        train(setup, 16, tmp_path / "h.bin", CHASH, ())
        store = HistoryStore.load(tmp_path / "h.bin")
        params = RecoveryParams(
            warmup_rounds=3, correction_period=1, final_tuning_rounds=2, buffer_size=2,
            tau=float("inf"),
        )
        remaining = sorted(set(setup.client_ids) - {1})
        result = fedrecover(store, remaining, setup, params, range(17))
        trace = train_from_scratch(setup, remaining, 16, range(17))
        for t in range(17):
            np.testing.assert_array_equal(result.models[t], trace[t])

    def test_estimation_mode_works_with_l3(self, tmp_path):
        setup = self.make(3, attack=AttackConfig(kind="trim", b=2.0), malicious=(1,))
        _, store = train_and_load(setup, 30, tmp_path / "h.bin", 1e-6)
        params = RecoveryParams(
            warmup_rounds=5, correction_period=5, final_tuning_rounds=3, buffer_size=2,
            tolerance_rate=1e-6,
        )
        result = fedrecover(store, [0, 2, 3, 4, 5], setup, params, (30,))
        assert np.all(np.isfinite(result.models[30]))


def test_median_rule_through_recovery(tmp_path):
    dataset = gen_synthetic(3, 6, 60, 3.0, seed=45)
    setup = build_setup(
        spec=ModelSpec("logreg", 6, 3, l2=0.05),
        dataset=dataset,
        n_clients=7,
        rule=AggregationRule("median"),
        eta=0.1,
        batch_size=16,
        seed=45,
        attack=AttackConfig(kind="trim", b=2.0),
        malicious=(0, 3),
    )
    train(setup, 24, tmp_path / "h.bin", CHASH, ())
    store = HistoryStore.load(tmp_path / "h.bin")
    params = RecoveryParams(
        warmup_rounds=4, correction_period=1, final_tuning_rounds=2, buffer_size=2,
        tau=float("inf"),
    )
    remaining = sorted(set(setup.client_ids) - {0, 3})
    result = fedrecover(store, remaining, setup, params, (24,))
    trace = train_from_scratch(setup, remaining, 24, (24,))
    np.testing.assert_array_equal(result.models[24], trace[24])


MNIST_CFG = """
[experiment]
seed = 9
rounds = 6
learning_rate = 0.05
batch_size = 16
n_clients = 10
malicious_count = 2
aggregation = fedavg
output_dir = runs/mnist

[dataset]
kind = mnist
train_images = {ti}
train_labels = {tl}
test_images = {vi}
test_labels = {vl}

[model]
kind = logreg
l2 = 0.01

[attack]
kind = backdoor
trigger = pixel_patch
trigger_rows = 4
trigger_cols = 4
trigger_value = 1.0
scale = 10.0

[recovery]
warmup_rounds = 3
correction_period = 2
final_tuning_rounds = 1
"""


def test_mnist_config_pipeline(tmp_path, monkeypatch):
    ti, tl = write_idx(tmp_path, 400, seed=1)
    vi, vl = write_idx(tmp_path, 100, seed=2)
    cfg = tmp_path / "mnist.ini"
    cfg.write_text(MNIST_CFG.format(ti=ti, tl=tl, vi=vi, vl=vl))
    monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
    assert cli_main(["train", "-c", str(cfg)]) == 0
    assert cli_main(["recover", "-c", str(cfg), "--method", "fedrecover"]) == 0
    summary = json.loads((tmp_path / "runs" / "mnist" / "summary_fedrecover.json").read_text())
    assert_both_accept(summary)
    assert summary["method"] == "fedrecover"
    assert 0.0 <= summary["ter"] <= 1.0


def test_mnist_images_of_the_wrong_size_are_error_exit(tmp_path, monkeypatch, capsys):
    # 3 x 3 images against the 784 inputs of an MNIST model: the shards
    # are rejected where they enter, naming both dims
    ti, tl = write_idx(tmp_path, 400, seed=1, side=3)
    vi, vl = write_idx(tmp_path, 100, seed=2, side=3)
    cfg = tmp_path / "mnist.ini"
    no_attack = re.sub(r"\[attack\].*?\n\n", "", MNIST_CFG, flags=re.S)
    cfg.write_text(no_attack.format(ti=ti, tl=tl, vi=vi, vl=vl))
    monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path))
    assert cli_main(["train", "-c", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert re.search(r"\b9\b", err) and re.search(r"\b784\b", err), err
