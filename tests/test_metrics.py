import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import randint_below
from fedsim.attacks import Trigger, embed_trigger
from fedsim.data import Dataset
from fedsim.metrics import attack_success_rate, cost_saving
from fedsim.metrics import test_error_rate as error_rate
from fedsim.models import ModelSpec, predict
from fedsim.numcore import RngStream

SPEC = ModelSpec("logreg", input_dim=4, num_classes=3, l2=0.0)
TRIG = Trigger(kind="every_kth", k=2, value=1.0)


def weights_predicting(cls, spec=SPEC):
    """Logreg weights that output `cls` for every input in [0, 1]^dim."""
    w = np.zeros(spec.param_dim)
    w[spec.num_classes * spec.input_dim + cls] = 100.0  # bias of the class
    return w


def make_dataset(labels, dim=4, num_classes=3, seed=0):
    rng = RngStream(seed)
    labels = np.asarray(labels, dtype=np.int64)
    x = rng.uniforms(len(labels) * dim).reshape(len(labels), dim)
    return Dataset(x, labels, num_classes)


class TestTer:
    def test_memorizing_model_zero_error(self):
        ds = make_dataset([1, 1, 1, 1])
        assert error_rate(SPEC, weights_predicting(1), ds) == 0.0

    def test_constant_predictor_on_balanced_set(self):
        ds = make_dataset(list(range(3)) * 10)
        w = weights_predicting(0)
        assert error_rate(SPEC, w, ds) == pytest.approx(2.0 / 3.0)

    def test_matches_loop_oracle(self):
        rng = RngStream(1)
        ds = make_dataset([randint_below(rng, 3) for _ in range(40)], seed=2)
        w = rng.normals(SPEC.param_dim)
        wrong = 0
        for i in range(ds.size):  # per-example loop oracle
            if predict(SPEC, w, ds.inputs[i][None])[0] != ds.labels[i]:
                wrong += 1
        assert error_rate(SPEC, w, ds) == pytest.approx(wrong / ds.size)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([])


class TestAsr:
    def test_hardwired_target_model(self):
        ds = make_dataset([1, 2, 1, 2, 0])
        assert attack_success_rate(SPEC, weights_predicting(0), ds, TRIG, 0) == 1.0

    def test_denominator_excludes_target(self):
        # 10 examples, 4 with the target label: denominator is 6
        ds = make_dataset([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        w = weights_predicting(0)
        asr = attack_success_rate(SPEC, w, ds, TRIG, 0)
        assert asr == 1.0
        w2 = weights_predicting(1)
        asr2 = attack_success_rate(SPEC, w2, ds, TRIG, 0)
        assert asr2 == 0.0

    def test_matches_loop_oracle(self):
        rng = RngStream(3)
        ds = make_dataset([randint_below(rng, 3) for _ in range(30)], seed=4)
        w = rng.normals(SPEC.param_dim)
        hits, total = 0, 0
        for i in range(ds.size):
            if ds.labels[i] == 0:
                continue
            total += 1
            if predict(SPEC, w, embed_trigger(ds.inputs[i][None], TRIG))[0] == 0:
                hits += 1
        assert attack_success_rate(SPEC, w, ds, TRIG, 0) == pytest.approx(hits / total)

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=30))
    def test_denominator_property(self, labels):
        if all(l == 0 for l in labels):
            return
        ds = make_dataset(labels, seed=5)
        asr = attack_success_rate(SPEC, weights_predicting(0), ds, TRIG, 0)
        assert asr == 1.0  # constant-0 model hits every non-target example


class TestCostSaving:
    def test_uniform(self):
        cp, acp = cost_saving(100, {i: 12 for i in range(5)})
        assert acp == 88.0
        assert all(v == 88.0 for v in cp.values())

    def test_scratch_zero(self):
        cp, acp = cost_saving(50, {0: 50, 1: 50})
        assert acp == 0.0

    def test_historical_hundred(self):
        cp, acp = cost_saving(50, {0: 0, 1: 0})
        assert acp == 100.0

    def test_monotone_in_exact_rounds(self):
        _, acp1 = cost_saving(100, {0: 10})
        _, acp2 = cost_saving(100, {0: 20})
        assert acp2 < acp1
