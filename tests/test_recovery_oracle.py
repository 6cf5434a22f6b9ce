"""The program's recovery loop against its reference copy
(`tests/reference_recovery.py`), byte for byte.

Both loops run on the same trained history and the same `FlSetup`: the
program's on the remaining clients, the reference on the detected ones.
They must agree on each client's exact rounds, the abnormality count,
the threshold, the instrumented error bound and the `.tobytes()` of every
kept model. `np.array_equal` treats -0.0 and +0.0 as equal, so only a byte
comparison sees a rewrite that flips the sign of a zero.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_recovery as ref
from conftest import train_and_load
from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger, simulate_detection
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import FlSetup
from fedsim.models import ModelSpec
from fedsim.numcore import RngStream
from fedsim.recovery import RecoveryParams, fedrecover, historical_only


def assert_same_recovery(got, want):
    assert got.exact_rounds_per_client == want.exact_rounds_per_client
    assert got.abnormality_count == want.abnormality_count
    assert got.tau == want.tau
    assert got.measured_m == want.measured_m
    assert_same_models(got.models, want.models)


def assert_same_models(got, want):
    assert list(got) == list(want)
    for t in want:
        assert got[t].tobytes() == want[t].tobytes(), t


def assert_loops_agree(history, detected, setup, params, keep):
    """Both `fedrecover`s, with and without `instrument`, and both
    `historical_only`s give the same results. Returns the program's
    uninstrumented recovery."""
    remaining = sorted(set(setup.client_ids) - set(detected))
    for instrument in (False, True):
        got = fedrecover(history, remaining, setup, params, keep, instrument=instrument)
        want = ref.fedrecover(history, detected, setup, params, keep, instrument=instrument)
        assert_same_recovery(got, want)
        if not instrument:
            plain = got
    assert_same_models(
        historical_only(history, remaining, setup, keep),
        ref.historical_only(history, detected, setup, keep),
    )
    return plain


@st.composite
def loop_cases(draw, attack):
    """A tiny federation (d <= 60, n <= 12, T <= 40) under `attack`, its
    detection and the recovery parameters. Every rule and threshold mode is
    drawn; a trimmed mean keeps k small enough for the clients left, and at
    least two rounds fall between warm-up and final tuning."""
    kind = draw(st.sampled_from(["logreg", "ridge", "mlp"]))
    classes, features = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    hidden = draw(st.integers(2, 4)) if kind == "mlp" else 0
    spec = ModelSpec(kind, features, classes, hidden=hidden, l2=draw(st.sampled_from([0.0, 0.05])))
    n = draw(st.integers(max(classes, 3), 12))
    clients = st.integers(0, n - 1)
    malicious = frozenset(draw(st.lists(clients, min_size=1 if attack else 0, max_size=n - 1)))
    assume(len(malicious) < n)
    seed = draw(st.integers(0, 2**16))
    fnr = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    fpr = draw(st.sampled_from([0.0, 0.1, 0.3]))
    detected = simulate_detection(malicious, range(n), fnr, fpr, RngStream(seed))
    left = n - len(detected)
    assume(left >= 1)
    rule = draw(st.sampled_from(["fedavg", "median"] + ["trimmed_mean"] * (left >= 3)))
    k = draw(st.integers(1, (left - 1) // 2)) if rule == "trimmed_mean" else 0
    local_steps = draw(st.integers(1, 2))
    buffer_size = draw(st.integers(1, 3))
    warmup = draw(st.integers(buffer_size + 1, buffer_size + 4))
    final = draw(st.integers(0, 3))
    mode = draw(st.sampled_from([None, "given", math.inf]))
    params = RecoveryParams(
        warmup_rounds=warmup,
        correction_period=draw(st.integers(1, 6)),
        final_tuning_rounds=final,
        buffer_size=buffer_size,
        tolerance_rate=draw(st.sampled_from([1e-6, 0.01, 0.1, 0.5])),
        tau=draw(st.floats(0.01, 2.0)) if mode == "given" else mode,
        hvp_mode="exact_quadratic"
        if kind == "ridge" and local_steps == 1 and draw(st.booleans())
        else "lbfgs",
    )
    federation = dict(
        spec=spec,
        n=n,
        rule=AggregationRule(rule, k),
        attack=attack,
        adaptive=draw(st.booleans()),
        lam=draw(st.sampled_from([3.0, 8.0])),
        malicious=malicious,
        local_steps=local_steps,
        rounds=draw(st.integers(warmup + final + 2, 40)),
        seed=seed,
    )
    return federation, detected, params


def federation_setup(fed) -> FlSetup | None:
    """The case's `FlSetup`, or None when a client's shard is empty."""
    spec = fed["spec"]
    dataset = gen_synthetic(spec.num_classes, spec.input_dim, 30, 3.0, seed=fed["seed"])
    parts = partition_noniid(dataset, fed["n"], 1.0 / spec.num_classes, fed["seed"])
    if not all(len(p) for p in parts):
        return None
    attack = None
    if fed["attack"] == "trim":
        attack = AttackConfig(kind="trim", b=2.0)
    elif fed["attack"] == "backdoor":
        trigger = Trigger(kind="every_kth", k=2, value=1.0)
        attack = AttackConfig(
            kind="backdoor", trigger=trigger, target_label=0, lam=fed["lam"], adaptive=fed["adaptive"]
        )
    return FlSetup(
        spec=spec,
        rule=fed["rule"],
        eta=0.2,
        batch_size=8,
        l=fed["local_steps"],
        seed=fed["seed"],
        shards=[(dataset.inputs[idx], dataset.labels[idx]) for idx in parts],
        attack=attack,
        malicious=fed["malicious"],
    )


class TestSameAsReferenceLoop:
    @pytest.mark.parametrize("attack", [None, "trim", "backdoor"])
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_trained_histories(self, tmp_path, attack, data):
        fed, detected, params = data.draw(loop_cases(attack))
        setup = federation_setup(fed)
        assume(setup is not None)
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            alpha = params.tolerance_rate
            _, history = train_and_load(setup, fed["rounds"], f"{tmp}/h.bin", alpha)
            assert_loops_agree(history, detected, setup, params, range(fed["rounds"] + 1))

    def test_zero_global_difference_is_singular(self, tmp_path):
        # nothing detected and no attack: every exact round retraces the
        # original, so each global difference is zero and every estimate
        # attempt meets a singular system and is fixed
        spec = ModelSpec("logreg", 4, 3, l2=0.05)
        fed = dict(
            spec=spec, n=5, rule=AggregationRule("fedavg"), attack=None, malicious=frozenset(),
            local_steps=1, seed=4,
        )
        setup = federation_setup(fed)
        params = RecoveryParams(4, 3, 2, tau=math.inf)
        _, history = train_and_load(setup, 20, tmp_path / "h.bin")
        result = assert_loops_agree(history, (), setup, params, range(21))
        estimated = [t for t in range(20) if not ref._is_exact_round(t, 20, params)]
        assert estimated and result.abnormality_count == 5 * len(estimated)
        assert result.exact_rounds_per_client == {c: 20 for c in range(5)}


class ScriptedHistory:
    """A history of given (model, updates) rounds."""

    def __init__(self, stored):
        self.stored = stored
        self.total_rounds, self.n = len(stored), stored[0][1].shape[0]

    def rounds(self):
        for model, updates in self.stored:
            yield model.copy(), updates.copy()


class ScriptedSetup:
    """One honest client 0 whose exact update at round t is `exact[t]`;
    a round subtracts the update from the model."""

    client_ids, malicious, attack = range(1), frozenset(), None

    def __init__(self, exact):
        self.exact = exact

    def reported_updates(self, w, t, participants, attackers, lam=None, asked=None):
        return {c: self.exact[t].copy() for c in asked}

    def aggregate_step(self, w, reported):
        return w - reported[0]


def scripted_rounds(models, updates):
    return [(np.array(m, float), np.array([u], float)) for m, u in zip(models, updates)]


class TestScriptedFallbacks:
    """Both fallbacks forced on one client, d = 2 or 1, a window of one pair
    and tau = inf, so only an unusable system or a non-finite estimate is
    fixed: warm-up rounds 0 and 1, then round 2 estimated."""

    PARAMS = RecoveryParams(2, 10, 0, buffer_size=1, tau=math.inf)

    def run(self, stored, exact):
        history, setup = ScriptedHistory(stored), ScriptedSetup(exact)
        result = assert_loops_agree(history, (), setup, self.PARAMS, range(4))
        assert result.abnormality_count == 1
        assert result.exact_rounds_per_client == {0: 3}
        return result

    def test_singular_block(self):
        # round 1 leaves dw = (1, 0) orthogonal to dg = (0, 1): sigma = 0 and
        # K is all zeros, so the solve raises LinAlgError
        stored = scripted_rounds([(0, 0), (-1, 0), (0, 0)], [(0, 0)] * 3)
        exact = [np.array(e, float) for e in [(0, 0), (0, 1), (0.5, 0.5)]]
        result = self.run(stored, exact)
        assert result.models[3].tolist() == [-0.5, -1.5]

    def test_overflowing_estimate(self):
        # K = diag(-1e-300, 1e-300) is regular, but its solve for v = 1e200
        # overflows, so the estimate is not finite
        stored = scripted_rounds([(0,), (0,), (-1e200,)], [(0,)] * 3)
        exact = [np.array([e]) for e in (-1e-150, 1e-150, 0.5)]
        result = self.run(stored, exact)
        assert [float(result.models[t][0]) for t in range(4)] == [0.0, 1e-150, 0.0, -0.5]
