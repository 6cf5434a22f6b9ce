"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    assert_both_accept, finite_diff_gradient, loss, randint_below, smoothness_bound, train_and_load,
)
from test_recovery import compact_system
from fedsim.aggregation import AggregationRule, coord_median, trimmed_mean
from fedsim.attacks import AttackConfig, Trigger, adaptive_scale, simulate_detection
from fedsim.cli import main as cli_main
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import FlSetup, HistoryStore, train
from fedsim.metrics import attack_success_rate, cost_saving
from fedsim.metrics import test_error_rate as error_rate
from fedsim.models import ModelSpec, gradient
from fedsim.numcore import (
    STREAM_DETECT,
    RngStream,
    derive_seed,
    linf_norm,
)
from fedsim.recovery import (
    RecoveryParams,
    fedrecover,
    historical_only,
    lbfgs_hvp,
    predicted_cost,
    theoretical_bound,
    train_from_scratch,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def make_setup(dataset, spec, n_clients, rule, eta, batch_size, seed, q, attack, malicious, l=1):
    parts = partition_noniid(dataset, n_clients, q, seed)
    return FlSetup(
        spec=spec,
        rule=rule,
        eta=eta,
        batch_size=batch_size,
        l=l,
        seed=seed,
        shards=[(dataset.inputs[idx], dataset.labels[idx]) for idx in parts],
        attack=attack,
        malicious=frozenset(malicious),
    )


# ---------------------------------------------------------------- scenario 7/8
# Scaled end-to-end backdoor scenario: 10-class synthetic data (5000
# examples), 20 clients, 4 malicious, logreg, trimmed-mean k=4, T=300,
# scaling factor 10.
S7 = dict(
    seed=202, dim=60, sep=5.0, q=0.1, eta=0.08, l2=0.01, batch=56,
    n_clients=20, per_class=500, classes=10, rounds=300, lam=10.0, trim_k=4,
    malicious=(3, 8, 12, 17),
)


@pytest.fixture(scope="module")
def backdoor_run(tmp_path_factory):
    s = S7
    train_set = gen_synthetic(s["classes"], s["dim"], s["per_class"], s["sep"], seed=s["seed"])
    test_set = gen_synthetic(s["classes"], s["dim"], 100, s["sep"], seed=s["seed"] + 1)
    spec = ModelSpec("logreg", s["dim"], s["classes"], l2=s["l2"])
    trigger = Trigger(kind="every_kth", k=2, value=1.0)
    attack = AttackConfig(
        kind="backdoor", trigger=trigger, target_label=0, lam=s["lam"], adaptive=True
    )
    setup = make_setup(
        train_set, spec, s["n_clients"], AggregationRule("trimmed_mean", s["trim_k"]),
        s["eta"], s["batch"], s["seed"], s["q"], attack, s["malicious"],
    )
    path = tmp_path_factory.mktemp("bd") / "history.bin"
    params = RecoveryParams(
        warmup_rounds=10, correction_period=10, final_tuning_rounds=5,
        buffer_size=2, tolerance_rate=1e-6,
    )
    trace, store = train_and_load(setup, s["rounds"], path, params.tolerance_rate, bytes(32))
    poisoned = trace[s["rounds"]]
    return {
        "setup": setup, "store": store, "poisoned": poisoned, "path": path,
        "test": test_set, "trigger": trigger, "params": params,
        "malicious": frozenset(s["malicious"]),
    }


def test_criterion_1_exact_hvp_recovery_is_exact(tmp_path):
    with criterion(1, "exact-Hessian recovery matches retraining to 1e-8"):
        seed = 17
        classes, dim = 10, 4  # parameter dimension (4 + 1) * 10 = 50
        dataset = gen_synthetic(classes, dim, 120, 4.0, seed=seed)
        spec = ModelSpec("ridge", dim, classes, l2=0.1)
        assert spec.param_dim == 50
        attack = AttackConfig(kind="trim", b=2.0)
        setup = make_setup(
            dataset, spec, 10, AggregationRule("fedavg"), 0.1, 32, seed,
            1.0 / classes, attack, (0, 5),
        )
        train(setup, 200, tmp_path / "h.bin", bytes(32), ())
        store = HistoryStore.load(tmp_path / "h.bin")
        params = RecoveryParams(
            warmup_rounds=5, correction_period=10, final_tuning_rounds=5,
            buffer_size=2, tau=math.inf, hvp_mode="exact_quadratic",
        )
        remaining = sorted(set(setup.client_ids) - {0, 5})
        result = fedrecover(store, remaining, setup, params, range(201))
        trace = train_from_scratch(setup, remaining, 200, range(201))
        gap = max(
            float(np.max(np.abs(result.models[t] - trace[t])))
            for t in range(201)
        )
        assert gap <= 1e-8, f"max per-round gap {gap}"


def test_criterion_2_recovery_gap_bound_holds(tmp_path):
    with criterion(2, "recovered-vs-scratch gap obeys the contraction bound"):
        seed = 23
        classes, dim = 5, 8
        mu = 0.1
        dataset = gen_synthetic(classes, dim, 100, 4.0, seed=seed)
        spec = ModelSpec("logreg", dim, classes, l2=mu)
        lsmooth = smoothness_bound(spec, dataset.inputs)
        eta = min(1.0 / mu, 1.0 / lsmooth)
        attack = AttackConfig(kind="trim", b=2.0)
        setup = make_setup(
            dataset, spec, 10, AggregationRule("fedavg"), eta, 10**6, seed,
            1.0 / classes, attack, (1, 7),
        )
        train(setup, 300, tmp_path / "h.bin", bytes(32), ())
        store = HistoryStore.load(tmp_path / "h.bin")
        params = RecoveryParams(
            warmup_rounds=20, correction_period=10, final_tuning_rounds=5,
            buffer_size=2, tau=math.inf,
        )
        remaining = sorted(set(setup.client_ids) - {1, 7})
        result = fedrecover(store, remaining, setup, params, range(301), instrument=True)
        trace = train_from_scratch(setup, remaining, 300, range(301))
        m_measured = result.measured_m
        assert m_measured is not None
        d0 = float(np.linalg.norm(result.models[0] - trace[0]))
        worst = -math.inf
        for t in range(301):
            gap = float(np.linalg.norm(result.models[t] - trace[t]))
            bound = theoretical_bound(eta, mu, m_measured, t, d0)
            worst = max(worst, gap - bound)
        assert worst <= 1e-9, f"worst bound violation {worst}"


def test_criterion_3_cost_formula_and_acp():
    with criterion(3, "client-cost formula gives 222 rounds and 88.9% saving"):
        cost = predicted_cost(2000, 20, 10, 5)
        assert cost == 222
        _, acp = cost_saving(2000, {c: cost for c in range(80)})
        assert abs(acp - 88.9) <= 0.05


def test_criterion_4_hvp_kernel():
    with criterion(4, "buffered HVP: hand value exact, secant residual <= 1e-8"):
        out = lbfgs_hvp(*compact_system([np.array([2.0])], [np.array([6.0])]), np.array([1.0]))
        assert abs(float(out[0]) - 3.0) <= 1e-12
        rng = RngStream(404)
        for trial in range(100):
            d = 2 + trial % 19
            s = 1 + trial % 3
            g = rng.normals(d * d).reshape(d, d)
            q, _ = np.linalg.qr(g)
            h = q @ np.diag(0.5 + 4.5 * rng.uniforms(d)) @ q.T
            dw = [rng.normals(d) for _ in range(s)]
            dg = [h @ w for w in dw]
            resid = lbfgs_hvp(*compact_system(dw, dg), dw[-1]) - dg[-1]
            assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(dg[-1])))


def test_criterion_5_aggregation_oracles():
    with criterion(5, "median/trimmed-mean match brute-force oracles"):
        rows = [np.array([v]) for v in (0.0, 1.0, 2.0, 3.0, 100.0)]
        assert trimmed_mean(rows, 1)[0] == 2.0
        rng = RngStream(505)
        for trial in range(200):
            n = 3 + trial % 12
            k = trial % ((n - 1) // 2 + 1)
            mat = [rng.normals(7) for _ in range(n)]
            med = coord_median(mat)
            tm = trimmed_mean(mat, k)
            for j in range(7):
                col = sorted(float(u[j]) for u in mat)
                exp_med = col[n // 2] if n % 2 else 0.5 * (col[n // 2 - 1] + col[n // 2])
                kept = col[k : n - k] if k else col
                assert med[j] == exp_med
                assert abs(tm[j] - sum(kept) / len(kept)) <= 1e-12


def test_criterion_6_gradient_checks():
    with criterion(6, "analytic gradients match central differences to 1e-5"):
        specs = [
            ModelSpec("logreg", 6, 4, l2=0.05),
            ModelSpec("mlp", 5, 3, hidden=7, l2=0.01),
            ModelSpec("ridge", 6, 4, l2=0.1),
        ]
        rng = RngStream(606)
        for spec in specs:
            for _ in range(50):
                w = rng.normals(spec.param_dim) * 0.5
                x = rng.uniforms(6 * spec.input_dim).reshape(6, spec.input_dim)
                y = np.array(
                    [randint_below(rng, spec.num_classes) for _ in range(6)], dtype=np.int64
                )
                fd = finite_diff_gradient(lambda u: loss(spec, u, x, y), w, 1e-5)
                g = gradient(spec, w, x, y)
                rel = linf_norm(g - fd) / (1.0 + linf_norm(g))
                assert rel <= 1e-5, f"{spec.kind}: relative error {rel}"


def test_criterion_7_end_to_end_recovery(backdoor_run):
    with criterion(7, "poisoned ASR >= 0.8; recovery cleans it at >= 80% saving"):
        sc = backdoor_run
        setup, test_set, trigger = sc["setup"], sc["test"], sc["trigger"]
        spec = setup.spec
        p_asr = attack_success_rate(spec, sc["poisoned"], test_set, trigger, 0)
        assert p_asr >= 0.8, f"poisoned ASR {p_asr}"

        remaining = sorted(set(setup.client_ids) - sc["malicious"])
        final = S7["rounds"]
        scratch_model = train_from_scratch(setup, remaining, final, (final,))[final]
        s_ter = error_rate(spec, scratch_model, test_set)
        s_asr = attack_success_rate(spec, scratch_model, test_set, trigger, 0)
        assert s_asr <= 0.1, f"scratch ASR {s_asr}"

        result = fedrecover(sc["store"], remaining, setup, sc["params"], (final,))
        r_ter = error_rate(spec, result.models[final], test_set)
        r_asr = attack_success_rate(spec, result.models[final], test_set, trigger, 0)
        _, acp = cost_saving(S7["rounds"], result.exact_rounds_per_client)
        assert r_asr <= 0.1, f"recovered ASR {r_asr}"
        assert abs(r_ter - s_ter) <= 0.02, f"TER gap {abs(r_ter - s_ter)}"
        assert acp >= 80.0, f"ACP {acp}"


def test_criterion_8_imperfect_detection(backdoor_run):
    with criterion(8, "one missed adaptive attacker: ASR <= 0.2, ACP stable"):
        sc = backdoor_run
        setup, test_set, trigger = sc["setup"], sc["test"], sc["trigger"]
        remaining = sorted(set(setup.client_ids) - sc["malicious"])
        result_perfect = fedrecover(sc["store"], remaining, setup, sc["params"], ())
        _, acp_perfect = cost_saving(S7["rounds"], result_perfect.exact_rounds_per_client)

        rng = RngStream(derive_seed(S7["seed"], STREAM_DETECT, 0, 0))
        detected = simulate_detection(sc["malicious"], setup.client_ids, 0.25, 0.0, rng)
        assert len(sc["malicious"] - detected) == 1
        assert adaptive_scale(S7["lam"], 4, 1) == 40.0

        remaining = sorted(set(setup.client_ids) - detected)
        result = fedrecover(sc["store"], remaining, setup, sc["params"], (S7["rounds"],))
        r_asr = attack_success_rate(
            setup.spec, result.models[S7["rounds"]], test_set, trigger, 0
        )
        _, acp = cost_saving(S7["rounds"], result.exact_rounds_per_client)
        assert r_asr <= 0.2, f"recovered ASR {r_asr}"
        assert abs(acp - acp_perfect) <= 2.0, f"ACP moved {abs(acp - acp_perfect)}"


def test_criterion_9_equivalence_degenerations(tmp_path):
    with criterion(9, "period-1 recovery == retraining; empty replay == original"):
        seed = 31
        dataset = gen_synthetic(3, 5, 40, 3.0, seed=seed)
        spec = ModelSpec("logreg", 5, 3, l2=0.05)
        attack = AttackConfig(kind="trim", b=2.0)
        setup = make_setup(
            dataset, spec, 5, AggregationRule("fedavg"), 0.2, 16, seed,
            1.0 / 3, attack, (2,),
        )
        final = train(setup, 20, tmp_path / "h.bin", bytes(32), (20,))[20]
        store = HistoryStore.load(tmp_path / "h.bin")

        params = RecoveryParams(
            warmup_rounds=4, correction_period=1, final_tuning_rounds=3,
            buffer_size=2, tau=math.inf,
        )
        remaining = sorted(set(setup.client_ids) - {2})
        result = fedrecover(store, remaining, setup, params, range(21))
        trace = train_from_scratch(setup, remaining, 20, range(21))
        for t in range(21):
            np.testing.assert_array_equal(result.models[t], trace[t])

        replay = historical_only(store, setup.client_ids, setup, (20,))
        np.testing.assert_array_equal(replay[20], final)


CLI_CFG = """
[experiment]
seed = 12
rounds = 40
learning_rate = 0.08
batch_size = 24
n_clients = 10
malicious_count = 2
aggregation = trimmed_mean
trim_k = 2
output_dir = runs/acc

[dataset]
kind = synthetic
num_classes = 5
dim = 12
per_class = 60
test_per_class = 30
separation = 4.0

[model]
kind = logreg
l2 = 0.05

[attack]
kind = backdoor
trigger = every_kth
trigger_k = 2
trigger_value = 1.0
scale = 10.0

[recovery]
warmup_rounds = 6
correction_period = 5
final_tuning_rounds = 4
"""


def test_criterion_10_determinism(backdoor_run, tmp_path, monkeypatch):
    with criterion(10, "same seed reproduces history and summaries byte for byte"):
        # library path: re-run the end-to-end scenario's original training
        sc = backdoor_run
        repeat = tmp_path / "repeat.bin"
        train(sc["setup"], S7["rounds"], repeat, bytes(32), ())
        assert repeat.read_bytes() == sc["path"].read_bytes()

        # CLI path: full train + recover pipeline twice
        artifacts = []
        for sub in ("one", "two"):
            monkeypatch.setenv("FEDSIM_OUTPUT_ROOT", str(tmp_path / sub))
            cfg = tmp_path / f"{sub}.ini"
            cfg.write_text(CLI_CFG)
            assert cli_main(["train", "-c", str(cfg)]) == 0
            assert cli_main(["recover", "-c", str(cfg), "--method", "fedrecover"]) == 0
            run_dir = tmp_path / sub / "runs" / "acc"
            artifacts.append(
                {
                    name: (run_dir / name).read_bytes()
                    for name in (
                        "history.bin",
                        "summary_train.json",
                        "summary_fedrecover.json",
                        "train_metrics.csv",
                        "recover_fedrecover_metrics.csv",
                    )
                }
            )
        assert artifacts[0] == artifacts[1]
        for name in ("summary_train.json", "summary_fedrecover.json"):
            assert_both_accept(json.loads(artifacts[0][name].decode()))
        summary = json.loads(artifacts[0]["summary_fedrecover.json"].decode())
        assert summary["method"] == "fedrecover"
