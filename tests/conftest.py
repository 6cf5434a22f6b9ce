import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np
import pytest
from hypothesis import settings

import fedsim
from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger
from fedsim.cli import _summary_error
from fedsim.data import gen_synthetic, partition_noniid
from fedsim.flengine import FlSetup, HistoryStore, train
from fedsim.models import ModelSpec, _forward
from fedsim.numcore import as_vector
from fedsim.recovery import top_count

CHASH = bytes(32)


def train_and_load(setup, rounds, path, alpha=1.0, chash=CHASH):
    """Train `rounds` rounds into the history at `path`, with the top-value
    table kept for tolerance rate `alpha` at `path` + ".tops" (the default
    1 keeps every value, which serves any rate). Returns {t: w_t} for
    every round t and the history loaded with its table."""
    tops = f"{path}.tops"
    m = top_count(alpha, len(setup.client_ids), setup.spec.param_dim)
    trace = train(setup, rounds, path, chash, range(rounds + 1), tops=(tops, m))
    return trace, HistoryStore.load(path, tops)

# Every run draws the same examples, so a failure one run finds is the next
# run's too, and its reproduction blob is printed.
settings.register_profile("fedsim", derandomize=True, print_blob=True)
settings.load_profile("fedsim")


# The summary's form as a JSON Schema: jsonschema checks it as the oracle
# of the CLI's summary check.
SUMMARY_SCHEMA = json.loads((Path(__file__).parent / "summary.schema.json").read_text())


def assert_both_accept(summary):
    """The summary passes the CLI's check and, against the schema, jsonschema."""
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    assert _summary_error(summary) is None


def randint_below(rng, n: int) -> int:
    """Integer in [0, n) from one 64-bit draw of `rng`, by multiply-shift."""
    return (int(rng._next_block(1)[0]) * n) >> 64


def run_under_address_limit(code: str, *args, limit: int = 2 << 30) -> str:
    """What a child Python running `code` on `args` prints, under an
    address-space limit of its own (`RLIMIT_AS`, 2 GiB by default): an
    allocation sized by a corrupt header fails there, as a MemoryError,
    instead of growing the test process."""
    src = os.path.dirname(os.path.dirname(fedsim.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=120,
    )
    return proc.stdout + proc.stderr


# The loss `models.gradient` differentiates, kept here as the gradient
# oracle's function: the program itself never evaluates it.
def _log_softmax(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean per-example loss plus (l2/2) * ||w||^2.

    Trusts its inputs, as :func:`gradient` does.
    """
    s = _forward(spec, w, x)[0]
    n = x.shape[0]
    if spec.kind == "ridge":
        target = np.zeros_like(s)
        target[np.arange(n), y] = 1.0
        data_term = 0.5 * float(np.sum((s - target) ** 2)) / n
    else:
        logp = _log_softmax(s)
        data_term = -float(logp[np.arange(n), y].mean())
    return data_term + 0.5 * spec.l2 * float(w @ w)


# The ridge Hessian as an explicit (d, d) matrix, kept here as the oracle of
# the exact HVP that `recovery.fedrecover` takes from `models.gradient`:
# the program itself never forms it.
def quadratic_hessian(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Explicit (d x d) Hessian of the ridge loss on (n, input_dim) inputs.

    The ridge loss is quadratic, so this matrix is exact and constant in w.
    `spec` must be the ridge kind, as the config guarantees wherever
    recovery asks for it (`hvp_mode = exact_quadratic`).
    """
    x = np.asarray(inputs, dtype=np.float64)
    n, f = x.shape
    c = spec.num_classes
    xt = np.hstack([x, np.ones((n, 1))])
    m = xt.T @ xt / n  # (f+1) x (f+1)
    d = spec.param_dim
    h = np.zeros((d, d))
    for cls in range(c):
        wsl = slice(cls * f, (cls + 1) * f)
        bix = c * f + cls
        h[wsl, wsl] = m[:f, :f]
        h[wsl, bix] = m[:f, f]
        h[bix, wsl] = m[f, :f]
        h[bix, bix] = m[f, f]
    h += spec.l2 * np.eye(d)
    return h


def finite_diff_gradient(f: Callable[[np.ndarray], float], w, h: float) -> np.ndarray:
    """Central-difference gradient oracle: (f(w+h e_j) - f(w-h e_j)) / 2h.

    Raises if any evaluation of f is non-finite, which signals a broken
    loss surface rather than a numerics issue here.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    w = as_vector(w, name="w")
    grad = np.empty_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        fp = float(f(w + e))
        fm = float(f(w - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite loss evaluation at coordinate {j}")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def glorot_bound(spec: ModelSpec, layer: int) -> float:
    """Uniform-init bound a for the given mlp layer (1 or 2)."""
    if spec.kind != "mlp":
        raise ValueError("glorot_bound applies to mlp specs only")
    if layer == 1:
        return float(np.sqrt(6.0 / (spec.input_dim + spec.hidden)))
    if layer == 2:
        return float(np.sqrt(6.0 / (spec.hidden + spec.num_classes)))
    raise ValueError("layer must be 1 or 2")


def smoothness_bound(spec: ModelSpec, inputs: np.ndarray) -> float:
    """Upper bound on the smoothness constant L of the loss over the given
    inputs (bias feature included). Only meaningful for the convex kinds.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if spec.kind == "logreg":
        # softmax Jacobian has spectral norm <= 1/2
        max_sq = float(np.max(np.sum(x * x, axis=1))) + 1.0
        return spec.l2 + 0.5 * max_sq
    if spec.kind == "ridge":
        xt = np.hstack([x, np.ones((x.shape[0], 1))])
        m = xt.T @ xt / x.shape[0]
        return spec.l2 + float(np.linalg.eigvalsh(m)[-1])
    raise ValueError("smoothness bound is not available for non-convex kinds")


def build_setup(
    *,
    spec,
    dataset,
    n_clients,
    rule,
    eta,
    batch_size,
    seed,
    q=None,
    attack=None,
    malicious=(),
    l=1,
):
    q = q if q is not None else 1.0 / dataset.num_classes
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


@pytest.fixture(scope="session")
def ridge_trim_scenario(tmp_path_factory):
    """Ridge model, trim attack, full-batch updates: quadratic losses make
    exact update estimation possible, which several recovery tests need."""
    dataset = gen_synthetic(4, 5, 60, 3.0, seed=21)
    spec = ModelSpec("ridge", 5, 4, l2=0.1)
    attack = AttackConfig(kind="trim", b=2.0)
    malicious = (0, 1)
    setup = build_setup(
        spec=spec,
        dataset=dataset,
        n_clients=6,
        rule=AggregationRule("fedavg"),
        eta=0.2,
        batch_size=10_000,
        seed=21,
        attack=attack,
        malicious=malicious,
    )
    path = tmp_path_factory.mktemp("ridge") / "history.bin"
    trace, store = train_and_load(setup, 60, path)
    final_model = trace[60]
    return {
        "dataset": dataset,
        "setup": setup,
        "store": store,
        "final": final_model,
        "malicious": frozenset(malicious),
        "remaining": [2, 3, 4, 5],
        "rounds": 60,
    }


@pytest.fixture(scope="session")
def logreg_backdoor_scenario(tmp_path_factory):
    """Logreg under a scaled backdoor, mini-batches, trimmed-mean."""
    dataset = gen_synthetic(3, 9, 80, 4.0, seed=33)
    spec = ModelSpec("logreg", 9, 3, l2=0.01)
    trigger = Trigger(kind="every_kth", k=3, value=1.0)
    attack = AttackConfig(kind="backdoor", trigger=trigger, target_label=0, lam=8.0, adaptive=True)
    malicious = (2, 5)
    setup = build_setup(
        spec=spec,
        dataset=dataset,
        n_clients=8,
        rule=AggregationRule("trimmed_mean", 2),
        eta=0.2,
        batch_size=24,
        seed=33,
        q=0.5,
        attack=attack,
        malicious=malicious,
    )
    path = tmp_path_factory.mktemp("backdoor") / "history.bin"
    trace, store = train_and_load(setup, 50, path)
    final_model = trace[50]
    return {
        "dataset": dataset,
        "setup": setup,
        "store": store,
        "final": final_model,
        "malicious": frozenset(malicious),
        "remaining": [0, 1, 3, 4, 6, 7],
        "rounds": 50,
    }
