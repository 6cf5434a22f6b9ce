"""Post-detection model recovery.

The main routine replays training over the remaining clients while
estimating their per-round updates from stored history: the estimate is
the stored update plus an approximate integrated-Hessian-vector product
along the gap between the recovered and original global models. The
Hessian-vector product comes from a compact direct L-BFGS form fed by
buffers of global-model and update differences. The global window is the
same for every client, so `LbfgsBuffers` stacks it and forms its Gram
matrix once per exact round. Each client's compact system changes only
when its buffers do (an exact round, or a fix of that client), so it is
assembled from that shared window once per buffer change and cached;
estimated rounds only solve it. Exact client updates are
requested only for warm-up, periodic correction, abnormality fixing, and
final tuning, which is where the client-side savings come from.

Also here: the train-from-scratch / historical-replay / fine-tuning
baselines, the client cost formula, and the convergence-gap bound used to
verify the recovery error guarantee numerically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import models
from .attacks import adaptive_scale
from .flengine import FlSetup, HistoryError, HistoryStore
from .numcore import (
    STREAM_FINETUNE,
    STREAM_INIT,
    RngStream,
    derive_seed,
    linf_norm,
)


class ClassDrawError(ValueError):
    """A fine-tuning class draw that cannot be met; `key` names the config key to change."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(reason)


class CompactSystem(NamedTuple):
    """The compact L-BFGS system of one client's buffers.

    W and G hold the global-model and update differences as (d, s)
    columns, oldest to newest. K is the 2s x 2s block matrix; it is None
    when the most recent global difference is zero.
    """

    W: np.ndarray
    G: np.ndarray
    sigma: float
    K: np.ndarray | None


def _assemble(W: np.ndarray, WtW: np.ndarray, G: np.ndarray) -> CompactSystem:
    """The compact system of the global window W (with its Gram matrix
    W^T W, which every client shares) and one client's window G."""
    sw = W[:, -1]
    denom = float(sw @ sw)
    if denom == 0.0:
        return CompactSystem(W, G, math.nan, None)
    sigma = float(G[:, -1] @ sw) / denom
    s = W.shape[1]
    A = W.T @ G
    Lo = np.tril(A, k=-1)
    K = np.empty((2 * s, 2 * s))
    K[:s, :s] = -np.diag(np.diag(A))  # -D with its -0.0s, as the reference kernel builds it
    K[:s, s:] = Lo.T
    K[s:, :s] = Lo
    K[s:, s:] = sigma * WtW
    return CompactSystem(W, G, sigma, K)


def lbfgs_hvp(system: CompactSystem, v: np.ndarray) -> np.ndarray | None:
    """Approximate Hessian-vector product from a compact system.

    Solves K p = [dG^T v; sigma dW^T v] and returns
    sigma v - [dG | sigma dW] p. `v` must be a finite float64 vector of
    the buffers' dimension. Returns None when the most recent global
    difference is zero or the block system is singular, in which case the
    caller falls back to an exact update. The output is not checked: a
    non-finite one (an overflowing solve, or a non-finite buffer entry)
    makes the estimate non-finite, which `fedrecover`'s `linf_norm` sends
    to the same fallback.
    """
    W, G, sigma, K = system
    if K is None:
        return None
    s = W.shape[1]
    rhs = np.concatenate([G.T @ v, sigma * (W.T @ v)])
    try:
        p = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None
    return sigma * v - (G @ p[:s] + sigma * (W @ p[s:]))


def top_count(alpha: float, n: int, d: int) -> int:
    """m = clamp(floor(alpha n d) + 1, 1, d): how many of each client's
    largest update coordinates per round the `TopTable` keeps, enough for
    `compute_threshold` at tolerance rate alpha over any remaining clients."""
    return min(max(math.floor(alpha * (n * d)) + 1, 1), d)


def compute_threshold(history: HistoryStore, remaining_clients, alpha: float) -> float:
    """Abnormality threshold derived from stored updates.

    Per round, pool every coordinate of the remaining clients' stored
    updates and take the smallest pooled value v such that at most an
    alpha fraction of the pool is strictly greater than v; the threshold
    is the max over rounds. Ties resolve toward the larger value, i.e.
    fewer exact-update requests.

    With N pooled values and k = floor(alpha N), that value is the pool's
    min(k + 1, N)-th largest, so it is among the k + 1 largest values of
    the client that holds it. `history.tops` keeps each client's m largest
    values per round, with m at least that rank or m = d, so tau is read
    from that table alone, by selection, and equals the full pool's value;
    the history's own records are not read. A table of fewer values raises
    HistoryError. The config guarantees alpha in (0, 1] and at least one
    round.
    """
    remaining = sorted(remaining_clients)
    tops = history.tops
    size = len(remaining) * history.d
    rank = min(math.floor(alpha * size) + 1, size)
    need = min(rank, history.d)  # the rank-th largest is at most a client's need-th
    if tops.m < need:
        raise HistoryError(
            f"{tops.path}: holds the {tops.m} largest values per client and round, "
            f"but tolerance rate {alpha!r} needs {need}"
        )
    tau = -math.inf
    for top in tops.rounds():
        pool = top[remaining].ravel()
        i = pool.size - rank
        tau = max(tau, float(np.partition(pool, i)[i]))
    return tau


class LbfgsBuffers:
    """Sliding windows (oldest to newest, capacity s) of global-model
    differences and per-client update differences.

    The global window only advances after rounds in which every remaining
    client computed an exact update; a client's own window additionally
    advances after a single-client abnormality fix.

    Every client shares the global window, so `push_global` stacks it
    into W and forms W^T W once; each client's compact system is then
    assembled from those two arrays and its own window. A client's system
    is built on its first `hvp` after a change to its windows and reused
    until the next one: `push_global` drops every client's system,
    `push_client` only that client's. Between exact rounds, `hvp`
    therefore does only the per-vector solve.
    """

    def __init__(self, capacity: int, client_ids):
        self.global_diffs: deque = deque(maxlen=capacity)
        self.update_diffs = {c: deque(maxlen=capacity) for c in client_ids}
        self._window = None  # (W, W^T W) of the global window, once it holds a difference
        self._systems: dict = {}

    def push_global(self, dw: np.ndarray) -> None:
        self.global_diffs.append(dw)
        W = np.column_stack(self.global_diffs)
        self._window = (W, W.T @ W)
        self._systems.clear()

    def push_client(self, client_id, dg: np.ndarray) -> None:
        self.update_diffs[client_id].append(dg)
        self._systems.pop(client_id, None)

    def hvp(self, client_id, v: np.ndarray) -> np.ndarray | None:
        """The config's warmup_rounds > buffer_size fills every window
        before the first estimate, so each holds s differences."""
        system = self._systems.get(client_id)
        if system is None:
            dg_list = self.update_diffs[client_id]
            system = _assemble(*self._window, np.column_stack(dg_list))
            self._systems[client_id] = system
        return lbfgs_hvp(system, v)


@dataclass(frozen=True)
class RecoveryParams:
    warmup_rounds: int
    correction_period: int
    final_tuning_rounds: int
    buffer_size: int = 2
    tolerance_rate: float = 1e-6
    tau: float | None = None  # explicit override; math.inf disables fixing
    hvp_mode: str = "lbfgs"  # lbfgs | exact_quadratic (ridge model, one local step)


@dataclass
class RecoveryResult:
    exact_rounds_per_client: dict
    abnormality_count: int
    models: dict  # {t: w_t} for the kept rounds; w_T is the recovered model
    tau: float
    measured_m: float | None = None  # instrument only: largest accepted estimate error


def predicted_cost(total_rounds: int, warmup: int, period: int, final: int) -> int:
    """Exact client rounds when abnormality fixing never triggers. The
    config guarantees warmup + final <= total_rounds and period >= 1. No
    caller in the package yet: ROADMAP item 6 (exact updates by reason)
    is the first."""
    return warmup + final + (total_rounds - warmup - final) // period


def theoretical_bound(eta: float, mu: float, m_bound: float, t: int, d0: float) -> float:
    """Upper bound on the recovered-vs-scratch model gap after t rounds.

    With r = sqrt(1 - eta * mu): r**t * d0 + (1 - r**t) / (1 - r) * eta * M.
    Requires 0 < eta * mu <= 1, which the config checks for `bound_check`.
    """
    r = math.sqrt(1.0 - eta * mu)
    rt = r**t
    geo = (1.0 - rt) / (1.0 - r) if r < 1.0 else float(t)
    return rt * d0 + geo * eta * m_bound


def _is_exact_round(t: int, total: int, p: RecoveryParams) -> bool:
    if t < p.warmup_rounds or t >= total - p.final_tuning_rounds:
        return True
    return (t - p.warmup_rounds + 1) % p.correction_period == 0


def fedrecover(
    history: HistoryStore,
    remaining,
    setup: FlSetup,
    params: RecoveryParams,
    keep,
    *,
    instrument: bool = False,
) -> RecoveryResult:
    """Recover a global model from stored history over the `remaining`
    clients, ascending. `RecoveryResult.models` holds {t: w_t} for the
    rounds t in `keep`, w_t the recovered global model after t rounds.

    Undetected malicious clients (attack configured on the setup, and
    among `remaining`) keep attacking whenever they are asked for an
    exact update; an adaptive backdoor attacker re-scales by m / m'. Exact
    updates are requested in warm-up, periodic correction, final tuning,
    whenever an estimate exceeds the abnormality threshold, whenever the
    buffered system is singular, and whenever the estimate is not finite. The
    difference buffers refresh from full-cohort exact rounds (global and
    per-client) and additionally from single-client fixes (per-client
    only).

    Reads the history's records once, in the replay; an unset
    `params.tau` is derived from `history.tops` first. Trusts its inputs:
    `HistoryStore.rounds` checks each record as it reads it, the config
    checks `params` against T and the model, and the caller leaves at
    least one client and loads the table when tau is unset.
    """
    total = history.total_rounds
    # undetected attackers attack when asked; with no attack configured they report honestly
    undetected = setup.malicious.intersection(remaining)
    lam = None
    if undetected and setup.attack and setup.attack.adaptive:
        lam = adaptive_scale(setup.attack.lam, len(setup.malicious), len(undetected))

    tau = params.tau if params.tau is not None else compute_threshold(
        history, remaining, params.tolerance_rate
    )

    buffers = LbfgsBuffers(params.buffer_size, remaining)
    exact_rounds = {c: 0 for c in remaining}
    abnormality_count = 0
    measured_m = None  # until an estimate is accepted under instrument
    kept = {}

    def quadratic_hvp(c, v):
        # the ridge gradient is affine in w, so the change of client c's round-t
        # batch gradient along v is the exact HVP, l2 term included; t is the running round
        inputs, labels, sampler = setup.clients[c]
        batch = sampler.batch(t)  # one local step: round t's only batch
        x, y, spec = inputs[batch], labels[batch], setup.spec
        return models.gradient(spec, v, x, y) - models.gradient(spec, np.zeros_like(v), x, y)

    hvp = quadratic_hvp if params.hvp_mode == "exact_quadratic" else buffers.hvp

    for t, (w_bar, g_bar) in enumerate(history.rounds()):  # g_bar row c: client c's update
        if t == 0:  # the first stored model is the start model
            w_hat = w_bar
            if 0 in keep:
                kept[0] = w_hat
        v = w_hat - w_bar
        chosen = {}
        exact_round = _is_exact_round(t, total, params)
        if exact_round:
            fix = remaining  # the clients asked for an exact update: here, all of them
        else:
            fix = []
            for c in remaining:
                hv = hvp(c, v)
                if hv is None:  # an unusable system
                    fix.append(c)
                    continue
                # the estimate: stored update plus the HVP correction, which is
                # non-finite when the correction is, and can overflow when both are finite
                est = g_bar[c] + hv
                try:
                    over = linf_norm(est) > tau
                except ValueError:  # linf_norm refuses a non-finite estimate
                    over = True
                if over:
                    fix.append(c)
                else:
                    chosen[c] = est
            abnormality_count += len(fix)
        exact = setup.reported_updates(
            w_hat, t, remaining, undetected, lam, asked=remaining if instrument else fix
        )
        for c in fix:
            chosen[c] = exact[c]
            exact_rounds[c] += 1
            buffers.push_client(c, exact[c] - g_bar[c])
        if exact_round:
            buffers.push_global(v)
        if instrument:  # each accepted estimate against the exact update
            for c in chosen.keys() - fix:
                measured_m = max(measured_m or 0.0, float(np.linalg.norm(chosen[c] - exact[c])))
        w_hat = setup.aggregate_step(w_hat, chosen)
        if t + 1 in keep:
            kept[t + 1] = w_hat

    return RecoveryResult(
        exact_rounds_per_client=exact_rounds,
        abnormality_count=abnormality_count,
        models=kept,
        tau=tau,
        measured_m=measured_m,
    )


def train_from_scratch(setup: FlSetup, remaining_clients, total_rounds: int, keep) -> dict:
    """Retrain over the remaining clients only; every client computes an
    exact, honest update every round. Returns {t: w_t}, the global model
    after t rounds, for each t in `keep`."""
    w = models.init_params(setup.spec, derive_seed(setup.seed, STREAM_INIT, 0, 0))
    kept = {0: w} if 0 in keep else {}
    for t in range(total_rounds):
        w = setup.aggregate_step(w, setup.reported_updates(w, t, remaining_clients, ()))
        if t + 1 in keep:
            kept[t + 1] = w
    return kept


def historical_only(history: HistoryStore, remaining, setup: FlSetup, keep) -> dict:
    """Replay the stored updates of the `remaining` clients; zero client cost.
    Returns {t: w_t}, the global model after t rounds, for each t in `keep`.

    With every client remaining this reproduces the original trajectory exactly.
    """
    kept = {}
    for t, (model, round_updates) in enumerate(history.rounds()):
        if t == 0:  # the first stored model is the start model
            w = model
            if 0 in keep:
                kept[0] = w
        # row views: a fancy index would copy the (remaining, d) block once more
        w = setup.aggregate_step(w, {c: round_updates[c] for c in remaining})
        if t + 1 in keep:
            kept[t + 1] = w
    return kept


def _largest_remainder_counts(proportions: np.ndarray, n: int) -> np.ndarray:
    raw = proportions * n
    base = np.floor(raw).astype(np.int64)
    short = n - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def fine_tune(
    spec: models.ModelSpec,
    w,
    dataset,
    epochs: int,
    eta: float,
    beta: float,
    n_examples: int,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Fine-tune a (poisoned) model on a clean sample of the dataset.

    Class proportions follow a symmetric Dirichlet(beta); beta = inf means
    uniform. `w` is a vector of `spec.param_dim` entries: in `sim recover`,
    the history's last record, checked by `HistoryStore.rounds`, put through
    `FlSetup.aggregate_step`. The config guarantees beta > 0 and n_examples >= 1,
    and `cli.cmd_recover` that n_examples <= dataset.size;
    `config.build_datasets` guarantees dataset.dim = spec.input_dim.
    Raises ClassDrawError, naming the key to change, when the Dirichlet
    draw under- or overflows or a class cannot supply its drawn count.
    """
    rng = RngStream(derive_seed(seed, STREAM_FINETUNE, 0, 0))
    c = dataset.num_classes
    if math.isinf(beta):
        proportions = np.full(c, 1.0 / c)
    else:
        proportions = rng.dirichlet(beta, c)
    if not (np.isfinite(proportions).all() and proportions.sum() > 0):  # 0/0, or all 0 of an inf sum
        raise ClassDrawError("finetune.beta", f"Dirichlet({beta!r}) class proportions under- or overflow")
    counts = _largest_remainder_counts(proportions, n_examples)
    picked = []
    for cls in range(c):
        pool = np.flatnonzero(dataset.labels == cls)
        if counts[cls] > pool.size:
            raise ClassDrawError(
                "finetune.n_examples",
                f"class {cls} needs {counts[cls]} examples but only {pool.size} are available; "
                "a larger finetune.beta evens the draw",
            )
        if counts[cls] > 0:
            picked.append(pool[rng.choice(pool.size, int(counts[cls]))])
    idx = np.concatenate(picked)
    x = dataset.inputs[idx]
    y = dataset.labels[idx]
    n = x.shape[0]
    bs = min(batch_size, n)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, bs):
            sel = perm[lo : lo + bs]
            g = models.gradient(spec, w, x[sel], y[sel])
            g *= eta
            w = np.subtract(w, g, out=g)  # w - eta * g, in g's buffer
    return w
