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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import models
from .attacks import adaptive_scale
from .flengine import FlSetup, HistoryStore
from .numcore import (
    STREAM_FINETUNE,
    STREAM_INIT,
    RngStream,
    derive_seed,
    linf_norm,
)


class LbfgsSingularError(ValueError):
    """The buffered system cannot produce a Hessian-vector product."""


class ClassDrawError(ValueError):
    """A fine-tuning class cannot supply the examples its draw asks for."""


class CompactSystem(NamedTuple):
    """The compact L-BFGS system of one client's buffers.

    W and G hold the global-model and update differences as (d, s)
    columns, oldest to newest. K is the 2s x 2s block matrix; it is None
    when the most recent global difference is zero, which `lbfgs_hvp`
    reports as singular.
    """

    W: np.ndarray
    G: np.ndarray
    sigma: float
    K: np.ndarray | None


def compact_system(dw_list, dg_list) -> CompactSystem:
    """Build the compact system of a client's difference buffers.

    Buffers are ordered oldest to newest. With A = dW^T dG, D = diag(A),
    L = strictly-lower-triangular(A), and sigma set by the most recent
    pair, the system matrix is

        K = [[-D, L^T], [L, sigma dW^T dW]]

    This is the part of the Hessian-vector product that depends on the
    buffers only, so it is built once and reused until a buffer changes.
    The entries are differences of vectors the recovery computed, so they
    are not re-validated: a non-finite entry yields a non-finite or
    singular system, which `lbfgs_hvp` reports as LbfgsSingularError.
    """
    if len(dw_list) == 0 or len(dw_list) != len(dg_list):
        raise ValueError("need equally many (>=1) global and update differences")
    W = np.column_stack(dw_list)
    G = np.column_stack(dg_list)
    if W.shape[0] != G.shape[0]:
        raise ValueError("global and update differences differ in dimension")
    return _assemble(W, W.T @ W, G)


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


def lbfgs_hvp(system: CompactSystem, v: np.ndarray) -> np.ndarray:
    """Approximate Hessian-vector product from a compact system.

    Solves K p = [dG^T v; sigma dW^T v] and returns
    sigma v - [dG | sigma dW] p. `v` must be a finite float64 vector of
    the buffers' dimension. Raises LbfgsSingularError when the most recent
    global difference is zero or the block system is singular, in which
    case the caller falls back to an exact update. Only the output is
    checked: a non-finite solution p makes every product with it, and so
    the output, non-finite.
    """
    W, G, sigma, K = system
    if K is None:
        raise LbfgsSingularError("most recent global-model difference is zero")
    s = W.shape[1]
    rhs = np.concatenate([G.T @ v, sigma * (W.T @ v)])
    try:
        p = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise LbfgsSingularError(f"singular buffer system: {exc}") from exc
    out = sigma * v - (G @ p[:s] + sigma * (W @ p[s:]))
    if not np.isfinite(out).all():
        raise LbfgsSingularError("non-finite Hessian-vector product")
    return out


def compute_threshold(history: HistoryStore, remaining_clients, alpha: float) -> float:
    """Abnormality threshold derived from stored updates.

    Per round, pool every coordinate of the remaining clients' stored
    updates and take the smallest pooled value v such that at most an
    alpha fraction of the pool is strictly greater than v; the threshold
    is the max over rounds. Ties resolve toward the larger value, i.e.
    fewer exact-update requests.

    With N pooled values and k = floor(alpha N), that value is the
    ascending pool's element at index max(N - 1 - k, 0), found by
    selection rather than a full sort. The config guarantees alpha in
    (0, 1] and at least one round.
    """
    remaining = sorted(remaining_clients)
    tau = -math.inf
    for _, round_updates in history.rounds():
        pool = round_updates[remaining].ravel()
        m = max(pool.size - 1 - math.floor(alpha * pool.size), 0)
        tau = max(tau, float(np.partition(pool, m)[m]))
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

    def hvp(self, client_id, v: np.ndarray) -> np.ndarray:
        system = self._systems.get(client_id)
        if system is None:
            dg_list = self.update_diffs[client_id]
            if self._window is None or len(dg_list) != len(self.global_diffs):
                raise ValueError("need equally many (>=1) global and update differences")
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
    per_round_models: list  # the T+1 global models, the last of them the recovered model
    tau: float
    estimate_errors: list = field(default_factory=list)  # instrumentation only

    @property
    def measured_m(self) -> float | None:
        if not self.estimate_errors:
            return None
        return max(err for _, _, err in self.estimate_errors)


def predicted_cost(total_rounds: int, warmup: int, period: int, final: int) -> int:
    """Exact client rounds when abnormality fixing never triggers."""
    if warmup < 0 or final < 0 or warmup + final > total_rounds:
        raise ValueError("need warmup + final <= total rounds")
    if period < 1:
        raise ValueError("correction period must be >= 1")
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
    detected,
    setup: FlSetup,
    params: RecoveryParams,
    *,
    instrument: bool = False,
) -> RecoveryResult:
    """Recover a global model from stored history after removing the
    detected clients.

    Undetected malicious clients (attack configured on the setup but
    missing from `detected`) keep attacking whenever they are asked for an
    exact update; an adaptive backdoor attacker re-scales by m / m'. Exact
    updates are requested in warm-up, periodic correction, final tuning,
    whenever an estimate exceeds the abnormality threshold, whenever the
    buffered system is singular, and whenever the estimate overflows. The
    difference buffers refresh from full-cohort exact rounds (global and
    per-client) and additionally from single-client fixes (per-client
    only).

    Trusts its inputs: `HistoryStore.rounds` checks each record as it
    reads it, the config checks `params` against T and the model, and
    the caller leaves at least one client undetected.
    """
    total = history.total_rounds
    detected = frozenset(detected)
    remaining = sorted(set(setup.client_ids) - detected)

    # undetected attackers attack when asked; with no attack configured they report honestly
    undetected = set(setup.malicious) - detected
    lam = None
    if undetected and setup.attack and setup.attack.adaptive:
        lam = adaptive_scale(setup.attack.lam, len(setup.malicious), len(undetected))

    tau = params.tau if params.tau is not None else compute_threshold(
        history, remaining, params.tolerance_rate
    )

    buffers = LbfgsBuffers(params.buffer_size, remaining)
    exact_rounds = {c: 0 for c in remaining}
    abnormality_count = 0
    errors = []

    def quadratic_hvp(c, v):
        # a quadratic loss's integrated Hessian is its constant Hessian; t is the running round
        idx = setup.samplers[c].round_batches(t, 1)[0]
        return models.quadratic_hessian(setup.spec, setup.local_inputs[c][idx]) @ v

    hvp = quadratic_hvp if params.hvp_mode == "exact_quadratic" else buffers.hvp

    trace = []
    for t, (w_bar, g_bar) in enumerate(history.rounds()):  # g_bar row c: client c's update
        if not trace:  # the first stored model is the start model
            trace.append(w_bar)
        w_hat = trace[-1]
        v = w_hat - w_bar
        chosen = {}
        exact_round = _is_exact_round(t, total, params)
        if exact_round:
            fix = remaining  # the clients asked for an exact update: here, all of them
        else:
            fix = []
            for c in remaining:
                try:
                    hv = hvp(c, v)
                except LbfgsSingularError:
                    fix.append(c)
                    continue
                # the estimate: stored update plus the HVP correction, which
                # can overflow even when both terms are finite
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
        if instrument:
            for c in remaining:
                if c not in fix:
                    errors.append((c, t, float(np.linalg.norm(chosen[c] - exact[c]))))
        w_hat = setup.aggregate_step(w_hat, chosen)
        trace.append(w_hat)

    return RecoveryResult(
        exact_rounds_per_client=exact_rounds,
        abnormality_count=abnormality_count,
        per_round_models=trace,
        tau=tau,
        estimate_errors=errors,
    )


def train_from_scratch(setup: FlSetup, remaining_clients, total_rounds: int) -> list:
    """Retrain over the remaining clients only; every client computes an
    exact, honest update every round. Returns the T+1 global models."""
    w = models.init_params(setup.spec, derive_seed(setup.seed, STREAM_INIT, 0, 0))
    trace = [w]
    for t in range(total_rounds):
        reported = setup.reported_updates(trace[-1], t, remaining_clients, ())
        trace.append(setup.aggregate_step(trace[-1], reported))
    return trace


def historical_only(history: HistoryStore, detected, setup: FlSetup) -> list:
    """Replay the stored updates of the remaining clients; zero client cost.
    Returns the T+1 global models.

    With nothing detected this reproduces the original trajectory exactly.
    """
    remaining = sorted(set(range(history.n)) - frozenset(detected))
    trace = []
    for model, round_updates in history.rounds():
        if not trace:  # the first stored model is the start model
            trace.append(model)
        # row views: a fancy index would copy the (remaining, d) block once more
        trace.append(setup.aggregate_step(trace[-1], {c: round_updates[c] for c in remaining}))
    return trace


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
    uniform. `w` must be a finite vector of `spec.param_dim` entries (see
    `cli.load_model`); the config guarantees beta > 0 and n_examples >= 1,
    and `cli.cmd_recover` that n_examples <= dataset.size.
    Raises ClassDrawError when a class cannot supply its drawn count.
    """
    if dataset.dim != spec.input_dim:
        raise ValueError(f"dataset feature dim {dataset.dim} != spec input_dim {spec.input_dim}")
    rng = RngStream(derive_seed(seed, STREAM_FINETUNE, 0, 0))
    c = dataset.num_classes
    if math.isinf(beta):
        proportions = np.full(c, 1.0 / c)
    else:
        proportions = rng.dirichlet(beta, c)
    counts = _largest_remainder_counts(proportions, n_examples)
    picked = []
    for cls in range(c):
        pool = np.flatnonzero(dataset.labels == cls)
        if counts[cls] > pool.size:
            raise ClassDrawError(
                f"class {cls} needs {counts[cls]} examples but only {pool.size} are available"
            )
        if counts[cls] > 0:
            picked.append(pool[rng.choice(pool.size, int(counts[cls]))])
    idx = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    x = dataset.inputs[idx]
    y = dataset.labels[idx]
    n = x.shape[0]
    bs = min(batch_size, n)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, bs):
            sel = perm[lo : lo + bs]
            g = models.gradient(spec, w, x[sel], y[sel])
            w = w - eta * g
    return w
