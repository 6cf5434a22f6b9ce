"""Reference copy of the recovery loop as it was before `fedrecover` and
`historical_only` took the remaining clients and `lbfgs_hvp` reported an
unusable system as None.

`fedrecover`, `historical_only`, `LbfgsBuffers`, `CompactSystem`,
`_assemble`, `lbfgs_hvp` and `_is_exact_round` are kept verbatim, with
their own `LbfgsSingularError`. They take `detected`, as they did, and
share the program's `compute_threshold`, `RecoveryParams`,
`RecoveryResult`, `FlSetup` and client kernels, so a change to those
moves both loops alike. The program's loop must give the same counts,
the same threshold and the same bytes of every kept model as this one
(`tests/test_recovery_oracle.py`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from fedsim import models
from fedsim.attacks import adaptive_scale
from fedsim.flengine import FlSetup, HistoryStore
from fedsim.numcore import linf_norm
from fedsim.recovery import RecoveryParams, RecoveryResult, compute_threshold


class LbfgsSingularError(ValueError):
    """The buffered system cannot produce a Hessian-vector product."""


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
    case the caller falls back to an exact update. The output is not
    checked: a non-finite one (an overflowing solve, or a non-finite
    buffer entry) makes the estimate non-finite, which `fedrecover`'s
    `linf_norm` sends to the same fallback.
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
    return sigma * v - (G @ p[:s] + sigma * (W @ p[s:]))


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
        """The config's warmup_rounds > buffer_size fills every window
        before the first estimate, so each holds s differences."""
        system = self._systems.get(client_id)
        if system is None:
            dg_list = self.update_diffs[client_id]
            system = _assemble(*self._window, np.column_stack(dg_list))
            self._systems[client_id] = system
        return lbfgs_hvp(system, v)


def _is_exact_round(t: int, total: int, p: RecoveryParams) -> bool:
    if t < p.warmup_rounds or t >= total - p.final_tuning_rounds:
        return True
    return (t - p.warmup_rounds + 1) % p.correction_period == 0


def fedrecover(
    history: HistoryStore,
    detected,
    setup: FlSetup,
    params: RecoveryParams,
    keep,
    *,
    instrument: bool = False,
) -> RecoveryResult:
    """Recover a global model from stored history after removing the
    detected clients. `RecoveryResult.models` holds {t: w_t} for the
    rounds t in `keep`, w_t the recovered global model after t rounds.

    Undetected malicious clients (attack configured on the setup but
    missing from `detected`) keep attacking whenever they are asked for an
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
    least one client undetected and loads the table when tau is unset.
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
                try:
                    hv = hvp(c, v)
                except LbfgsSingularError:
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


def historical_only(history: HistoryStore, detected, setup: FlSetup, keep) -> dict:
    """Replay the stored updates of the remaining clients; zero client cost.
    Returns {t: w_t}, the global model after t rounds, for each t in `keep`.

    With nothing detected this reproduces the original trajectory exactly.
    """
    remaining = sorted(set(range(history.n)) - frozenset(detected))
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
