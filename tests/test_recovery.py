import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHASH, build_setup, train_and_load
from reference_recovery import LbfgsSingularError
from fedsim import recovery
from fedsim.aggregation import AggregationRule
from fedsim.attacks import AttackConfig, Trigger
from fedsim.data import gen_synthetic
from fedsim.flengine import FlSetup, HistoryError, HistoryStore, train
from fedsim.models import ModelSpec
from fedsim.numcore import RngStream, as_vector
from fedsim.recovery import (
    ClassDrawError,
    CompactSystem,
    LbfgsBuffers,
    RecoveryParams,
    _assemble,
    compute_threshold,
    fedrecover,
    fine_tune,
    historical_only,
    lbfgs_hvp,
    predicted_cost,
    theoretical_bound,
    train_from_scratch,
)


def compact_system(dw_list, dg_list) -> CompactSystem:
    """Build the compact system of a client's difference buffers.

    Buffers are ordered oldest to newest. With A = dW^T dG, D = diag(A),
    L = strictly-lower-triangular(A), and sigma set by the most recent
    pair, the system matrix is

        K = [[-D, L^T], [L, sigma dW^T dW]]

    This is the part of the Hessian-vector product that depends on the
    buffers only, so it is built once and reused until a buffer changes.
    The entries are differences of vectors the recovery computed, so they
    are not re-validated: a non-finite entry yields a singular system,
    for which `lbfgs_hvp` returns None, or a non-finite one, whose
    non-finite product `fedrecover`'s `linf_norm` refuses.
    """
    if len(dw_list) == 0 or len(dw_list) != len(dg_list):
        raise ValueError("need equally many (>=1) global and update differences")
    W = np.column_stack(dw_list)
    G = np.column_stack(dg_list)
    if W.shape[0] != G.shape[0]:
        raise ValueError("global and update differences differ in dimension")
    return _assemble(W, W.T @ W, G)


def random_spd(rng, d, lo=0.5, hi=5.0):
    g = rng.normals(d * d).reshape(d, d)
    q, _ = np.linalg.qr(g)
    eigs = lo + (hi - lo) * rng.uniforms(d)
    return q @ np.diag(eigs) @ q.T


def bfgs_recursion_oracle(dw_list, dg_list, v):
    """Independent dense oracle: apply the classic rank-two update
    sequentially from sigma * I and multiply the resulting matrix."""
    d = dw_list[0].size
    sw, sg = dw_list[-1], dg_list[-1]
    sigma = (sg @ sw) / (sw @ sw)
    B = sigma * np.eye(d)
    for s, y in zip(dw_list, dg_list):
        bs = B @ s
        B = B - np.outer(bs, bs) / (s @ bs) + np.outer(y, y) / (y @ s)
    return B @ v


# The kernel as first written, building the compact system on every call.
# The split compact_system + lbfgs_hvp path must match it bit for bit.
def _seed_lbfgs_hvp(dw_list, dg_list, v) -> np.ndarray:
    """Approximate Hessian-vector product from difference buffers.

    Buffers are ordered oldest to newest. With A = dW^T dG, D = diag(A),
    L = strictly-lower-triangular(A), and sigma set by the most recent
    pair, solves the 2s x 2s system

        [[-D, L^T], [L, sigma dW^T dW]] p = [dG^T v; sigma dW^T v]

    and returns sigma v - [dG | sigma dW] p. Raises LbfgsSingularError
    when the most recent global difference is zero or the block system is
    singular, in which case the caller falls back to an exact update.
    """
    if len(dw_list) == 0 or len(dw_list) != len(dg_list):
        raise ValueError("need equally many (>=1) global and update differences")
    v = as_vector(v, name="v")
    W = np.column_stack([as_vector(u, name="dW entry") for u in dw_list])
    G = np.column_stack([as_vector(u, name="dG entry") for u in dg_list])
    if W.shape[0] != v.size or G.shape[0] != v.size:
        raise ValueError("buffer dimension does not match v")
    s = W.shape[1]
    sw = W[:, -1]
    denom = float(sw @ sw)
    if denom == 0.0:
        raise LbfgsSingularError("most recent global-model difference is zero")
    sigma = float(G[:, -1] @ sw) / denom
    A = W.T @ G
    D = np.diag(np.diag(A))
    Lo = np.tril(A, k=-1)
    K = np.block([[-D, Lo.T], [Lo, sigma * (W.T @ W)]])
    rhs = np.concatenate([G.T @ v, sigma * (W.T @ v)])
    try:
        p = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise LbfgsSingularError(f"singular buffer system: {exc}") from exc
    if not np.all(np.isfinite(p)):
        raise LbfgsSingularError("non-finite solution for buffer system")
    out = sigma * v - (G @ p[:s] + sigma * (W @ p[s:]))
    if not np.all(np.isfinite(out)):
        raise LbfgsSingularError("non-finite Hessian-vector product")
    return out


def _outcome(fn, *args):
    """The result of fn(*args), or the type of the exception it raised. A
    None or non-finite result counts as the seed kernel's
    LbfgsSingularError: `fedrecover` sends all three to the exact
    fallback, a non-finite result through `linf_norm`."""
    try:
        out = fn(*args)
    except Exception as exc:  # the comparison is by exception type
        return type(exc)
    return out if out is not None and np.isfinite(out).all() else LbfgsSingularError


def _assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


@st.composite
def hvp_inputs(draw):
    """Buffers of s in {1, 2, 3} pairs plus a vector. Small-integer entries
    make exactly singular blocks likely; `shape` forces a zero most recent
    global difference or rank-deficient (collinear) windows."""
    s = draw(st.integers(1, 3))
    d = draw(st.integers(1, 6))
    element = draw(
        st.sampled_from(
            [
                st.integers(-2, 2).map(float),
                st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
            ]
        )
    )
    vec = st.lists(element, min_size=d, max_size=d).map(lambda xs: np.array(xs, dtype=float))
    dw = [draw(vec) for _ in range(s)]
    dg = [draw(vec) for _ in range(s)]
    shape = draw(st.sampled_from(["free", "zero_last_dw", "collinear_dw", "collinear_dg"]))
    if shape == "zero_last_dw":
        dw[-1] = np.zeros(d)
    elif shape == "collinear_dw":
        dw = [draw(element) * dw[0] for _ in range(s)]
    elif shape == "collinear_dg":
        dg = [draw(element) * dg[0] for _ in range(s)]
    return dw, dg, draw(vec)


class TestLbfgsHvp:
    def test_one_dimensional_hand_value(self):
        out = lbfgs_hvp(compact_system([np.array([2.0])], [np.array([6.0])]), np.array([1.0]))
        assert abs(out[0] - 3.0) <= 1e-12

    def test_zero_vector_maps_to_zero(self):
        rng = RngStream(1)
        dw = [rng.normals(4) for _ in range(2)]
        dg = [rng.normals(4) for _ in range(2)]
        np.testing.assert_array_equal(lbfgs_hvp(compact_system(dw, dg), np.zeros(4)), np.zeros(4))

    def test_secant_on_spd_quadratics(self):
        rng = RngStream(2)
        for trial in range(100):
            d = 2 + trial % 19
            s = 1 + trial % 3
            h = random_spd(rng, d)
            dw = [rng.normals(d) for _ in range(s)]
            dg = [h @ w for w in dw]
            out = lbfgs_hvp(compact_system(dw, dg), dw[-1])
            err = np.max(np.abs(out - dg[-1]))
            assert err <= 1e-8 * (1.0 + np.max(np.abs(dg[-1])))

    def test_matches_dense_recursion_oracle(self):
        rng = RngStream(3)
        for _ in range(25):
            d, s = 7, 3
            h = random_spd(rng, d)
            dw = [rng.normals(d) for _ in range(s)]
            # noisy pairs: the oracle must match even off the quadratic
            dg = [h @ w + 0.05 * rng.normals(d) for w in dw]
            v = rng.normals(d)
            np.testing.assert_allclose(
                lbfgs_hvp(compact_system(dw, dg), v),
                bfgs_recursion_oracle(dw, dg, v),
                rtol=1e-9,
                atol=1e-10,
            )

    def test_linearity_in_v(self):
        rng = RngStream(4)
        h = random_spd(rng, 6)
        dw = [rng.normals(6) for _ in range(2)]
        dg = [h @ w for w in dw]
        v1, v2 = rng.normals(6), rng.normals(6)
        system = compact_system(dw, dg)
        lhs = lbfgs_hvp(system, 2.0 * v1 - 0.5 * v2)
        rhs = 2.0 * lbfgs_hvp(system, v1) - 0.5 * lbfgs_hvp(system, v2)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-10

    def test_zero_last_pair_is_singular(self):
        assert lbfgs_hvp(compact_system([np.zeros(3)], [np.ones(3)]), np.ones(3)) is None

    def test_singular_block_is_singular(self):
        # orthogonal pair makes the diagonal block zero
        dw = [np.array([1.0, 0.0])]
        dg = [np.array([0.0, 1.0])]
        assert lbfgs_hvp(compact_system(dw, dg), np.ones(2)) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_solve_is_not_finite(self):
        # K = diag(-1e-300, 1e-300) is regular, but its solve for v = 1e200
        # overflows: p is non-finite while sigma v is not, and so is the product
        dw, dg, v = [np.array([1e-150])], [np.array([1e-150])], np.array([1e200])
        system = compact_system(dw, dg)
        assert system.K.tolist() == [[-1e-300, 0.0], [0.0, 1e-300]]
        rhs = np.concatenate([system.G.T @ v, system.sigma * (system.W.T @ v)])
        assert not np.isfinite(np.linalg.solve(system.K, rhs)).any()
        assert np.isfinite(system.sigma * v).all()
        assert not np.isfinite(lbfgs_hvp(system, v)).any()
        with pytest.raises(LbfgsSingularError):
            _seed_lbfgs_hvp(dw, dg, v)
        # `test_recovery_oracle.TestScriptedFallbacks` runs this case through a
        # recovery, which fixes the non-finite estimate

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lbfgs_hvp(compact_system([np.ones(2)], []), np.ones(2))

    @settings(max_examples=400, deadline=None)
    @given(hvp_inputs())
    def test_bit_identical_to_seed_kernel(self, inputs):
        dw, dg, v = inputs
        want = _outcome(_seed_lbfgs_hvp, dw, dg, v)
        got = _outcome(lambda: lbfgs_hvp(compact_system(dw, dg), v))
        _assert_same_outcome(got, want)


class TestLbfgsBuffersCache:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.one_of(
                st.just(("global", False)),
                st.just(("global", True)),
                st.tuples(st.just("client"), st.integers(0, 2)),
            ),
            max_size=12,
        ),
    )
    def test_cached_systems_follow_the_windows(self, capacity, seed, ops):
        """After every push, each client's cached HVP equals one built
        fresh from its current windows, and the seed kernel's, which shares
        no assembly code with the buffers. Single-client fixes leave that
        client's window ahead of the global one; a zero global difference
        makes the cached system singular until it leaves the window."""
        rng = RngStream(seed)
        d, clients = 5, [0, 1, 2]
        buffers = LbfgsBuffers(capacity, clients)
        for _ in range(capacity):
            buffers.push_global(rng.normals(d))
            for c in clients:
                buffers.push_client(c, rng.normals(d))
        v = rng.normals(d)

        def check():
            for c in clients:
                dw, dg = list(buffers.global_diffs), list(buffers.update_diffs[c])
                want = _outcome(lbfgs_hvp, compact_system(dw, dg), v)
                _assert_same_outcome(_outcome(_seed_lbfgs_hvp, dw, dg, v), want)
                _assert_same_outcome(_outcome(buffers.hvp, c, v), want)
                _assert_same_outcome(_outcome(buffers.hvp, c, v), want)  # served from cache

        check()
        for kind, arg in ops:
            if kind == "global":
                buffers.push_global(np.zeros(d) if arg else rng.normals(d))
            else:
                buffers.push_client(arg, rng.normals(d))
            check()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("slot", ["newest_global", "oldest_global", "client"])
    def test_non_finite_entry_is_singular(self, bad, slot):
        """A non-finite difference reaches the exact-update fallback, as a
        None product or as a non-finite one that `fedrecover`'s `linf_norm`
        refuses, not as a bare ValueError that aborts the run."""
        rng = RngStream(8)
        d = 6
        buffers = LbfgsBuffers(2, [0])
        for push in range(2):
            dw, dg = rng.normals(d), rng.normals(d)
            if (slot, push) in (("oldest_global", 0), ("newest_global", 1)):
                dw[2] = bad
            if (slot, push) == ("client", 1):
                dg[4] = bad
            buffers.push_global(dw)
            buffers.push_client(0, dg)
        assert _outcome(buffers.hvp, 0, rng.normals(d)) is LbfgsSingularError


class TestExactQuadraticHvp:
    def test_lbfgs_recovers_quadratic_with_conjugate_pairs(self):
        # with d exact pairs that are mutually H-conjugate, the buffered
        # approximation reproduces H exactly
        rng = RngStream(5)
        d = 6
        h = random_spd(rng, d)
        raw = [rng.normals(d) for _ in range(d)]
        conj = []
        for r in raw:
            u = r.copy()
            for c in conj:
                u = u - (r @ (h @ c)) / (c @ (h @ c)) * c
            conj.append(u)
        dg = [h @ w for w in conj]
        for _ in range(5):
            v = rng.normals(d)
            exact = h @ v
            approx = lbfgs_hvp(compact_system(conj, dg), v)
            assert np.max(np.abs(approx - exact)) <= 1e-6 * (1.0 + np.max(np.abs(exact)))


def pass_threshold(history: HistoryStore, remaining_clients, alpha: float) -> float:
    """Abnormality threshold from a full checked pass over the history: the
    program's threshold before the top-value table, kept as its oracle.

    Per round, pool every coordinate of the remaining clients' stored
    updates and take the smallest pooled value v such that at most an
    alpha fraction of the pool is strictly greater than v; the threshold
    is the max over rounds. With N pooled values and k = floor(alpha N),
    that value is the ascending pool's element at index max(N - 1 - k, 0).
    """
    remaining = sorted(remaining_clients)
    tau = -math.inf
    for _, round_updates in history.rounds():
        pool = round_updates[remaining].ravel()
        m = max(pool.size - 1 - math.floor(alpha * pool.size), 0)
        tau = max(tau, float(np.partition(pool, m)[m]))
    return tau


def stored_history(directory, updates, alpha: float) -> HistoryStore:
    """A history of the (T, n, d) `updates` (zero models) written in
    `directory` with its top-value table for tolerance rate `alpha`, and
    loaded with that table."""
    total, n, d = np.shape(updates)
    path, tops = os.path.join(directory, "h.bin"), os.path.join(directory, "h.tops")
    store = HistoryStore.create(path, d, n, total, CHASH, tops=(tops, recovery.top_count(alpha, n, d)))
    for t, rows in enumerate(updates):
        store.append(t, np.zeros(d), dict(enumerate(np.asarray(rows, dtype=float))))
    return HistoryStore.load(path, tops)


class FakeHistory:
    """Minimal history for threshold tests: per round, client 0's stored
    update is that round's pool, so every pool has the same size d. It is
    a real history file with its top-value table for tolerance rate
    `alpha`, in a directory removed with the object."""

    def __init__(self, pools, alpha):
        self._dir = tempfile.TemporaryDirectory()
        self.store = stored_history(self._dir.name, [[pool] for pool in pools], alpha)

    def threshold(self, alpha):
        return compute_threshold(self.store, [0], alpha)


def threshold_predicate_oracle(pool, alpha):
    """Brute force: smallest pooled value v with |{x > v}| <= alpha * N."""
    n = len(pool)
    best = None
    for v in sorted(pool):
        count = sum(1 for x in pool if x > v)
        if count <= alpha * n:
            best = v
            break
    return best


def _seed_round_threshold(pool, alpha):
    """The per-round threshold as first written: sort, unique, searchsorted."""
    n = pool.size
    asc = np.sort(pool)
    limit = alpha * n
    uniq = np.unique(asc)
    greater = n - np.searchsorted(asc, uniq, side="right")
    return float(uniq[greater <= limit][0])


# Coordinates with ties, both zeros and negative values among them.
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_ALPHAS = st.one_of(
    st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([1e-6, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0]),
)


@st.composite
def threshold_cases(draw):
    """(T, n, d) updates, a nonempty remaining set and alpha in (0, 1]; with
    `negative`, every pooled value is below zero."""
    total, n, d = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    updates = np.array(draw(st.lists(_COORDS, min_size=total * n * d, max_size=total * n * d)))
    if draw(st.booleans()):  # all negative
        updates = -np.abs(updates) - 0.5
    remaining = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return updates.reshape(total, n, d), remaining, draw(_ALPHAS)


class TestComputeThreshold:
    def test_alpha_one_small_pool(self):
        assert FakeHistory([[1.0, 2.0, 3.0]], 1.0).threshold(1.0) == 1.0

    def test_pool_of_ten_alpha_point2(self):
        assert FakeHistory([list(range(1, 11))], 0.2).threshold(0.2) == 8.0

    def test_max_over_rounds(self):
        # alpha 0.4 on 2-element pools tolerates zero exceedances, so the
        # per-round thresholds are the pooled maxima 5 and 7
        assert FakeHistory([[1.0, 5.0], [1.0, 7.0]], 0.4).threshold(0.4) == 7.0

    def test_matches_predicate_oracle(self):
        rng = RngStream(6)
        for trial in range(50):
            pool = rng.normals(3 + trial % 40).tolist()
            alpha = (trial % 10 + 1) / 10.0
            got = FakeHistory([pool], alpha).threshold(alpha)
            assert got == threshold_predicate_oracle(pool, alpha)

    # == treats -0.0 and 0.0 as equal: among tied zeros, sort and
    # selection may return either sign, and tau is only ever compared.
    @settings(max_examples=400, deadline=None)
    @given(
        size=st.integers(1, 40),
        rounds=st.integers(1, 3),
        coords=st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=120,
            max_size=120,
        ),
        alpha=_ALPHAS,
    )
    def test_selection_matches_seed_formula(self, size, rounds, coords, alpha):
        pools = [coords[t * size : (t + 1) * size] for t in range(rounds)]
        want = max(_seed_round_threshold(np.array(p), alpha) for p in pools)
        assert FakeHistory(pools, alpha).threshold(alpha) == want

    @settings(max_examples=300, deadline=None)
    @given(case=threshold_cases())
    def test_table_matches_the_full_pass(self, case):
        # any d, n, T, remaining set and alpha: the table's tau is the
        # full pass's, with m < d and m = d, ties, -0.0 and negative pools
        updates, remaining, alpha = case
        with tempfile.TemporaryDirectory() as tmp:
            store = stored_history(tmp, updates, alpha)
            assert store.tops.m == recovery.top_count(alpha, *updates.shape[1:])
            assert compute_threshold(store, remaining, alpha) == pass_threshold(
                store, remaining, alpha
            )

    def test_table_of_fewer_values_than_the_rank_is_refused(self, tmp_path):
        # a table kept for alpha = 0.05 (m = 1 of d = 5) cannot serve 0.5,
        # whose tau is the 6th largest of two clients' 10 values, so up to
        # the 5th of its own client's
        rng = RngStream(2)
        store = stored_history(tmp_path, rng.normals(2 * 2 * 5).reshape(2, 2, 5), 0.05)
        assert store.tops.m == 1
        with pytest.raises(HistoryError, match=r"h\.tops: holds the 1 largest values .* needs 5"):
            compute_threshold(store, [0, 1], 0.5)


class TestPredictedCost:
    def test_reference_settings(self):
        assert predicted_cost(2000, 20, 10, 5) == 222

    def test_period_one_is_everything(self):
        assert predicted_cost(300, 10, 1, 5) == 300

    def test_no_estimation_window(self):
        assert predicted_cost(25, 20, 10, 5) == 25


class TestTheoreticalBound:
    def test_zero_m_zero_d0(self):
        for t in (0, 1, 7, 500):
            assert theoretical_bound(0.1, 1.0, 0.0, t, 0.0) == 0.0

    def test_large_t_limit(self):
        eta, mu, m = 0.05, 0.5, 2.0
        limit = eta * m / (1.0 - math.sqrt(1.0 - eta * mu))
        val = theoretical_bound(eta, mu, m, 10_000, 3.0)
        assert val == pytest.approx(limit, rel=1e-6)

    def test_hand_arithmetic(self):
        assert theoretical_bound(0.75, 1.0, 0.0, 1, 1.0) == pytest.approx(0.5)


def recovery_params(**kw):
    base = dict(
        warmup_rounds=6,
        correction_period=5,
        final_tuning_rounds=3,
        buffer_size=2,
        tolerance_rate=1e-6,
        tau=math.inf,
    )
    base.update(kw)
    return RecoveryParams(**base)


class TestFedrecover:
    def test_cost_accounting_tau_inf(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        params = recovery_params()
        result = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, ())
        expected = predicted_cost(sc["rounds"], 6, 5, 3)
        assert result.abnormality_count == 0
        for tr in result.exact_rounds_per_client.values():
            assert tr == expected

    def test_finite_tau_at_least_predicted(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        params = recovery_params(tau=None, tolerance_rate=0.05)
        result = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, ())
        expected = predicted_cost(sc["rounds"], 6, 5, 3)
        for tr in result.exact_rounds_per_client.values():
            assert tr >= expected

    def test_period_one_equals_scratch(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        params = recovery_params(correction_period=1)
        every = range(sc["rounds"] + 1)
        result = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, every)
        trace = train_from_scratch(sc["setup"], sc["remaining"], sc["rounds"], every)
        assert list(result.models) == list(trace) == list(every)
        for t in every:
            np.testing.assert_array_equal(result.models[t], trace[t])

    def test_exact_quadratic_mode_tracks_scratch(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        params = recovery_params(hvp_mode="exact_quadratic")
        every = range(sc["rounds"] + 1)
        result = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, every)
        trace = train_from_scratch(sc["setup"], sc["remaining"], sc["rounds"], every)
        gaps = [np.max(np.abs(result.models[t] - trace[t])) for t in every]
        assert max(gaps) <= 1e-8

    def test_exact_quadratic_mode_forms_no_hessian(self, tmp_path):
        # d = 2570 (input dim 256, 10 classes): one (d, d) Hessian alone is
        # 52.8 MB, so an exact-mode recovery whose 54 estimated client-rounds
        # (9 clients x 6 rounds) take the HVP from the gradient peaks far below it
        dataset = gen_synthetic(10, 256, 20, 4.0, seed=3)
        spec = ModelSpec("ridge", 256, 10, l2=0.1)
        setup = build_setup(
            spec=spec, dataset=dataset, n_clients=10, rule=AggregationRule("fedavg"),
            eta=0.1, batch_size=8, seed=3, attack=AttackConfig(kind="trim", b=2.0),
            malicious=(0,),
        )
        _, store = train_and_load(setup, 12, tmp_path / "history.bin")
        params = RecoveryParams(
            warmup_rounds=4, correction_period=12, final_tuning_rounds=2,
            tau=math.inf, hvp_mode="exact_quadratic",
        )
        tracemalloc.start()
        try:
            result = fedrecover(store, range(1, 10), setup, params, range(13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.param_dim == 2570
        assert result.exact_rounds_per_client == {c: 6 for c in range(1, 10)}
        assert peak < 10 * 2**20, peak
        trace = train_from_scratch(setup, range(1, 10), 12, range(13))
        assert max(np.max(np.abs(result.models[t] - trace[t])) for t in range(13)) <= 1e-8

    def test_lbfgs_mode_close_to_scratch_on_quadratic(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        params = recovery_params()
        final = sc["rounds"]
        result = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, (final,))
        model = train_from_scratch(sc["setup"], sc["remaining"], final, (final,))[final]
        gap = float(np.linalg.norm(result.models[final] - model))
        assert gap < 0.05 * (1.0 + float(np.linalg.norm(model)))

    def test_instrumentation_measures_estimated_rounds(self, ridge_trim_scenario):
        # observed from outside: each round's exact updates (every remaining
        # client's, under instrument) and the updates it aggregates; an
        # aggregated update that is not the exact one is an accepted estimate
        sc = ridge_trim_scenario
        params = recovery_params()
        asked, aggregated = [], []
        real_report, real_step = FlSetup.reported_updates, FlSetup.aggregate_step

        def report(self, *args, **kwargs):
            asked.append(real_report(self, *args, **kwargs))
            return asked[-1]

        def step(self, w, reported):
            aggregated.append(dict(reported))
            return real_step(self, w, reported)

        with mock.patch.object(FlSetup, "reported_updates", report), \
                mock.patch.object(FlSetup, "aggregate_step", step):
            result = fedrecover(
                sc["store"], sc["remaining"], sc["setup"], params, (), instrument=True
            )
        errors = [
            float(np.linalg.norm(chosen[c] - exact[c]))
            for exact, chosen in zip(asked, aggregated)
            for c in chosen
            if chosen[c] is not exact[c]
        ]
        n_remaining = len(sc["setup"].client_ids) - len(sc["malicious"])
        estimated_rounds = sc["rounds"] - predicted_cost(sc["rounds"], 6, 5, 3)
        assert len(asked) == len(aggregated) == sc["rounds"]
        assert len(errors) == estimated_rounds * n_remaining
        assert result.measured_m == max(errors) > 0.0
        plain = fedrecover(sc["store"], sc["remaining"], sc["setup"], params, ())
        assert plain.measured_m is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_estimate_falls_back_to_exact(
        self, ridge_trim_scenario, monkeypatch, tmp_path
    ):
        """g + Hv overflowing to inf is an abnormality, not a crash, and it
        is never counted as an accepted estimate."""
        sc = ridge_trim_scenario
        store = sc["store"]
        params = recovery_params()
        remaining = sc["remaining"]
        # round 6 is the first estimated round; its first estimate is for remaining[0]
        t0, c0 = params.warmup_rounds, remaining[0]
        path = tmp_path / "h.bin"
        rewritten = HistoryStore.create(
            path, store.d, store.n, store.total_rounds, store.config_hash
        )
        for t, (model, updates) in enumerate(store.rounds()):
            if t == t0:
                updates[c0] = 1.7e308
            rewritten.append(t, model, dict(enumerate(updates)))
        history = HistoryStore.load(path)
        real_hvp, real_linf = recovery.lbfgs_hvp, recovery.linf_norm
        hvp_calls, accepted = [], []

        def kernel(*args):
            hvp_calls.append(None)
            if len(hvp_calls) == 1:
                return np.full_like(args[-1], 1.7e308)
            return real_hvp(*args)

        def linf(v):
            out = real_linf(v)
            accepted.append(out <= params.tau)
            return out

        monkeypatch.setattr(recovery, "lbfgs_hvp", kernel)
        monkeypatch.setattr(recovery, "linf_norm", linf)
        result = fedrecover(history, sc["remaining"], sc["setup"], params, (sc["rounds"],))
        assert result.abnormality_count >= 1
        assert len(hvp_calls) == sum(accepted) + result.abnormality_count
        expected = predicted_cost(sc["rounds"], 6, 5, 3)
        assert sum(result.exact_rounds_per_client.values()) == (
            expected * len(remaining) + result.abnormality_count
        )
        assert np.all(np.isfinite(result.models[sc["rounds"]]))


def _observed_fedrecover(history, remaining, setup, params):
    """fedrecover with its estimate attempts observed from outside.

    Counts `lbfgs_hvp` calls, attributes each `LbfgsBuffers.hvp` call to
    its client, and records the `linf_norm` that judged the attempt's
    estimate (None when there was none: a singular system or an
    overflowing estimate). Returns the result, the kernel call count, the
    number of accepted estimates and, per client, how many of its
    attempts were not accepted (its fixes). The result keeps the final
    model only.
    """
    kernel_calls = []
    attempts = []  # [client, linf of its estimate or None]
    real_kernel, real_hvp, real_linf = recovery.lbfgs_hvp, LbfgsBuffers.hvp, recovery.linf_norm

    def kernel(*args):
        kernel_calls.append(None)
        return real_kernel(*args)

    def hvp(self, client_id, v):
        attempts.append([client_id, None])
        return real_hvp(self, client_id, v)

    def linf(v):
        attempts[-1][1] = out = real_linf(v)
        return out

    with (
        mock.patch.object(recovery, "lbfgs_hvp", kernel),
        mock.patch.object(LbfgsBuffers, "hvp", hvp),
        mock.patch.object(recovery, "linf_norm", linf),
    ):
        result = fedrecover(history, remaining, setup, params, (history.total_rounds,))
    accepted = 0
    fixes = {c: 0 for c in result.exact_rounds_per_client}
    for client, norm in attempts:
        ok = norm is not None and norm <= result.tau
        accepted += ok
        fixes[client] += not ok
    return result, len(kernel_calls), accepted, fixes


@st.composite
def recovery_cases(draw):
    """A stored scenario, the clients a nonempty detected list leaves and
    recovery parameters. The backdoor scenario trims k=2 of 8 clients, so
    at most 3 are detected there."""
    name = draw(st.sampled_from(["ridge", "backdoor"]))
    n_clients, max_detected = (6, 5) if name == "ridge" else (8, 3)
    detected = draw(
        st.lists(st.integers(0, n_clients - 1), min_size=1, max_size=max_detected, unique=True)
    )
    buffer_size = draw(st.integers(1, 3))
    params = dict(
        buffer_size=buffer_size,
        warmup_rounds=draw(st.integers(buffer_size + 1, buffer_size + 6)),
        correction_period=draw(st.integers(1, 6)),
        final_tuning_rounds=draw(st.integers(0, 4)),
        tau=None,
        tolerance_rate=draw(st.sampled_from([1e-6, 0.01, 0.1, 0.5])),
    )
    return name, sorted(set(range(n_clients)) - set(detected)), params


class TestFedrecoverProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=recovery_cases())
    def test_properties(self, ridge_trim_scenario, logreg_backdoor_scenario, case):
        name, remaining, kw = case
        sc = ridge_trim_scenario if name == "ridge" else logreg_backdoor_scenario
        store, setup = sc["store"], sc["setup"]
        floor = predicted_cost(
            sc["rounds"], kw["warmup_rounds"], kw["correction_period"], kw["final_tuning_rounds"]
        )
        for tau in (None, math.inf):
            params = RecoveryParams(**{**kw, "tau": tau})
            result, kernel_calls, accepted, fixes = _observed_fedrecover(
                store, remaining, setup, params
            )
            # the benchmark's trace identity: every kernel call is an
            # accepted estimate or an abnormality
            assert kernel_calls == accepted + result.abnormality_count
            # each client's exact rounds: the schedule plus its own fixes
            assert result.exact_rounds_per_client == {c: floor + fixes[c] for c in fixes}
            if tau is not None:  # tau = inf never fixes
                assert result.abnormality_count == 0
            # the order of `remaining` does not matter
            again = fedrecover(store, remaining[::-1], setup, params, (sc["rounds"],))
            np.testing.assert_array_equal(again.models[sc["rounds"]], result.models[sc["rounds"]])
            assert again.exact_rounds_per_client == result.exact_rounds_per_client
            assert again.abnormality_count == result.abnormality_count


@st.composite
def period_one_cases(draw):
    """A small trained scenario (model kind, local steps, rule, attack) and
    a detected set that holds every malicious client, plus recovery
    parameters with correction_period = 1."""
    n_clients = draw(st.integers(3, 5))
    attack = draw(st.sampled_from([None, "trim", "backdoor"]))
    clients = st.integers(0, n_clients - 1)
    malicious = set()
    if attack:
        malicious = set(draw(st.lists(clients, min_size=1, max_size=n_clients - 1)))
    detected = malicious | set(draw(st.lists(clients, max_size=n_clients - 1)))
    if len(detected) == n_clients:
        detected.discard(max(set(range(n_clients)) - malicious))
    rule = draw(st.sampled_from(["fedavg", "median", "trimmed_mean"]))
    k = 1 if rule == "trimmed_mean" and n_clients - len(detected) >= 3 else 0
    buffer_size = draw(st.integers(1, 2))
    warmup = draw(st.integers(buffer_size + 1, buffer_size + 3))
    final = draw(st.integers(0, 2))
    scenario = dict(
        kind=draw(st.sampled_from(["logreg", "ridge", "mlp"])),
        l=draw(st.integers(1, 2)),
        n_clients=n_clients,
        rule=AggregationRule(rule, k),
        attack=attack,
        adaptive=draw(st.booleans()),
        malicious=malicious,
        rounds=draw(st.integers(warmup + final, warmup + final + 4)),
        seed=draw(st.integers(0, 10_000)),
    )
    params = RecoveryParams(
        warmup_rounds=warmup,
        correction_period=1,
        final_tuning_rounds=final,
        buffer_size=buffer_size,
        tau=draw(st.sampled_from([None, math.inf])),
    )
    return scenario, sorted(detected), params


class TestPeriodOneIsRetraining:
    @settings(max_examples=25, deadline=None)
    @given(case=period_one_cases())
    def test_equals_train_from_scratch(self, case):
        """With correction_period = 1 every round is exact and no detected
        client is asked, so the recovery retraces retraining bit for bit."""
        sc, detected, params = case
        dataset = gen_synthetic(3, 4, 30, 3.0, seed=sc["seed"])
        attack = None
        if sc["attack"] == "trim":
            attack = AttackConfig(kind="trim", b=2.0)
        elif sc["attack"] == "backdoor":
            trigger = Trigger(kind="every_kth", k=2, value=1.0)
            attack = AttackConfig(
                kind="backdoor", trigger=trigger, target_label=0, lam=5.0, adaptive=sc["adaptive"]
            )
        setup = build_setup(
            spec=ModelSpec(sc["kind"], 4, 3, hidden=3 if sc["kind"] == "mlp" else 0, l2=0.05),
            dataset=dataset,
            n_clients=sc["n_clients"],
            rule=sc["rule"],
            eta=0.2,
            batch_size=8,
            seed=sc["seed"],
            attack=attack,
            malicious=sc["malicious"],
            l=sc["l"],
        )
        remaining = sorted(set(setup.client_ids) - set(detected))
        with tempfile.TemporaryDirectory() as tmp:
            _, store = train_and_load(setup, sc["rounds"], os.path.join(tmp, "h.bin"))
            every = range(sc["rounds"] + 1)
            result = fedrecover(store, remaining, setup, params, every)
        trace = train_from_scratch(setup, remaining, sc["rounds"], every)
        assert list(result.models) == list(trace) == list(every)
        for t in every:
            assert np.array_equal(result.models[t], trace[t])


class TestBaselines:
    def test_historical_replay_identity(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        setup = sc["setup"]
        trace = historical_only(sc["store"], setup.client_ids, setup, (0, sc["rounds"]))
        # replaying every stored update must land on the original final model
        np.testing.assert_array_equal(trace[sc["rounds"]], sc["final"])
        first_model, _ = next(sc["store"].rounds())
        np.testing.assert_array_equal(trace[0], first_model)

    def test_scratch_with_nothing_detected_is_benign_original(self, tmp_path):
        from conftest import CHASH, build_setup
        from fedsim.aggregation import AggregationRule
        from fedsim.data import gen_synthetic
        from fedsim.flengine import train
        from fedsim.models import ModelSpec

        dataset = gen_synthetic(3, 4, 30, 3.0, seed=9)
        setup = build_setup(
            spec=ModelSpec("logreg", 4, 3, l2=0.05),
            dataset=dataset,
            n_clients=5,
            rule=AggregationRule("fedavg"),
            eta=0.2,
            batch_size=16,
            seed=9,
        )
        final = train(setup, 12, tmp_path / "h.bin", CHASH, (12,))[12]
        trace = train_from_scratch(setup, setup.client_ids, 12, (12,))
        np.testing.assert_array_equal(trace[12], final)

    def test_replays_of_an_empty_history_keep_nothing(self, ridge_trim_scenario, tmp_path):
        # T = 0: the history holds no record, so not even a start model
        setup = ridge_trim_scenario["setup"]
        assert list(train(setup, 0, tmp_path / "h.bin", CHASH, (0,))) == [0]
        store = HistoryStore.load(tmp_path / "h.bin")
        params = recovery_params()
        assert historical_only(store, range(1, 6), setup, (0,)) == {}
        assert fedrecover(store, range(1, 6), setup, params, (0,), instrument=True).models == {}

    def test_historical_cost_is_zero_by_definition(self, ridge_trim_scenario):
        from fedsim.metrics import cost_saving

        sc = ridge_trim_scenario
        cp, acp = cost_saving(sc["rounds"], {c: 0 for c in sc["remaining"]})
        assert acp == 100.0

    def test_scratch_cost_is_total(self, ridge_trim_scenario):
        from fedsim.metrics import cost_saving

        sc = ridge_trim_scenario
        cp, acp = cost_saving(sc["rounds"], {c: sc["rounds"] for c in sc["remaining"]})
        assert acp == 0.0


class TestResidualAttackers:
    def test_undetected_trim_attacker_is_deterministic(self, ridge_trim_scenario):
        # one trim attacker escapes detection and keeps attacking in every
        # exact round; each round's crafting is seeded by the round, so reruns agree
        sc = ridge_trim_scenario
        remaining = [1, 2, 3, 4, 5]  # 0 detected: client 1 stays malicious
        params = recovery_params(tau=None, tolerance_rate=0.05)
        final = (sc["rounds"],)
        a = fedrecover(sc["store"], remaining, sc["setup"], params, final)
        b = fedrecover(sc["store"], remaining, sc["setup"], params, final)
        np.testing.assert_array_equal(a.models[sc["rounds"]], b.models[sc["rounds"]])
        assert a.exact_rounds_per_client == b.exact_rounds_per_client
        floor = predicted_cost(sc["rounds"], 6, 5, 3)
        assert all(tr >= floor for tr in a.exact_rounds_per_client.values())

    def test_undetected_backdoor_attacker_rescales(self, logreg_backdoor_scenario):
        sc = logreg_backdoor_scenario
        remaining = [0, 1, 3, 4, 5, 6, 7]  # 2 detected: client 5 survives; lam doubles to 16
        params = recovery_params(warmup_rounds=5, correction_period=5, final_tuning_rounds=3)
        result = fedrecover(sc["store"], remaining, sc["setup"], params, (sc["rounds"],))
        assert 5 in result.exact_rounds_per_client
        assert np.all(np.isfinite(result.models[sc["rounds"]]))

    def test_malicious_clients_without_an_attack_report_honestly(self, tmp_path):
        # a config may name malicious clients and no attack: they train,
        # and are asked in recovery, exactly as benign clients
        def run(malicious, name):
            setup = build_setup(
                spec=ModelSpec("logreg", 4, 3, l2=0.05),
                dataset=gen_synthetic(3, 4, 40, 3.0, seed=7),
                n_clients=6,
                rule=AggregationRule("fedavg"),
                eta=0.2,
                batch_size=8,
                seed=7,
                malicious=malicious,
            )
            path = tmp_path / name
            _, store = train_and_load(setup, 24, path, 0.05)
            params = recovery_params(tau=None, tolerance_rate=0.05)
            result = fedrecover(store, [0, 2, 3, 4, 5], setup, params, range(25), instrument=True)
            return path.read_bytes(), result

        history, result = run((1, 3, 4), "named.bin")
        history_benign, benign = run((), "benign.bin")
        assert history == history_benign
        assert list(result.models) == list(benign.models) == list(range(25))
        for t in range(25):
            assert np.array_equal(result.models[t], benign.models[t])
        assert result.exact_rounds_per_client == benign.exact_rounds_per_client
        assert result.abnormality_count == benign.abnormality_count
        assert result.measured_m == benign.measured_m


class TestHistoricalOnlyUnderAttack:
    def test_trim_scenario_near_random_guessing(self, tmp_path):
        # replaying stale benign updates after a trim attack lands at or
        # below coin-flip accuracy on balanced binary data
        from conftest import CHASH, build_setup
        from fedsim.aggregation import AggregationRule
        from fedsim.attacks import AttackConfig
        from fedsim.data import gen_synthetic
        from fedsim.flengine import train
        from fedsim.metrics import test_error_rate
        from fedsim.models import ModelSpec

        dataset = gen_synthetic(2, 10, 400, 4.0, seed=71)
        test_set = gen_synthetic(2, 10, 200, 4.0, seed=72)
        setup = build_setup(
            spec=ModelSpec("logreg", 10, 2, l2=0.01),
            dataset=dataset,
            n_clients=8,
            rule=AggregationRule("trimmed_mean", 1),
            eta=0.1,
            batch_size=32,
            seed=71,
            q=0.5,
            attack=AttackConfig(kind="trim", b=2.0),
            malicious=(0, 1, 2),
        )
        train(setup, 300, tmp_path / "h.bin", CHASH, ())
        store = HistoryStore.load(tmp_path / "h.bin")
        model = historical_only(store, range(3, 8), setup, (300,))[300]
        ter = test_error_rate(setup.spec, model, test_set)
        assert ter >= 0.5


class TestFineTune:
    def test_reduces_backdoor_success(self, logreg_backdoor_scenario):
        from fedsim.metrics import attack_success_rate

        sc = logreg_backdoor_scenario
        spec = sc["setup"].spec
        trigger = sc["setup"].attack.trigger
        before = attack_success_rate(spec, sc["final"], sc["dataset"], trigger, 0)
        assert before >= 0.8  # the scenario really is backdoored
        tuned = fine_tune(
            spec, sc["final"], sc["dataset"], 30, 0.2, math.inf, 120, 16, seed=9
        )
        after = attack_success_rate(spec, tuned, sc["dataset"], trigger, 0)
        assert after < 0.2

    def test_skewed_sample_hurts_accuracy(self, logreg_backdoor_scenario):
        from fedsim.metrics import test_error_rate

        sc = logreg_backdoor_scenario
        spec = sc["setup"].spec
        for seed in (5, 6, 7, 8):
            skewed = fine_tune(spec, sc["final"], sc["dataset"], 30, 0.2, 0.1, 60, 16, seed=seed)
            uniform = fine_tune(
                spec, sc["final"], sc["dataset"], 30, 0.2, math.inf, 60, 16, seed=seed
            )
            assert test_error_rate(spec, skewed, sc["dataset"]) > test_error_rate(
                spec, uniform, sc["dataset"]
            )

    def test_zero_epochs_unchanged(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        out = fine_tune(
            sc["setup"].spec, sc["final"], sc["dataset"], 0, 0.1, math.inf, 50, 16, seed=3
        )
        np.testing.assert_array_equal(out, sc["final"])

    def test_deterministic(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        args = (sc["setup"].spec, sc["final"], sc["dataset"], 3, 0.1, 0.5, 60, 16)
        a = fine_tune(*args, seed=4)
        b = fine_tune(*args, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_infeasible_counts_rejected(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        with pytest.raises(ValueError):
            fine_tune(
                sc["setup"].spec, sc["final"], sc["dataset"], 1, 0.1, math.inf,
                sc["dataset"].size + 1, 16, seed=5,
            )

    @pytest.mark.parametrize("beta", [1e-6, 1.7e308], ids=["underflow", "overflow"])
    def test_draw_out_of_float_range_names_beta(self, ridge_trim_scenario, beta):
        # every Gamma draw underflows to 0 (0/0 proportions), or their sum
        # overflows (all proportions 0): either way no class count is meant
        sc = ridge_trim_scenario
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ClassDrawError) as err:
            fine_tune(sc["setup"].spec, sc["final"], sc["dataset"], 1, 0.1, beta, 50, 16, seed=7)
        assert err.value.key == "finetune.beta"

    def test_class_short_of_its_draw_names_n_examples(self, ridge_trim_scenario):
        sc = ridge_trim_scenario
        with pytest.raises(ClassDrawError, match="a larger finetune.beta evens the draw") as err:
            fine_tune(
                sc["setup"].spec, sc["final"], sc["dataset"], 1, 0.1, math.inf,
                sc["dataset"].size + 1, 16, seed=5,
            )
        assert err.value.key == "finetune.n_examples"

    def test_uniform_beta_reduces_loss(self, ridge_trim_scenario):
        from fedsim.metrics import test_error_rate

        sc = ridge_trim_scenario
        before = test_error_rate(sc["setup"].spec, sc["final"], sc["dataset"])
        tuned = fine_tune(
            sc["setup"].spec, sc["final"], sc["dataset"], 20, 0.2, math.inf, 200, 16, seed=6
        )
        after = test_error_rate(sc["setup"].spec, tuned, sc["dataset"])
        assert after <= before
