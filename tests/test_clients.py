import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.clients import BatchSampler, client_local_update
from fedsim.models import ModelSpec, gradient, quadratic_hessian
from fedsim.numcore import STREAM_BATCH, RngStream, derive_seed

RIDGE = ModelSpec("ridge", input_dim=3, num_classes=2, l2=0.2)


def make_local(rng, n=20, dim=3, classes=2):
    x = rng.uniforms(n * dim).reshape(n, dim)
    y = np.array([rng.randint_below(classes) for _ in range(n)], dtype=np.int64)
    return x, y


class TestBatchSampler:
    def test_round_batches_are_pure(self):
        a = BatchSampler(7, 3, 50, 8)
        b = BatchSampler(7, 3, 50, 8)
        for t in (0, 5, 123):
            for ba, bb in zip(a.round_batches(t, 2), b.round_batches(t, 2)):
                np.testing.assert_array_equal(ba, bb)

    def test_epoch_covers_shard_without_replacement(self):
        s = BatchSampler(7, 0, 50, 8)
        seen = np.concatenate([s.batch(j) for j in range(s.per_epoch)])
        assert sorted(seen.tolist()) == list(range(50))

    def test_full_batch_when_batch_size_exceeds_shard(self):
        s = BatchSampler(7, 0, 10, 64)
        assert s.per_epoch == 1
        assert sorted(s.batch(3).tolist()) == list(range(10))

    def test_different_clients_different_batches(self):
        a = BatchSampler(7, 0, 50, 8)
        b = BatchSampler(7, 1, 50, 8)
        assert not np.array_equal(a.batch(0), b.batch(0))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        cid=st.integers(0, 99),
        n=st.integers(1, 200),
        batch_size=st.integers(1, 64),
        steps=st.lists(st.integers(0, 500), min_size=1, max_size=40),
    )
    def test_any_step_order_matches_seed_derivation(self, seed, cid, n, batch_size, steps):
        # random step orders revisit earlier epochs, as FedRecover's exact rounds do
        sampler = BatchSampler(seed, cid, n, batch_size)
        bs = min(batch_size, n)
        for step in steps:
            epoch, slot = divmod(step, sampler.per_epoch)
            perm = RngStream(derive_seed(seed, STREAM_BATCH, cid, epoch)).permutation(n)
            np.testing.assert_array_equal(sampler.batch(step), perm[slot * bs : (slot + 1) * bs])

    def test_returned_batch_is_read_only(self):
        sampler = BatchSampler(7, 0, 50, 8)
        idx = sampler.batch(0)
        with pytest.raises(ValueError):
            idx[0] = 1
        with pytest.raises(ValueError):
            sampler.batch(1)[:] = 0

    def test_sequential_pass_draws_one_permutation_per_epoch(self, monkeypatch):
        calls = []
        permutation = RngStream.permutation

        def counting(rng, n):
            calls.append(n)
            return permutation(rng, n)

        monkeypatch.setattr(RngStream, "permutation", counting)
        sampler = BatchSampler(7, 0, 50, 8)
        epochs = 6
        for t in range(epochs * sampler.per_epoch // 2):
            sampler.round_batches(t, 2)
        assert calls == [50] * epochs


class TestClientLocalUpdate:
    def test_l1_is_exact_batch_gradient(self):
        rng = RngStream(1)
        x, y = make_local(rng)
        sampler = BatchSampler(5, 0, 20, 20)
        w = rng.normals(RIDGE.param_dim)
        upd = client_local_update(RIDGE, w, x, y, sampler, 0, 1, 0.1)
        idx = sampler.round_batches(0, 1)[0]
        np.testing.assert_array_equal(upd, gradient(RIDGE, w, x[idx], y[idx]))

    def test_l1_equals_l_generalization(self):
        rng = RngStream(2)
        x, y = make_local(rng)
        sampler = BatchSampler(5, 0, 20, 8)
        w = rng.normals(RIDGE.param_dim)
        eta = 0.5  # power of two keeps (w - (w - eta*g))/eta exact
        g = client_local_update(RIDGE, w, x, y, sampler, 4, 1, eta)
        idx = sampler.round_batches(4, 1)[0]
        direct = gradient(RIDGE, w, x[idx], y[idx])
        np.testing.assert_allclose((w - (w - eta * g)) / eta, direct, rtol=1e-12)

    def test_multi_step_matches_quadratic_closed_form(self):
        # on a quadratic loss, l SGD steps have the geometric closed form
        # (I - (I - eta H)^l)(w0 - w*) / eta with full-batch sampling
        rng = RngStream(3)
        x, y = make_local(rng, n=12)
        sampler = BatchSampler(5, 0, 12, 12)
        w0 = rng.normals(RIDGE.param_dim)
        eta, l = 0.1, 3
        upd = client_local_update(RIDGE, w0, x, y, sampler, 0, l, eta)

        h = quadratic_hessian(RIDGE, x)
        g0 = gradient(RIDGE, np.zeros(RIDGE.param_dim), x, y)
        w_star = -np.linalg.solve(h, g0)
        step = np.eye(RIDGE.param_dim) - eta * h
        expected = (np.eye(RIDGE.param_dim) - np.linalg.matrix_power(step, l)) @ (
            w0 - w_star
        ) / eta
        np.testing.assert_allclose(upd, expected, rtol=1e-9, atol=1e-12)
