"""The client-side kernels against their reference copies, byte for byte.

`np.array_equal` treats -0.0 and +0.0 as equal, so every comparison here
is of `.tobytes()`: a rewrite that flips the sign of a zero changes
`history.bin`, and only a byte comparison sees it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from fedsim.clients import BatchSampler, client_local_update
from fedsim.data import Dataset
from fedsim.models import ModelSpec, gradient, scores
from fedsim.numcore import RngStream
from fedsim.recovery import fine_tune

SEED = 11
CLIENT = 3


@st.composite
def cases(draw):
    """A model, its weights, a shard and a local-update schedule. Weights and
    inputs span scales 1e-4..30 and hold exact zeros, some of them all zero."""
    kind = draw(st.sampled_from(["logreg", "mlp", "ridge"]))
    spec = ModelSpec(
        kind,
        input_dim=draw(st.integers(1, 10)),
        num_classes=draw(st.integers(2, 5)),
        hidden=draw(st.integers(1, 8)) if kind == "mlp" else 0,
        l2=draw(st.sampled_from([0.0, 1e-3, 0.5])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-4.0, np.log10(30.0)))
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0]))
    w = rng.normal(size=spec.param_dim) * scale
    w[rng.random(spec.param_dim) < zeros] = 0.0
    n = draw(st.integers(1, 30))
    x = rng.normal(size=(n, spec.input_dim)) * scale
    x[rng.random(x.shape) < 0.2] = 0.0
    y = rng.integers(0, spec.num_classes, size=n).astype(np.int64)
    schedule = dict(
        batch_size=draw(st.integers(1, 12)),
        round_idx=draw(st.integers(0, 6)),
        l=draw(st.integers(1, 4)),
        eta=draw(st.sampled_from([0.05, 0.1, 0.3, 1.0])),
    )
    return spec, w, x, y, schedule


class TestSameBytes:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_gradient(self, case):
        spec, w, x, y, _ = case
        assert gradient(spec, w, x, y).tobytes() == ref.gradient(spec, w, x, y).tobytes()
        assert scores(spec, w, x).tobytes() == ref._forward(spec, w, x)[0].tobytes()

    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_client_local_update(self, case):
        spec, w, x, y, s = case
        bs, t, l, eta = s["batch_size"], s["round_idx"], s["l"], s["eta"]
        got = client_local_update(spec, w, x, y, BatchSampler(SEED, CLIENT, len(y), bs), t, l, eta)
        want = ref.client_local_update(
            spec, w, x, y, BatchSampler(SEED, CLIENT, len(y), bs), t, l, eta
        )
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(0, 600))
    def test_block_and_permutation(self, seed, first, n):
        rng = RngStream(seed)
        assert rng._block(first, n).tobytes() == ref.block(rng.seed, first, n).tobytes()
        rng.counter = first
        perm = rng.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tobytes() == ref.permutation(rng.seed, first, n).tobytes()
        assert rng.counter == first + n


class TestNoCallerInputMutated:
    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_local_update_and_gradient(self, case):
        spec, w, x, y, s = case
        sampler = BatchSampler(SEED, CLIENT, len(y), s["batch_size"])
        sampler.batch(s["round_idx"] * s["l"])  # caches the round's first epoch permutation
        cached = sampler._perm
        perm = cached.copy()
        before = [a.tobytes() for a in (w, x, y)]
        u = client_local_update(spec, w, x, y, sampler, s["round_idx"], s["l"], s["eta"])
        g = gradient(spec, w, x, y)
        assert [a.tobytes() for a in (w, x, y)] == before
        assert cached.tobytes() == perm.tobytes() and not cached.flags.writeable
        assert not np.shares_memory(u, w) and not np.shares_memory(g, w)

    def test_fine_tune(self):
        spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden=5, l2=0.01)
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((40, 4)), np.arange(40) % 3, 3)
        w = rng.normal(size=spec.param_dim)
        before = [a.tobytes() for a in (w, data.inputs, data.labels)]
        tuned = fine_tune(spec, w, data, 2, 0.1, float("inf"), 30, 8, seed=5)
        assert [a.tobytes() for a in (w, data.inputs, data.labels)] == before
        assert not np.shares_memory(tuned, w) and tuned.tobytes() != w.tobytes()


def test_dead_relu_unit_reports_positive_zero():
    """A hidden unit that no input turns on, at l2 = 0, never moves during
    the local steps: its weights' coordinates of (w - w_after) / eta are
    x - x = +0.0. Computed as (w_after - w) / -eta they would be -0.0."""
    spec = ModelSpec("mlp", input_dim=3, num_classes=4, hidden=4, l2=0.0)
    f, h = spec.input_dim, spec.hidden
    rng = np.random.default_rng(2)
    x = rng.random((24, f))  # in [0, 1): the dead unit's pre-activation stays below 0
    y = rng.integers(0, spec.num_classes, size=24)
    w = rng.normal(size=spec.param_dim)
    W1 = w[: h * f].reshape(h, f)
    W1[0] = -1.0
    w[h * f] = -1.0  # its bias
    dead = np.r_[0:f, h * f]
    for l in (2, 3, 4):
        u = client_local_update(spec, w, x, y, BatchSampler(SEED, CLIENT, 24, 6), 1, l, 0.1)
        assert u[dead].tobytes() == np.zeros(dead.size).tobytes()
        assert np.count_nonzero(u) > dead.size  # the live units did move
