import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff_gradient, glorot_bound, smoothness_bound
from fedsim.models import (
    _check_params,
    _split_linear,
    _split_mlp,
    ModelSpec,
    gradient,
    init_params,
    loss,
    predict,
    quadratic_hessian,
    scores,
)
from fedsim.numcore import RngStream, linf_norm

LOGREG = ModelSpec("logreg", input_dim=5, num_classes=3, l2=0.0)
LOGREG_REG = ModelSpec("logreg", input_dim=5, num_classes=3, l2=1.0)
MLP = ModelSpec("mlp", input_dim=4, num_classes=3, hidden=6, l2=0.01)
RIDGE = ModelSpec("ridge", input_dim=5, num_classes=3, l2=0.5)


def random_batch(spec, rng, size=8):
    x = rng.uniforms(size * spec.input_dim).reshape(size, spec.input_dim)
    y = np.array([rng.randint_below(spec.num_classes) for _ in range(size)], dtype=np.int64)
    return x, y


class TestSpec:
    def test_param_dims(self):
        assert LOGREG.param_dim == 6 * 3
        assert MLP.param_dim == 5 * 6 + 7 * 3
        assert RIDGE.param_dim == 6 * 3

    def test_dim_mismatch_rejected(self):
        x, _ = random_batch(LOGREG, RngStream(0))
        with pytest.raises(ValueError):
            scores(LOGREG, np.zeros(LOGREG.param_dim + 1), x)


class TestLoss:
    def test_zero_weights_uniform_softmax(self):
        batch = random_batch(LOGREG, RngStream(1))
        assert loss(LOGREG, np.zeros(LOGREG.param_dim), *batch) == pytest.approx(math.log(3))

    def test_zero_penalty_at_origin(self):
        batch = random_batch(LOGREG_REG, RngStream(2))
        assert loss(LOGREG_REG, np.zeros(LOGREG_REG.param_dim), *batch) == pytest.approx(
            math.log(3)
        )

    def test_mlp_matches_hand_forward(self):
        # 4-sample XOR-style fixture against a hand-coded forward pass
        spec = ModelSpec("mlp", input_dim=2, num_classes=2, hidden=2, l2=0.0)
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        w1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        b1 = np.array([0.1, -0.1])
        w2 = np.array([[0.5, -0.5], [-0.25, 0.75]])
        b2 = np.array([0.0, 0.2])
        w = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

        total = 0.0
        for xi, yi in zip(x, y):
            h = np.maximum(w1 @ xi + b1, 0.0)
            s = w2 @ h + b2
            p = np.exp(s - s.max())
            p /= p.sum()
            total += -math.log(p[yi])
        assert loss(spec, w, x, y) == pytest.approx(total / 4, rel=1e-12)

    def test_loss_at_least_penalty(self):
        rng = RngStream(3)
        for spec in (LOGREG_REG, MLP, RIDGE):
            w = rng.normals(spec.param_dim)
            batch = random_batch(spec, rng)
            assert loss(spec, w, *batch) >= 0.5 * spec.l2 * float(w @ w) - 1e-12


class TestGradient:
    def test_logreg_symmetry_zero_gradient(self):
        # fully balanced batch: x and -x each under both labels, w = 0
        spec = ModelSpec("logreg", input_dim=3, num_classes=2, l2=0.0)
        v = np.array([0.4, -0.2, 0.7])
        x = np.stack([v, -v, v, -v])
        y = np.array([0, 0, 1, 1])
        g = gradient(spec, np.zeros(spec.param_dim), x, y)
        np.testing.assert_allclose(g, np.zeros(spec.param_dim), atol=1e-15)

    def test_penalty_term_against_finite_diff(self):
        spec = LOGREG_REG
        rng = RngStream(4)
        batch = random_batch(spec, rng)
        w = np.ones(spec.param_dim)
        fd = finite_diff_gradient(lambda u: loss(spec, u, *batch), w, 1e-5)
        g = gradient(spec, w, *batch)
        assert linf_norm(g - fd) / (1.0 + linf_norm(g)) < 1e-6

    @pytest.mark.parametrize("spec", [LOGREG, LOGREG_REG, MLP, RIDGE], ids=lambda s: s.kind + str(s.l2))
    def test_gradient_check_50_draws(self, spec):
        rng = RngStream(5)
        for _ in range(50):
            w = rng.normals(spec.param_dim) * 0.5
            batch = random_batch(spec, rng, size=6)
            fd = finite_diff_gradient(lambda u: loss(spec, u, *batch), w, 1e-5)
            g = gradient(spec, w, *batch)
            rel = linf_norm(g - fd) / (1.0 + linf_norm(g))
            assert rel <= 1e-5

    def test_strong_convexity_witness(self):
        # logreg with l2 = mu: monotone gradient inequality
        spec = ModelSpec("logreg", input_dim=4, num_classes=3, l2=0.3)
        rng = RngStream(6)
        for _ in range(25):
            batch = random_batch(spec, rng)
            w1 = rng.normals(spec.param_dim)
            w2 = rng.normals(spec.param_dim)
            lhs = float((w1 - w2) @ (gradient(spec, w1, *batch) - gradient(spec, w2, *batch)))
            assert lhs >= spec.l2 * float((w1 - w2) @ (w1 - w2)) - 1e-9

    def test_ridge_gradient_is_linear_in_w(self):
        rng = RngStream(7)
        batch = random_batch(RIDGE, rng)
        h = quadratic_hessian(RIDGE, batch[0])
        w1 = rng.normals(RIDGE.param_dim)
        w2 = rng.normals(RIDGE.param_dim)
        g1 = gradient(RIDGE, w1, *batch)
        g2 = gradient(RIDGE, w2, *batch)
        np.testing.assert_allclose(g1 - g2, h @ (w1 - w2), atol=1e-12)


class TestPredict:
    def test_zero_weights_tie_breaks_low(self):
        x = RngStream(8).uniforms(5)
        assert predict(LOGREG, np.zeros(LOGREG.param_dim), x) == 0

    def test_crafted_favorite_class(self):
        # weights strongly favoring class 2 on a known input
        spec = ModelSpec("logreg", input_dim=2, num_classes=3, l2=0.0)
        w = np.zeros(spec.param_dim)
        w[2 * 2 : 2 * 3] = [5.0, 5.0]  # class-2 weight row
        x = np.array([1.0, 1.0])
        # hand evaluation: scores = [0, 0, 10]
        assert predict(spec, w, x) == 2

    def test_shift_invariance(self):
        rng = RngStream(9)
        w = rng.normals(LOGREG.param_dim)
        batch = random_batch(LOGREG, rng, size=16)
        shifted = w.copy()
        shifted[-3:] += 7.25  # add the same constant to every class bias
        np.testing.assert_array_equal(
            predict(LOGREG, w, batch[0]), predict(LOGREG, shifted, batch[0])
        )


class TestInit:
    def test_logreg_zero(self):
        np.testing.assert_array_equal(init_params(LOGREG, 123), np.zeros(LOGREG.param_dim))

    def test_mlp_deterministic(self):
        np.testing.assert_array_equal(init_params(MLP, 55), init_params(MLP, 55))

    def test_mlp_bounds_per_layer(self):
        w = init_params(MLP, 77)
        f, c, h = MLP.input_dim, MLP.num_classes, MLP.hidden
        w1 = w[: h * f]
        b1 = w[h * f : h * f + h]
        w2 = w[h * f + h : h * f + h + c * h]
        b2 = w[-c:]
        assert np.all(np.abs(w1) < glorot_bound(MLP, 1))
        assert np.all(np.abs(w2) < glorot_bound(MLP, 2))
        np.testing.assert_array_equal(b1, np.zeros(h))
        np.testing.assert_array_equal(b2, np.zeros(c))


class TestSmoothness:
    def test_logreg_bound_dominates_observed_curvature(self):
        spec = ModelSpec("logreg", input_dim=4, num_classes=3, l2=0.1)
        rng = RngStream(10)
        x = rng.uniforms(40).reshape(10, 4)
        y = np.array([rng.randint_below(3) for _ in range(10)], dtype=np.int64)
        batch = (x, y)
        bound = smoothness_bound(spec, x)
        for _ in range(20):
            w1 = rng.normals(spec.param_dim)
            w2 = rng.normals(spec.param_dim)
            dg = gradient(spec, w1, *batch) - gradient(spec, w2, *batch)
            dw = w1 - w2
            assert float(np.linalg.norm(dg)) <= bound * float(np.linalg.norm(dw)) + 1e-9

    def test_mlp_has_no_bound(self):
        with pytest.raises(ValueError):
            smoothness_bound(MLP, np.zeros((2, 4)))


class TestQuadraticHessian:
    def test_hessian_matches_finite_difference_of_gradient(self):
        rng = RngStream(11)
        batch = random_batch(RIDGE, rng, size=7)
        h = quadratic_hessian(RIDGE, batch[0])
        w = rng.normals(RIDGE.param_dim)
        eps = 1e-6
        for j in range(0, RIDGE.param_dim, 5):
            e = np.zeros(RIDGE.param_dim)
            e[j] = eps
            col = (gradient(RIDGE, w + e, *batch) - gradient(RIDGE, w - e, *batch)) / (2 * eps)
            np.testing.assert_allclose(col, h[:, j], atol=1e-6)

    def test_symmetry(self):
        rng = RngStream(12)
        batch = random_batch(RIDGE, rng)
        h = quadratic_hessian(RIDGE, batch[0])
        np.testing.assert_allclose(h, h.T, atol=0)


def test_scores_shape():
    rng = RngStream(13)
    batch = random_batch(MLP, rng, size=9)
    w = init_params(MLP, 3)
    assert scores(MLP, w, batch[0]).shape == (9, 3)


def _seed_scores(spec, w, inputs):
    """`scores` before the unchecked forward kernel, kept verbatim."""
    w = _check_params(spec, w)
    x = np.asarray(inputs, dtype=np.float64)
    if spec.kind == "mlp":
        W1, b1, W2, b2 = _split_mlp(spec, w)
        a1 = np.maximum(x @ W1.T + b1, 0.0)
        return a1 @ W2.T + b2
    W, b = _split_linear(spec, w)
    return x @ W.T + b


def _seed_gradient(spec, w, x, y):
    """`gradient` before it shared one forward pass, kept verbatim as the
    reference the current kernel must match bit for bit."""
    w = _check_params(spec, w)
    n = x.shape[0]
    s = _seed_scores(spec, w, x)
    if spec.kind == "ridge":
        err = s.copy()
        err[np.arange(n), y] -= 1.0
        err /= n
    else:
        shifted = s - s.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        err = e / e.sum(axis=1, keepdims=True)
        err[np.arange(n), y] -= 1.0
        err /= n

    if spec.kind == "mlp":
        W1, b1, W2, b2 = _split_mlp(spec, w)
        z1 = x @ W1.T + b1
        a1 = np.maximum(z1, 0.0)
        gW2 = err.T @ a1
        gb2 = err.sum(axis=0)
        back = (err @ W2) * (z1 > 0.0)
        gW1 = back.T @ x
        gb1 = back.sum(axis=0)
        g = np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])
    else:
        gW = err.T @ x
        gb = err.sum(axis=0)
        g = np.concatenate([gW.ravel(), gb])
    return g + spec.l2 * w


class TestSeedKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["logreg", "mlp", "ridge"]),
        input_dim=st.integers(1, 12),
        num_classes=st.integers(2, 6),
        hidden=st.integers(1, 10),
        l2=st.sampled_from([0.0, 1e-3, 0.05, 1.0]),
        size=st.integers(1, 64),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32),
    )
    def test_gradient_bit_identical_to_seed(
        self, kind, input_dim, num_classes, hidden, l2, size, scale, seed
    ):
        spec = ModelSpec(kind, input_dim, num_classes, hidden=hidden if kind == "mlp" else 0, l2=l2)
        rng = RngStream(seed)
        w = rng.normals(spec.param_dim) * scale
        batch = random_batch(spec, rng, size=size)
        assert np.array_equal(gradient(spec, w, *batch), _seed_gradient(spec, w, *batch))
        assert np.array_equal(scores(spec, w, batch[0]), _seed_scores(spec, w, batch[0]))


@pytest.mark.parametrize("spec", [LOGREG, MLP, RIDGE], ids=["logreg", "mlp", "ridge"])
@pytest.mark.parametrize("fn", [scores, predict])
def test_bad_params_rejected(fn, spec):
    """Evaluation checks the model it is given; `gradient` and `loss`
    trust theirs, which were checked where they entered the program."""
    x, _ = random_batch(spec, RngStream(14))
    with pytest.raises(ValueError, match="param dim"):
        fn(spec, np.zeros(spec.param_dim + 1), x)
    for bad in (np.nan, np.inf):
        w = np.zeros(spec.param_dim)
        w[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(spec, w, x)
