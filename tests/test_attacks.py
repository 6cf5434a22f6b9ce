import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import randint_below
from fedsim.attacks import (
    Trigger,
    adaptive_scale,
    backdoor_update,
    embed_trigger,
    poison_shard_backdoor,
    simulate_detection,
    trim_attack_updates,
)
from fedsim.clients import BatchSampler
from fedsim.models import ModelSpec
from fedsim.numcore import RngStream

PATCH = Trigger(kind="pixel_patch", rows=4, cols=4, value=1.0)
EVERY20 = Trigger(kind="every_kth", k=20, value=0.0)


class TestEmbedTrigger:
    def test_patch_bottom_right_16_pixels(self):
        img = np.zeros(28 * 28)
        out = embed_trigger(img[None], PATCH)[0]
        assert out.sum() == 16.0
        grid = out.reshape(28, 28)
        assert np.all(grid[24:, 24:] == 1.0)
        assert grid[:24, :].sum() == 0.0 and grid[24:, :24].sum() == 0.0

    def test_every_20th_on_600(self):
        out = embed_trigger(np.ones(600)[None], EVERY20)[0]
        zeros = np.flatnonzero(out == 0.0)
        assert len(zeros) == 30
        np.testing.assert_array_equal(zeros, np.arange(19, 600, 20))

    def test_idempotent(self):
        rng = RngStream(1)
        x = rng.uniforms(28 * 28)
        once = embed_trigger(x[None], PATCH)[0]
        np.testing.assert_array_equal(embed_trigger(once[None], PATCH)[0], once)

    def test_original_untouched(self):
        x = np.zeros(16)
        embed_trigger(x[None], Trigger(kind="pixel_patch", rows=2, cols=2, value=1.0))
        assert x.sum() == 0.0

    def test_batch_form(self):
        x = np.zeros((3, 16))
        out = embed_trigger(x, Trigger(kind="every_kth", k=4, value=0.5))
        assert out.shape == (3, 16)
        assert np.all(out[:, 3::4] == 0.5)


class TestPoisonShard:
    def test_doubles_and_labels(self):
        rng = RngStream(2)
        x = rng.uniforms(10 * 16).reshape(10, 16)
        y = np.array([1] * 5 + [2] * 5, dtype=np.int64)
        px, py = poison_shard_backdoor(x, y, PATCH_SMALL, target_label=0)
        assert px.shape == (20, 16)
        assert (py == 0).sum() == 10
        np.testing.assert_array_equal(py[:10], y)

    def test_originals_unmodified(self):
        rng = RngStream(3)
        x = rng.uniforms(4 * 16).reshape(4, 16)
        y = np.zeros(4, dtype=np.int64)
        snapshot = x.copy()
        px, _ = poison_shard_backdoor(x, y, PATCH_SMALL, target_label=0)
        np.testing.assert_array_equal(x, snapshot)
        np.testing.assert_array_equal(px[:4], snapshot)

    def test_appended_rows_carry_trigger(self):
        rng = RngStream(4)
        x = rng.uniforms(6 * 16).reshape(6, 16)
        y = np.ones(6, dtype=np.int64)
        px, _ = poison_shard_backdoor(x, y, PATCH_SMALL, target_label=0)
        np.testing.assert_array_equal(px[6:], embed_trigger(x, PATCH_SMALL))


PATCH_SMALL = Trigger(kind="pixel_patch", rows=2, cols=2, value=1.0)


class TestBackdoorUpdate:
    def setup_method(self):
        self.spec = ModelSpec("logreg", input_dim=16, num_classes=3, l2=0.01)
        rng = RngStream(5)
        x = rng.uniforms(12 * 16).reshape(12, 16)
        y = np.array([randint_below(rng, 3) for _ in range(12)], dtype=np.int64)
        self.px, self.py = poison_shard_backdoor(x, y, PATCH_SMALL, target_label=0)
        self.sampler = BatchSampler(99, 0, self.px.shape[0], 8)
        self.w = rng.normals(self.spec.param_dim) * 0.1

    def test_scaling_linearity_exact(self):
        base = backdoor_update(self.spec, self.w, self.px, self.py, self.sampler, 3, 1, 0.1, 1.0)
        ten = backdoor_update(self.spec, self.w, self.px, self.py, self.sampler, 3, 1, 0.1, 10.0)
        np.testing.assert_array_equal(ten, 10.0 * base)

    def test_lambda_one_is_benign_procedure(self):
        from fedsim.clients import client_local_update

        base = backdoor_update(self.spec, self.w, self.px, self.py, self.sampler, 2, 1, 0.1, 1.0)
        plain = client_local_update(self.spec, self.w, self.px, self.py, self.sampler, 2, 1, 0.1)
        np.testing.assert_array_equal(base, plain)


class TestAdaptiveScale:
    def test_paper_style_arithmetic(self):
        assert adaptive_scale(10.0, 20, 10) == 20.0

    def test_no_loss_no_change(self):
        assert adaptive_scale(7.5, 6, 6) == 7.5

    def test_generic(self):
        assert adaptive_scale(5.0, 6, 2) == 15.0


class TestTrimAttack:
    def test_interval_positive_mean_positive_min(self):
        rows = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        out = trim_attack_updates(rows, 50, 2.0, RngStream(6))
        vals = np.array([u[0] for u in out])
        assert np.all((0.5 <= vals) & (vals <= 1.0))

    def test_interval_negative_mean_negative_max(self):
        rows = [np.array([-3.0]), np.array([-1.0])]
        out = trim_attack_updates(rows, 50, 2.0, RngStream(7))
        vals = np.array([u[0] for u in out])
        assert np.all((-1.0 <= vals) & (vals <= -0.5))

    def test_membership_all_sign_cases(self):
        rng = RngStream(8)
        benign = [rng.normals(40) for _ in range(9)]
        mat = np.stack(benign)
        mu, lo, hi = mat.mean(0), mat.min(0), mat.max(0)
        b = 2.0
        for u in trim_attack_updates(benign, 5, b, RngStream(9)):
            for j in range(40):
                if mu[j] > 0:
                    lo_b = lo[j] / b if lo[j] > 0 else b * lo[j]
                    assert lo_b - 1e-12 <= u[j] <= lo[j] + 1e-12
                else:
                    hi_b = b * hi[j] if hi[j] > 0 else hi[j] / b
                    assert hi[j] - 1e-12 <= u[j] <= hi_b + 1e-12

    def test_b_near_one_converges_to_extreme(self):
        rng = RngStream(10)
        benign = [rng.normals(10) for _ in range(5)]
        mat = np.stack(benign)
        mu, lo, hi = mat.mean(0), mat.min(0), mat.max(0)
        extreme = np.where(mu > 0, lo, hi)
        for u in trim_attack_updates(benign, 3, 1.0 + 1e-9, RngStream(11)):
            np.testing.assert_allclose(u, extreme, rtol=1e-8, atol=1e-8)

    def test_aggregate_moves_against_benign_mean(self):
        from fedsim.aggregation import trimmed_mean

        rng = RngStream(12)
        for trial in range(20):
            benign = [rng.normals(15) for _ in range(8)]
            crafted = trim_attack_updates(benign, 4, 2.0, rng)
            clean = trimmed_mean(benign, 2)
            attacked = trimmed_mean(benign + crafted, 2)
            mu = np.stack(benign).mean(0)
            shift = attacked - clean
            moved = shift[np.abs(shift) > 1e-12]
            direction = -np.sign(mu)[np.abs(shift) > 1e-12]
            assert np.all(np.sign(moved) == direction)


class TestDetection:
    def setup_method(self):
        self.clients = set(range(25))
        self.malicious = set(range(5))

    def test_perfect(self):
        detected = simulate_detection(self.malicious, self.clients, 0.0, 0.0, RngStream(14))
        assert detected == frozenset(self.malicious)

    def test_total_miss(self):
        detected = simulate_detection(self.malicious, self.clients, 1.0, 0.0, RngStream(15))
        assert not (detected & self.malicious)

    def test_counts_m20_fnr04(self):
        truth = set(range(20))
        everyone = set(range(100))
        detected = simulate_detection(truth, everyone, 0.4, 0.0, RngStream(16))
        assert len(detected & truth) == 12

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=21, max_value=60),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_cardinalities_exact(self, m, n, fnr, fpr, seed):
        truth = set(range(m))
        everyone = set(range(n))
        detected = simulate_detection(truth, everyone, fnr, fpr, RngStream(seed))
        assert len(truth - detected) == int(np.floor(fnr * m + 0.5))
        assert len(detected - truth) == int(np.floor(fpr * (n - m) + 0.5))
        assert detected <= everyone
