import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
    AggregationRule,
    _stack,
    aggregate,
    apply_update,
    coord_median,
    fedavg,
    trimmed_mean,
)
from fedsim.numcore import RngStream


def median_oracle(rows):
    """Brute force: per coordinate, sort and pick (or average the middle two)."""
    mat = np.stack(rows)
    out = np.empty(mat.shape[1])
    for j in range(mat.shape[1]):
        col = sorted(mat[:, j].tolist())
        n = len(col)
        out[j] = col[n // 2] if n % 2 else 0.5 * (col[n // 2 - 1] + col[n // 2])
    return out


def trimmed_oracle(rows, k):
    mat = np.stack(rows)
    out = np.empty(mat.shape[1])
    for j in range(mat.shape[1]):
        col = sorted(mat[:, j].tolist())
        kept = col[k : len(col) - k] if k else col
        out[j] = sum(kept) / len(kept)
    return out


class TestStack:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_non_finite_update(self, bad):
        rows = [np.zeros(3), np.ones(3), np.array([1.0, bad, 0.0]), np.ones(3)]
        with pytest.raises(ValueError, match=r"update\[2\] contains non-finite"):
            _stack(rows)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            _stack([np.zeros(3), np.zeros(3), np.zeros(4)])

    @pytest.mark.parametrize("rows", [[np.zeros((2, 2))], [np.zeros(0), np.zeros(0)]])
    def test_rejects_non_vectors(self, rows):
        with pytest.raises(ValueError):
            _stack(rows)

    def test_rows_in_order_as_float64(self):
        mat = _stack([np.array([1, 2]), np.array([3.5, 4.0])])
        assert mat.dtype == np.float64
        np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.5, 4.0]])


class TestFedavg:
    def test_equal_weights(self):
        out = fedavg([np.array([1.0, 3.0]), np.array([3.0, 5.0])], [10, 10])
        np.testing.assert_array_equal(out, [2.0, 4.0])

    def test_single_update_identity(self):
        u = np.array([0.5, -1.5, 2.0])
        np.testing.assert_array_equal(fedavg([u], [7]), u)

    def test_weighted(self):
        out = fedavg([np.array([0.0, 1.0]), np.array([4.0, 1.0])], [1, 3])
        assert out[0] == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([], [])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fedavg([np.zeros(2), np.zeros(3)], [1, 1])


class TestMedian:
    def test_odd(self):
        np.testing.assert_array_equal(
            coord_median([np.array([1.0]), np.array([5.0]), np.array([100.0])]), [5.0]
        )

    def test_even_midpoint(self):
        np.testing.assert_array_equal(coord_median([np.array([1.0]), np.array([3.0])]), [2.0])

    def test_against_oracle(self):
        rng = RngStream(1)
        for _ in range(100):
            rows = [rng.normals(8) for _ in range(25)]
            np.testing.assert_allclose(coord_median(rows), median_oracle(rows), atol=0)

    def test_robustness_witness(self):
        g = np.array([1.0, -2.0, 0.5])
        outlier = np.array([1e9, -1e9, 1e9])
        for n in (3, 5, 9):
            rows = [g.copy() for _ in range(n - 1)] + [outlier]
            np.testing.assert_array_equal(coord_median(rows), g)


class TestTrimmedMean:
    def test_contract_example(self):
        rows = [np.array([v]) for v in (0.0, 1.0, 2.0, 3.0, 100.0)]
        assert trimmed_mean(rows, 1)[0] == 2.0

    def test_k_zero_is_mean(self):
        rng = RngStream(2)
        rows = [rng.normals(5) for _ in range(7)]
        np.testing.assert_allclose(trimmed_mean(rows, 0), np.mean(rows, axis=0), atol=0)

    def test_against_oracle(self):
        rng = RngStream(3)
        for trial in range(100):
            n = 5 + trial % 10
            k = trial % (n // 2)
            rows = [rng.normals(6) for _ in range(n)]
            np.testing.assert_allclose(
                trimmed_mean(rows, k), trimmed_oracle(rows, k), rtol=1e-12, atol=1e-15
            )

    def test_all_equal(self):
        u = np.array([2.0, -3.0])
        rows = [u.copy() for _ in range(5)]
        for k in (0, 1, 2):
            np.testing.assert_array_equal(trimmed_mean(rows, k), u)

    def test_too_few(self):
        with pytest.raises(ValueError):
            trimmed_mean([np.zeros(2)] * 4, 2)


class TestApplyUpdate:
    def test_zero_update(self):
        w = np.array([1.0, -2.0])
        np.testing.assert_array_equal(apply_update(w, np.zeros(2), 0.1), w)

    def test_arithmetic(self):
        out = apply_update(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.5)
        np.testing.assert_array_equal(out, [0.5, 1.5])

    def test_two_steps_linear(self):
        w = np.array([2.0, 0.0])
        agg = np.array([1.0, -4.0])
        once = apply_update(apply_update(w, agg, 0.25), agg, 0.25)
        np.testing.assert_allclose(once, w - 2 * 0.25 * agg, atol=0)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        min_size=3,
        max_size=9,
    ),
    st.randoms(use_true_random=False),
)
def test_permutation_invariance(rows, pyrandom):
    rows = [np.array(r) for r in rows]
    sizes = [pyrandom.randint(1, 10) for _ in rows]
    order = list(range(len(rows)))
    pyrandom.shuffle(order)
    shuffled = [rows[i] for i in order]
    shuffled_sizes = [sizes[i] for i in order]
    np.testing.assert_allclose(
        fedavg(rows, sizes), fedavg(shuffled, shuffled_sizes), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_array_equal(coord_median(rows), coord_median(shuffled))
    k = (len(rows) - 1) // 2
    np.testing.assert_allclose(
        trimmed_mean(rows, k), trimmed_mean(shuffled, k), rtol=1e-12, atol=1e-12
    )


def test_fedavg_equal_sizes_equals_trim_zero():
    rng = RngStream(4)
    rows = [rng.normals(4) for _ in range(6)]
    np.testing.assert_allclose(
        fedavg(rows, [3] * 6), trimmed_mean(rows, 0), rtol=1e-15, atol=1e-15
    )


def test_rule_dispatch():
    rng = RngStream(5)
    rows = [rng.normals(3) for _ in range(5)]
    sizes = [1, 2, 3, 4, 5]
    np.testing.assert_array_equal(
        aggregate(AggregationRule("fedavg"), rows, sizes), fedavg(rows, sizes)
    )
    np.testing.assert_array_equal(
        aggregate(AggregationRule("median"), rows, sizes), coord_median(rows)
    )
    np.testing.assert_array_equal(
        aggregate(AggregationRule("trimmed_mean", 2), rows, sizes), trimmed_mean(rows, 2)
    )
