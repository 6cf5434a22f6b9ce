import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite_diff_gradient
from fedsim.numcore import (
    _GOLDEN,
    _MASK64,
    _NORMAL_CHUNK,
    RngStream,
    derive_seed,
    linf_norm,
    mix64,
)

# Golden values computed once by hand-stepping the splitmix64 pipeline
# (seed, tag, client, round) -> derived seed.
GOLDEN = {
    (7, 0, 0, 0): 11241344834629033336,
    (7, 0, 1, 0): 18143426351604549229,
    (7, 0, 2, 0): 6915753714881978185,
    (7, 1, 1, 0): 2314000816110686425,
}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0, 0, 0) == derive_seed(7, 0, 0, 0)

    def test_golden_values(self):
        for args, expected in GOLDEN.items():
            assert derive_seed(*args) == expected

    def test_distinct_clients(self):
        assert derive_seed(7, 0, 1, 0) != derive_seed(7, 0, 2, 0)

    def test_distinct_tags(self):
        assert derive_seed(7, 1, 1, 0) != derive_seed(7, 0, 1, 0)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_in_range(self, seed, tag, client, rnd):
        out = derive_seed(seed, tag, client, rnd)
        assert 0 <= out < 2**64


# The scalar draws `RngStream` made before it drew only in blocks, kept
# verbatim as the oracle of the block path (`_block`, `uniforms`).
def next_u64(stream: RngStream) -> int:
    stream.counter += 1
    return mix64((stream.seed + stream.counter * _GOLDEN) & _MASK64)


def uniform(stream: RngStream) -> float:
    """One double in [0, 1)."""
    return (next_u64(stream) >> 11) * 2.0**-53


def scalar_gamma(stream: RngStream, alpha: float) -> float:
    """`RngStream.gamma` as it drew from the scalar `uniform`."""
    if alpha < 1.0:
        u = max(uniform(stream), 2.0**-53)
        return scalar_gamma(stream, alpha + 1.0) * u ** (1.0 / alpha)
    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    while True:
        x = float(stream.normals(1)[0])
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = uniform(stream)
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if u > 0.0 and np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(v)):
            return d * v


def one_shot_normals(stream: RngStream, n: int) -> np.ndarray:
    """`RngStream.normals` as a single pass over whole arrays: the oracle
    of the chunked form, which must give the same bits and counter."""
    m = (n + 1) // 2
    u1 = stream.uniforms(m)
    u2 = stream.uniforms(m)
    u1 = np.maximum(u1, 2.0**-53)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return out[:n]


# n around the chunk edges of both halves: 2m normals span ceil(m / chunk) chunks
_C = 2 * _NORMAL_CHUNK
_NORMAL_SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3, _C - 2, _C - 1, _C, _C + 1, _C + 2, 3 * _C - 1, 3 * _C + 1]),
    st.integers(min_value=1, max_value=5 * _C),
    st.integers(min_value=0, max_value=2 * _C).map(lambda k: 2 * k + 1),
)


class TestNormalsMatchOneShot:
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(_NORMAL_SIZES, min_size=1, max_size=4))
    def test_successive_draws_bit_identical(self, seed, sizes):
        chunked, oracle = RngStream(seed), RngStream(seed)
        for n in sizes:
            got, want = chunked.normals(n), one_shot_normals(oracle, n)
            assert got.shape == (n,)
            assert np.array_equal(got, want)
            assert chunked.counter == oracle.counter

    @given(st.integers(min_value=0, max_value=2**64 - 1), _NORMAL_SIZES)
    def test_other_draws_continue_alike(self, seed, n):
        # the counter after normals is where the next uniform starts
        chunked, oracle = RngStream(seed), RngStream(seed)
        chunked.normals(n)
        one_shot_normals(oracle, n)
        assert int(chunked._next_block(1)[0]) == next_u64(oracle)
        assert np.array_equal(chunked.uniforms(5), oracle.uniforms(5))


class TestRngStream:
    def test_replay_identical(self):
        a = RngStream(42)
        b = RngStream(42)
        np.testing.assert_array_equal(a.uniforms(5), b.uniforms(5))

    def test_golden_first_draws(self):
        golden = [13679457532755275413, 2949826092126892291, 5139283748462763858]
        block, scalar = RngStream(42), RngStream(42)
        assert block._next_block(3).tolist() == golden
        assert [next_u64(scalar) for _ in range(3)] == golden

    def test_scalar_and_vector_draws_agree(self):
        a = RngStream(9)
        b = RngStream(9)
        scalars = np.array([uniform(a) for _ in range(8)])
        vector = b.uniforms(8)
        np.testing.assert_array_equal(scalars, vector)
        assert a.counter == b.counter

    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.5, 1.0, 4.0])
    def test_gamma_matches_the_scalar_oracle(self, alpha):
        a, b = RngStream(10), RngStream(10)
        got = [a.gamma(alpha) for _ in range(200)]
        want = [scalar_gamma(b, alpha) for _ in range(200)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert a.counter == b.counter

    def test_uniform_range(self):
        s = RngStream(3)
        u = s.uniforms(10_000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        s = RngStream(4)
        z = s.normals(40_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_permutation_is_permutation(self):
        s = RngStream(5)
        p = s.permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_choice_distinct(self):
        s = RngStream(6)
        picked = s.choice(50, 20)
        assert len(set(picked.tolist())) == 20

    def test_gamma_mean(self):
        s = RngStream(8)
        for alpha in (0.5, 1.0, 4.0):
            draws = np.array([s.gamma(alpha) for _ in range(4000)])
            assert abs(draws.mean() - alpha) < 0.15 * max(alpha, 1.0)

    def test_dirichlet_simplex(self):
        s = RngStream(9)
        p = s.dirichlet(0.3, 6)
        assert p.shape == (6,)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


class TestLinfNorm:
    def test_zero_vector(self):
        assert linf_norm([0.0, 0.0, 0.0]) == 0.0

    def test_sign_symmetric(self):
        assert linf_norm([1.0, -5.0, 3.0]) == 5.0

    def test_matches_scan_oracle(self):
        rng = RngStream(11)
        v = rng.normals(100)
        best = 0.0
        for x in v:  # independent brute-force scan
            best = max(best, abs(float(x)))
        assert linf_norm(v) == best

    @given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=40))
    def test_nonneg_and_zero_iff_zero(self, values):
        v = np.array(values)
        n = linf_norm(v)
        assert n >= 0.0
        assert (n == 0.0) == bool(np.all(v == 0.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linf_norm([1.0, float("nan")])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_inf(self, bad):
        with pytest.raises(ValueError):
            linf_norm(np.array([1.0, bad, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            linf_norm(np.array([]))


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda w: 0.5 * float(w @ w), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_gradient(lambda w: 3.5, np.array([1.0, -2.0, 0.5]), 1e-5)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-9)

    def test_product(self):
        grad = finite_diff_gradient(lambda w: float(w[0] * w[1]), np.array([3.0, 4.0]), 1e-5)
        np.testing.assert_allclose(grad, [4.0, 3.0], atol=1e-7)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda w: float("inf"), np.array([1.0]), 1e-5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda w: 0.0, np.array([1.0]), 0.0)


def test_ieee_add_exactness():
    rng = RngStream(12)
    a = rng.normals(50)
    b = rng.normals(50)
    np.testing.assert_array_equal((a + b) + 0.0, a + b)


def test_mix64_bijective_sample():
    outs = {mix64(x) for x in range(4096)}
    assert len(outs) == 4096
