import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_under_address_limit
from fedsim.data import (
    Dataset,
    IdxError,
    _class_centers,
    gen_synthetic,
    load_mnist_idx,
    partition_noniid,
)
from fedsim.models import ModelSpec, gradient, predict
from fedsim.numcore import STREAM_DATAGEN, STREAM_PARTITION, RngStream, derive_seed
from test_numcore import one_shot_normals


def write_idx_pair(tmp_path, pixels, labels, *, image_magic=0x803, label_magic=0x801):
    """Build a tiny IDX image/label pair byte by byte."""
    n, rows, cols = pixels.shape
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(
        struct.pack(">IIII", image_magic, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    )
    lab.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return img, lab


class TestIdxLoader:
    def test_two_image_fixture_exact_values(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        pixels[1] = 255
        img, lab = write_idx_pair(tmp_path, pixels, [3, 7])
        ds = load_mnist_idx(img, lab)
        assert ds.size == 2 and ds.dim == 4 and ds.num_classes == 10
        np.testing.assert_array_equal(ds.inputs[0], np.zeros(4))
        np.testing.assert_array_equal(ds.inputs[1], np.ones(4))
        np.testing.assert_array_equal(ds.labels, [3, 7])

    def test_bad_image_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0], image_magic=0x999)
        with pytest.raises(IdxError, match="^image file magic 0x00000999 != 0x00000803$") as err:
            load_mnist_idx(img, lab)
        assert err.value.part == "images"

    def test_bad_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0], label_magic=0x999)
        with pytest.raises(IdxError, match="^label file magic 0x00000999 != 0x00000801$") as err:
            load_mnist_idx(img, lab)
        assert err.value.part == "labels"

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "images.idx"
        lab = tmp_path / "labels.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)
        lab.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
        with pytest.raises(IdxError, match="^unexpected end of file while reading image pixels$") as err:
            load_mnist_idx(img, lab)
        assert err.value.part == "images"

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [1, 2, 3])
        with pytest.raises(IdxError, match="^2 images but 3 labels$") as err:
            load_mnist_idx(img, lab)
        assert err.value.part == "labels"

    @pytest.mark.parametrize(
        "n, labels, part, message",
        [(0, [], "images", "holds no image"), (2, [3, 10], "labels", "10 is not a digit")],
        ids=["no-image", "label-10"],
    )
    def test_empty_pair_and_label_past_nine(self, tmp_path, n, labels, part, message):
        img, lab = write_idx_pair(tmp_path, np.zeros((n, 2, 2), dtype=np.uint8), labels)
        with pytest.raises(IdxError, match=message) as err:
            load_mnist_idx(img, lab)
        assert err.value.part == part

    @pytest.mark.parametrize(
        "images, labels, what",
        [((2, 2, 2), 2**32 - 1, "labels"), ((10**6, 1000, 1000), 2, "image pixels")],
        ids=["label-count", "pixels-1e12"],
    )
    def test_header_count_past_the_file_is_refused_before_the_read(self, tmp_path, images, labels, what):
        # the pair holds two 2x2 images and labels 0, 1, whatever the headers say;
        # the loader runs under an address-space limit, which a read sized by
        # the header would exceed
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(struct.pack(">IIII", 0x803, *images) + img.read_bytes()[16:])
        lab.write_bytes(struct.pack(">II", 0x801, labels) + lab.read_bytes()[8:])
        code = (
            "import sys\n"
            "from fedsim.data import IdxError, load_mnist_idx\n"
            "try:\n"
            "    load_mnist_idx(sys.argv[1], sys.argv[2])\n"
            "except IdxError as exc:\n"
            "    print(exc.part, exc)\n"
        )
        part = "labels" if what == "labels" else "images"
        assert run_under_address_limit(code, img, lab) == f"{part} unexpected end of file while reading {what}\n"


def one_shot_synthetic(num_classes, dim, n_per_class, separation, seed):
    """`gen_synthetic` built from whole-array temporaries: the oracle of
    the in-place form, which must give the same bits."""
    centers = _class_centers(num_classes, dim)
    rng = RngStream(derive_seed(seed, STREAM_DATAGEN, 1, 0))
    noise = one_shot_normals(rng, num_classes * n_per_class * dim).reshape(num_classes * n_per_class, dim)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    raw = separation * centers[labels] + noise
    lo, hi = raw.min(), raw.max()
    return (raw - lo) / (hi - lo), labels


def traced_peak(fn, *args):
    """fn(*args) and the peak of the bytes numpy and Python allocated in it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthetic:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([0.5, 3.0, 5.0]),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_one_shot(self, num_classes, dim, n_per_class, separation, seed):
        ds = gen_synthetic(num_classes, dim, n_per_class, separation, seed)
        inputs, labels = one_shot_synthetic(num_classes, dim, n_per_class, separation, seed)
        assert np.array_equal(ds.inputs, inputs)
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("shape", [(10, 60, 500), (10, 784, 200)])
    def test_peak_below_twice_the_result(self, shape):
        # backdoor-logreg's and trim-wide's training sets; whole-array
        # temporaries peaked at about 4x what the set holds
        ds, peak = traced_peak(gen_synthetic, *shape, 5.0, 11)
        assert peak < 2 * (ds.inputs.nbytes + ds.labels.nbytes)

    def test_sizes_and_histogram(self):
        ds = gen_synthetic(3, 4, 10, 2.0, seed=1)
        assert ds.size == 30
        np.testing.assert_array_equal(np.bincount(ds.labels), [10, 10, 10])

    def test_deterministic(self):
        a = gen_synthetic(4, 6, 25, 3.0, seed=9)
        b = gen_synthetic(4, 6, 25, 3.0, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inputs_in_unit_box(self):
        ds = gen_synthetic(5, 8, 40, 4.0, seed=3)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_separable_at_high_separation(self):
        # recorded behavior: logreg trained on sep=5 2-D blobs scores >= 95%
        train = gen_synthetic(3, 2, 200, 5.0, seed=5)
        test = gen_synthetic(3, 2, 100, 5.0, seed=5)
        spec = ModelSpec("logreg", 2, 3, l2=0.0)
        w = np.zeros(spec.param_dim)
        rng = RngStream(6)
        for _ in range(400):
            idx = rng.choice(train.size, 64)
            w = w - 0.5 * gradient(spec, w, train.inputs[idx], train.labels[idx])
        acc = float(np.mean(predict(spec, w, test.inputs) == test.labels))
        assert acc >= 0.95


def label_distribution(ds, idx, c):
    h = np.bincount(ds.labels[idx], minlength=c).astype(float)
    return h / max(h.sum(), 1.0)


def loop_partition(dataset, n_clients, q, seed):
    """The partition one example at a time, as it was first written: the
    oracle the array form must match shard for shard."""
    c = dataset.num_classes
    bounds = [(g * n_clients) // c for g in range(c + 1)]
    rng = RngStream(derive_seed(seed, STREAM_PARTITION, 0, 0))
    n = dataset.size
    u_group = rng.uniforms(n)
    u_client = rng.uniforms(n)

    assigned = [[] for _ in range(n_clients)]
    off = (1.0 - q) / (c - 1) if c > 1 else 0.0
    for i in range(n):
        label = int(dataset.labels[i])
        u = u_group[i]
        # group pick: label group owns mass q, the others share 1 - q
        if u < q:
            g = label
        else:
            slot = int((u - q) / off) if off > 0 else 0
            slot = min(slot, c - 2)
            g = slot if slot < label else slot + 1
        lo, hi = bounds[g], bounds[g + 1]
        member = lo + int(u_client[i] * (hi - lo))
        member = min(member, hi - 1)
        assigned[member].append(i)
    return [np.array(idx, dtype=np.int64) for idx in assigned]


@st.composite
def partition_inputs(draw):
    """A shuffled label vector with uneven (possibly empty) class counts, a
    client count from num_classes up (not always a multiple of it), and q
    at the iid point, at 1, or between."""
    c = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 25), min_size=c, max_size=c).filter(sum))
    labels = np.repeat(np.arange(c), counts)
    order = draw(st.permutations(range(labels.size)))
    n_clients = draw(st.integers(c, 3 * c + 2))
    q = draw(st.one_of(st.just(1.0 / c), st.just(1.0), st.floats(1.0 / c, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    dataset = Dataset(np.zeros((labels.size, 1)), labels[list(order)], num_classes=c)
    return dataset, n_clients, q, seed


class TestPartition:
    @settings(max_examples=300, deadline=None)
    @given(partition_inputs())
    def test_matches_the_per_example_loop(self, inputs):
        dataset, n_clients, q, seed = inputs
        shards = partition_noniid(dataset, n_clients, q, seed)
        want = loop_partition(dataset, n_clients, q, seed)
        assert len(shards) == len(want) == n_clients  # position = client id
        for shard, idx in zip(shards, want):
            assert shard.dtype == np.int64
            assert np.array_equal(shard, idx)

    def test_exact_partition_any_q(self):
        ds = gen_synthetic(4, 3, 100, 2.0, seed=2)
        for q in (0.25, 0.4, 0.7, 1.0):
            shards = partition_noniid(ds, 8, q, seed=3)
            all_idx = np.concatenate(shards)
            assert len(all_idx) == ds.size
            assert len(np.unique(all_idx)) == ds.size

    def test_deterministic(self):
        ds = gen_synthetic(4, 3, 50, 2.0, seed=2)
        a = partition_noniid(ds, 6, 0.5, seed=11)
        b = partition_noniid(ds, 6, 0.5, seed=11)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)

    def test_iid_point_close_to_multinomial(self):
        c, per = 5, 400
        ds = gen_synthetic(c, 3, per, 2.0, seed=7)
        shards = partition_noniid(ds, c, 1.0 / c, seed=8)
        # per group, each label lands with p = 1/c; 3 sigma on the count
        n_label = per
        p = 1.0 / c
        sigma = np.sqrt(n_label * p * (1 - p))
        for shard in shards:
            h = np.bincount(ds.labels[shard], minlength=c)
            assert np.all(np.abs(h - n_label * p) <= 3.0 * sigma + 1e-9)

    def test_degenerate_q_one(self):
        ds = gen_synthetic(10, 3, 30, 2.0, seed=4)
        shards = partition_noniid(ds, 10, 1.0, seed=5)
        for cid, shard in enumerate(shards):
            labels = set(ds.labels[shard].tolist())
            assert labels == {cid}

    def test_skew_monotone_in_q(self):
        c = 5
        ds = gen_synthetic(c, 3, 300, 2.0, seed=6)
        global_dist = np.bincount(ds.labels, minlength=c) / ds.size
        mean_tv = []
        for q in (1.0 / c, 0.4, 0.6, 0.8, 1.0):
            tvs = []
            for seed in range(10):
                shards = partition_noniid(ds, 10, q, seed=seed)
                for s in shards:
                    if s.size:
                        tvs.append(0.5 * np.abs(label_distribution(ds, s, c) - global_dist).sum())
            mean_tv.append(np.mean(tvs))
        assert all(a <= b + 1e-6 for a, b in zip(mean_tv, mean_tv[1:]))

