"""Dataset loading (MNIST IDX, synthetic Gaussian blobs) and the
degree-of-non-iid client partitioner.

Inputs are normalized into [0, 1] at load/generation time, for the train
and test splits alike, so downstream smoothness bounds stay valid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numcore import STREAM_DATAGEN, STREAM_PARTITION, RngStream, derive_seed

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """An IDX file-format problem in the pair's `part`: "images" or "labels"."""

    def __init__(self, part: str, reason: str):
        self.part = part
        super().__init__(reason)


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # N x dim, float64 in [0, 1]
    labels: np.ndarray  # N, int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("dataset inputs must be a nonempty 2-D array")
        if y.shape != (x.shape[0],):
            raise ValueError("label count must match input count")
        if not np.isfinite(x).all():
            raise ValueError("dataset inputs contain non-finite values")
        if np.any(y < 0) or np.any(y >= self.num_classes):
            raise ValueError("labels out of range")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _read_exact(f, n: int, part: str, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise IdxError(part, f"unexpected end of file while reading {what}")
    return buf


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style IDX image/label pair of at least one image.

    Pixels are scaled into [0, 1] by dividing by 255. Raises IdxError,
    naming the file at fault, for a wrong magic number, a file cut short,
    no image, label and image counts that differ, or a label past 9.
    """
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "images", "image magic"))
        if magic != IDX_IMAGE_MAGIC:
            raise IdxError("images", f"image file magic {magic:#010x} != {IDX_IMAGE_MAGIC:#010x}")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, "images", "image header"))
        if count == 0:
            raise IdxError("images", "the image file holds no image")
        raw = _read_exact(f, count * rows * cols, "images", "image pixels")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "labels", "label magic"))
        if magic != IDX_LABEL_MAGIC:
            raise IdxError("labels", f"label file magic {magic:#010x} != {IDX_LABEL_MAGIC:#010x}")
        (label_count,) = struct.unpack(">I", _read_exact(f, 4, "labels", "label header"))
        labels = np.frombuffer(_read_exact(f, label_count, "labels", "labels"), dtype=np.uint8)
    if label_count != count:
        raise IdxError("labels", f"{count} images but {label_count} labels")
    if labels.max() > 9:
        raise IdxError("labels", f"labels out of range: {labels.max()} is not a digit")
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(np.int64), 10)


def _class_centers(num_classes: int, dim: int) -> np.ndarray:
    """Deterministic unit-norm class centers, chosen for spread: standard
    basis vectors when classes fit, otherwise equally spaced directions in
    the first two coordinates."""
    centers = np.zeros((num_classes, dim))
    if num_classes <= dim:
        centers[np.arange(num_classes), np.arange(num_classes)] = 1.0
    elif dim >= 2:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        centers[:, 0] = np.cos(angles)
        centers[:, 1] = np.sin(angles)
    else:
        centers[:, 0] = np.where(np.arange(num_classes) % 2 == 0, 1.0, -1.0)
    return centers


def gen_synthetic(
    num_classes: int, dim: int, n_per_class: int, separation: float, seed: int
) -> Dataset:
    """Gaussian-blob classification data, affinely mapped into [0, 1].

    Class c is N(separation * mu_c, I) with unit-norm centers mu_c; the
    whole construction is deterministic given the seed. The examples are
    built in place in the array of normals, class by class in label order.
    """
    shifts = separation * _class_centers(num_classes, dim)
    sample_rng = RngStream(derive_seed(seed, STREAM_DATAGEN, 1, 0))
    inputs = sample_rng.normals(num_classes * n_per_class * dim).reshape(num_classes, n_per_class, dim)
    inputs += shifts[:, None, :]
    inputs = inputs.reshape(num_classes * n_per_class, dim)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    lo, hi = inputs.min(), inputs.max()
    inputs -= lo
    inputs /= hi - lo
    return Dataset(inputs, labels, num_classes)


def partition_noniid(dataset: Dataset, n_clients: int, q: float, seed: int) -> list[np.ndarray]:
    """Split a dataset into client shards with tunable label skew: entry c
    holds client c's example indices (int64), possibly none.

    Clients are divided into num_classes groups as evenly as possible.
    An example with label l goes to group l with probability q and to each
    other group with probability (1 - q) / (num_classes - 1), then to a
    uniformly random client inside the chosen group. q = 1/num_classes is
    the iid point; q = 1 gives each group only its own label. The config
    guarantees n_clients >= num_classes and q in [1/num_classes, 1].

    Example i draws two uniforms, one for its group and one for its
    client; the picks are integer arithmetic on whole arrays, and one
    stable argsort by client lists each shard's examples in dataset order.
    """
    c = dataset.num_classes
    bounds = np.array([(g * n_clients) // c for g in range(c + 1)], dtype=np.int64)
    rng = RngStream(derive_seed(seed, STREAM_PARTITION, 0, 0))
    n = dataset.size
    u_group = rng.uniforms(n)
    u_client = rng.uniforms(n)
    labels = dataset.labels

    # group pick: the label's group owns mass q, the other c - 1 groups share 1 - q
    off = (1.0 - q) / (c - 1) if c > 1 else 0.0
    # astype truncates toward zero: the floor of every pick that counts (u >= q)
    slot = ((u_group - q) / off).astype(np.int64) if off > 0 else np.zeros(n, dtype=np.int64)
    slot = np.minimum(slot, c - 2)  # a negative slot (u < q) is masked by the label pick
    group = np.where(u_group < q, labels, np.where(slot < labels, slot, slot + 1))
    lo, hi = bounds[group], bounds[group + 1]
    member = np.minimum(lo + (u_client * (hi - lo)).astype(np.int64), hi - 1)
    order = np.argsort(member, kind="stable")
    sizes = np.bincount(member, minlength=n_clients)
    return np.split(order, np.cumsum(sizes)[:-1])
