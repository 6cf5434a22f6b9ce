"""Global-model families with closed-form loss and gradient.

Three kinds are supported:

* ``logreg``: L2-regularized multinomial logistic regression. With l2 > 0
  the loss is l2-strongly convex and L-smooth, which the convergence-bound
  checks rely on.
* ``mlp``: one ReLU hidden layer with softmax output (non-convex).
* ``ridge``: one-hot least squares. Its loss is quadratic, so each
  client's Hessian is a constant matrix; this is the model used when the
  recovery engine needs exact Hessian-vector products.

Parameters are flat float64 vectors. Layouts:
  logreg/ridge: [W.ravel() (C x F), b (C)]
  mlp:          [W1.ravel() (H x F), b1 (H), W2.ravel() (C x H), b2 (C)]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import RngStream, as_vector

KINDS = ("logreg", "mlp", "ridge")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden: int = 0
    l2: float = 0.0

    @property
    def param_dim(self) -> int:
        f, c, h = self.input_dim, self.num_classes, self.hidden
        if self.kind == "mlp":
            return (f + 1) * h + (h + 1) * c
        return (f + 1) * c


def _split_linear(spec: ModelSpec, w: np.ndarray):
    f, c = spec.input_dim, spec.num_classes
    W = w[: c * f].reshape(c, f)
    b = w[c * f :]
    return W, b


def _split_mlp(spec: ModelSpec, w: np.ndarray):
    f, c, h = spec.input_dim, spec.num_classes, spec.hidden
    o = 0
    W1 = w[o : o + h * f].reshape(h, f)
    o += h * f
    b1 = w[o : o + h]
    o += h
    W2 = w[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = w[o : o + c]
    return W1, b1, W2, b2


def _forward(spec: ModelSpec, w: np.ndarray, x: np.ndarray):
    """Unchecked forward pass on validated w and x: (scores, a1, W2), where
    a1 is the MLP's hidden activation and W2 its output weights (None for
    the linear kinds). Each array is built in place."""
    if spec.kind == "mlp":
        W1, b1, W2, b2 = _split_mlp(spec, w)
        a1 = x @ W1.T
        a1 += b1
        np.maximum(a1, 0.0, out=a1)
        s = a1 @ W2.T
        s += b2
        return s, a1, W2
    W, b = _split_linear(spec, w)
    s = x @ W.T
    s += b
    return s, None, None


def scores(spec: ModelSpec, w, inputs: np.ndarray) -> np.ndarray:
    """Class scores (logits) for a 2-D input array. `w` holds
    `spec.param_dim` entries, as every model the program builds does;
    only its values are checked."""
    w = as_vector(w, name="params")
    return _forward(spec, w, np.asarray(inputs, dtype=np.float64))[0]


def gradient(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient with respect to w of the mean per-example loss
    (cross-entropy of the softmax, or half the squared error to the
    one-hot label for ridge) plus (l2/2) * ||w||^2.

    Trusts its inputs, which are checked where they enter the program:
    `w` is a finite float64 vector of `spec.param_dim` entries, `x` holds
    (B, input_dim) float64 rows of a validated shard, and `y` their B int64
    labels in [0, num_classes).
    """
    n = x.shape[0]
    err, a1, W2 = _forward(spec, w, x)
    if spec.kind != "ridge":
        err -= err.max(axis=1, keepdims=True)
        np.exp(err, out=err)
        err /= err.sum(axis=1, keepdims=True)
    err[np.arange(n), y] -= 1.0
    err /= n
    if spec.kind == "mlp":
        back = err @ W2
        back *= a1 > 0.0  # ReLU'(z1): a1 > 0 exactly where z1 > 0
        parts = [(back.T @ x).ravel(), back.sum(axis=0), (err.T @ a1).ravel(), err.sum(axis=0)]
    else:
        parts = [(err.T @ x).ravel(), err.sum(axis=0)]
    g = np.concatenate(parts)
    g += spec.l2 * w
    return g


def predict(spec: ModelSpec, w, inputs: np.ndarray) -> np.ndarray:
    """Argmax class (int64) of each row of a 2-D input batch; ties break
    toward the lowest class index. `config.build_datasets` guarantees
    inputs of `spec.input_dim`."""
    return np.argmax(scores(spec, w, inputs), axis=1).astype(np.int64)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Initial parameter vector.

    Linear models start at zero. The MLP uses per-layer uniform(-a, a)
    with a = sqrt(6 / (fan_in + fan_out)) for weights and zero biases,
    drawn from RngStream(seed).
    """
    if spec.kind != "mlp":
        return np.zeros(spec.param_dim)
    f, c, h = spec.input_dim, spec.num_classes, spec.hidden
    rng = RngStream(seed)
    a1 = np.sqrt(6.0 / (f + h))
    a2 = np.sqrt(6.0 / (h + c))
    W1 = (rng.uniforms(h * f) * 2.0 - 1.0) * a1
    W2 = (rng.uniforms(c * h) * 2.0 - 1.0) * a2
    return np.concatenate([W1, np.zeros(h), W2, np.zeros(c)])

