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


def _check_params(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    w = as_vector(w, name="params")
    if w.size != spec.param_dim:
        raise ValueError(f"param dim {w.size} != expected {spec.param_dim}")
    return w


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
    """Unchecked forward pass on validated w and x: (scores, z1, a1), where
    z1 and a1 are the MLP's hidden pre-activation and activation (None for
    the linear kinds)."""
    if spec.kind == "mlp":
        W1, b1, W2, b2 = _split_mlp(spec, w)
        z1 = x @ W1.T + b1
        a1 = np.maximum(z1, 0.0)
        return a1 @ W2.T + b2, z1, a1
    W, b = _split_linear(spec, w)
    return x @ W.T + b, None, None


def scores(spec: ModelSpec, w, inputs: np.ndarray) -> np.ndarray:
    """Class scores (logits) for a 2-D input array."""
    w = _check_params(spec, w)
    return _forward(spec, w, np.asarray(inputs, dtype=np.float64))[0]


def _log_softmax(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean per-example loss plus (l2/2) * ||w||^2.

    Trusts its inputs, as :func:`gradient` does.
    """
    s = _forward(spec, w, x)[0]
    n = x.shape[0]
    if spec.kind == "ridge":
        target = np.zeros_like(s)
        target[np.arange(n), y] = 1.0
        data_term = 0.5 * float(np.sum((s - target) ** 2)) / n
    else:
        logp = _log_softmax(s)
        data_term = -float(logp[np.arange(n), y].mean())
    return data_term + 0.5 * spec.l2 * float(w @ w)


def gradient(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to w.

    Trusts its inputs, which are checked where they enter the program:
    `w` is a finite float64 vector of `spec.param_dim` entries, `x` holds
    (B, input_dim) float64 rows of a validated shard, and `y` their B int64
    labels in [0, num_classes).
    """
    n = x.shape[0]
    s, z1, a1 = _forward(spec, w, x)
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
        W2 = _split_mlp(spec, w)[2]
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


def predict(spec: ModelSpec, w, inputs) -> np.ndarray | int:
    """Argmax class per input; ties break toward the lowest class index.

    Accepts a single 1-D input (returns an int) or a 2-D batch (returns an
    int64 array).
    """
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"input dim {x.shape[1]} != spec input_dim {spec.input_dim}")
    labels = np.argmax(scores(spec, w, x), axis=1).astype(np.int64)
    return int(labels[0]) if single else labels


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


def quadratic_hessian(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Explicit (d x d) Hessian of the ridge loss on (n, input_dim) inputs.

    The ridge loss is quadratic, so this matrix is exact and constant in w.
    `spec` must be the ridge kind, as the config guarantees wherever
    recovery asks for it (`hvp_mode = exact_quadratic`).
    """
    x = np.asarray(inputs, dtype=np.float64)
    n, f = x.shape
    c = spec.num_classes
    xt = np.hstack([x, np.ones((n, 1))])
    m = xt.T @ xt / n  # (f+1) x (f+1)
    d = spec.param_dim
    h = np.zeros((d, d))
    for cls in range(c):
        wsl = slice(cls * f, (cls + 1) * f)
        bix = c * f + cls
        h[wsl, wsl] = m[:f, :f]
        h[wsl, bix] = m[:f, f]
        h[bix, wsl] = m[f, :f]
        h[bix, bix] = m[f, f]
    h += spec.l2 * np.eye(d)
    return h
