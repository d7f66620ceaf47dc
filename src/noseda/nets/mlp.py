"""Two-hidden-layer (256 + 256) ReLU network on flattened windows.

Manual gradients; dropout with inverted scaling on both hidden layers during
training.  Matches the LSTM's training loop conventions (Adam, shuffled
mini-batches, seeded determinism, zero-initialized softmax head).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    N_CLASSES,
    Adam,
    TrainConfig,
    check_inputs,
    check_labeled,
    class_positions,
    flat_views,
    flatten_arrays,
    log_softmax,
    minibatch_indices,
    softmax,
    uniform_init,
)

HIDDEN_SIZES = (256, 256)
# Rows per hidden-layer block when predicting.
PREDICT_BLOCK = 256


@dataclass(frozen=True)
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0] or self.w2.shape[1] != self.w3.shape[0]:
            raise ValueError("inconsistent hidden-layer shapes")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.b3.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


def mlp_init(input_dim: int, hidden=HIDDEN_SIZES, seed: int = 0) -> MlpParams:
    rng = np.random.default_rng(seed)
    h1, h2 = hidden
    return MlpParams(
        w1=uniform_init(rng, (input_dim, h1), input_dim),
        b1=np.zeros(h1),
        w2=uniform_init(rng, (h1, h2), h1),
        b2=np.zeros(h2),
        w3=np.zeros((h2, N_CLASSES)),
        b3=np.zeros(N_CLASSES),
    )


def _hidden(params: MlpParams, X: np.ndarray, drop1=None, out=None):
    """Both ReLU hidden layers, (a1, a2), the first masked by ``drop1``; the
    second is written into ``out`` when one is given."""
    a1 = X @ params.w1
    a1 += params.b1
    np.maximum(a1, 0.0, out=a1)
    if drop1 is not None:
        a1 *= drop1
    a2 = np.matmul(a1, params.w2, out=out)
    a2 += params.b2
    np.maximum(a2, 0.0, out=a2)
    return a1, a2


def _forward(params: MlpParams, X: np.ndarray, drop1=None, drop2=None):
    a1, a2 = _hidden(params, X, drop1)
    if drop2 is not None:
        a2 *= drop2
    logits = a2 @ params.w3 + params.b3
    return logits, {"a1": a1, "a2": a2, "drop1": drop1, "drop2": drop2}


def mlp_predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Class probabilities, computed without holding both (n, h) hidden layers.

    The hidden layers run PREDICT_BLOCK rows at a time into one (n, h2)
    buffer, and the narrow output layer runs once over all rows.  On
    OpenBLAS's SkylakeX kernels, and on its Haswell kernels with one thread,
    a row of a matrix product whose width is a multiple of 8 (the default
    256 included) has the same bits whatever the row count, so the result
    equals one ``_forward`` over all rows bit for bit; the 4-wide output
    layer's rows do depend on the row count.  A 1-row tail joins the block
    before it, since one row goes through a matrix-vector kernel.  The
    Haswell kernels give an odd share's last row its own kernel, so with
    more threads, which split the rows, a row's last bits can differ.
    """
    X = check_inputs(X, (params.input_dim,))
    n = len(X)
    a2 = np.empty((n, params.w2.shape[1]))
    starts = list(range(0, n, PREDICT_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        _hidden(params, X[start:stop], out=a2[start:stop])
    return softmax(a2 @ params.w3 + params.b3)


def mlp_predict_labels(params: MlpParams, X: np.ndarray) -> np.ndarray:
    return np.argmax(mlp_predict_proba(params, X), axis=1) + 1


def _loss_grad(params: MlpParams, X: np.ndarray, y: np.ndarray, drop1, drop2, grads):
    """Mean cross-entropy and gradients on checked inputs, written into
    ``grads``: six arrays shaped like ``params.arrays()``.

    ``y`` holds 0-based class indices.
    """
    B = X.shape[0]
    d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = grads
    logits, cache = _forward(params, X, drop1, drop2)
    lp = log_softmax(logits)
    true = class_positions(y, params.n_classes)
    loss = float(-lp.reshape(-1)[true].mean())

    dlogits = np.exp(lp)
    dlogits.reshape(-1)[true] -= 1.0
    dlogits /= B
    np.matmul(cache["a2"].T, dlogits, out=d_w3)
    dlogits.sum(axis=0, out=d_b3)
    da2 = dlogits @ params.w3.T
    if drop2 is not None:
        da2 *= drop2
    np.multiply(da2, cache["a2"] > 0, out=da2)
    np.matmul(cache["a1"].T, da2, out=d_w2)
    da2.sum(axis=0, out=d_b2)
    da1 = da2 @ params.w2.T
    if drop1 is not None:
        da1 *= drop1
    np.multiply(da1, cache["a1"] > 0, out=da1)
    np.matmul(X.T, da1, out=d_w1)
    da1.sum(axis=0, out=d_b1)
    return loss


def mlp_loss_grad(params: MlpParams, X: np.ndarray, labels: np.ndarray, drop1=None, drop2=None):
    X, y = check_labeled(X, labels, (params.input_dim,), params.n_classes, 1)
    grads = tuple(np.empty_like(a) for a in params.arrays())
    loss = _loss_grad(params, X, y, drop1, drop2, grads)
    return loss, grads


def mlp_train(
    X: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
    hidden=HIDDEN_SIZES,
    return_trace: bool = False,
):
    """Train on flattened windows; labels in 1..4.  Deterministic given the seed.

    The six parameter arrays are views of one flat buffer, as are their
    gradients, so each step is one Adam update over all of them.
    """
    X, y = check_labeled(X, labels, (None,), N_CLASSES, 1)
    n, d = X.shape
    rng = np.random.default_rng(config.seed)
    init = mlp_init(d, hidden=hidden, seed=int(rng.integers(2**63)))
    shapes = [a.shape for a in init.arrays()]
    flat = flatten_arrays(init.arrays())
    grad = np.empty_like(flat)
    params, grads = MlpParams(*flat_views(flat, shapes)), flat_views(grad, shapes)
    adam = Adam([flat], lr=config.learning_rate)
    p = config.dropout
    # one pair of dropout masks per batch length, redrawn in place each step:
    # the same draws and bits as a fresh dropout_mask pair per step
    masks = {}
    trace = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in minibatch_indices(n, config.batch_size, rng):
            drop1 = drop2 = None
            if p > 0.0:
                if len(idx) not in masks:
                    masks[len(idx)] = tuple(np.empty((len(idx), h)) for h in hidden)
                drop1, drop2 = masks[len(idx)]
                for drop in (drop1, drop2):
                    rng.random(out=drop)
                    np.greater_equal(drop, p, out=drop)  # 1.0 where kept, else 0.0
                    drop /= 1.0 - p
            loss = _loss_grad(params, X[idx], y[idx], drop1, drop2, grads)
            adam.step([flat], [grad])
            total += loss * len(idx)
        trace.append(total / n)
    params = MlpParams(*(v.copy() for v in params.arrays()))
    if return_trace:
        return params, trace
    return params
