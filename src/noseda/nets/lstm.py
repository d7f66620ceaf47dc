"""Many-to-one LSTM over 2-timestep windows, with hand-derived BPTT gradients.

Hidden size is 4 cells.  Gate pre-activations are fused into one (d, 4h)
input matrix and one (h, 4h) recurrent matrix with column blocks ordered
[input | forget | output | candidate]; input/forget/output gates are
sigmoid, candidate and cell output are tanh.  Only the final hidden state
feeds the softmax head, and dropout (inverted scaling) is applied to that
state during training only.

The forward pass and BPTT also run on a stack of same-shape networks: every
parameter array and the input windows then carry one leading model axis, and
each slice computes exactly what the lone network would (stacked ``np.matmul``
is bit-equal to per-slice 2-D matmul).  ``lstm_train_many`` trains such a
stack in lockstep; ``lstm_train`` is its one-model case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import (
    N_CLASSES,
    TrainConfig,
    adam_update,
    cross_entropy_from_logits,
    flatten_arrays,
    labels_to_indices,
    log_softmax,
    one_hot,
    sigmoid,
    uniform_init,
)

HIDDEN_DIM = 4


@dataclass(frozen=True)
class LstmParams:
    # Each array may carry a leading model axis (a stack of networks).
    wx: np.ndarray  # (d, 4h) input weights, blocks [i | f | o | g]
    wh: np.ndarray  # (h, 4h) recurrent weights, same blocks
    b: np.ndarray  # (4h,) gate biases
    w_out: np.ndarray  # (h, C) classification head
    b_out: np.ndarray  # (C,)

    @property
    def input_dim(self) -> int:
        return self.wx.shape[-2]

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[-2]

    @property
    def n_classes(self) -> int:
        return self.b_out.shape[-1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.wx, self.wh, self.b, self.w_out, self.b_out)


def lstm_init(input_dim: int, n_classes: int = N_CLASSES, seed: int = 0) -> LstmParams:
    """Seeded uniform(-1/sqrt(fan_in), +) init for gates; zero head and biases.

    The zero head keeps untrained outputs uniform and makes training exactly
    equivariant under a relabeling of the classes.
    """
    rng = np.random.default_rng(seed)
    return LstmParams(
        wx=uniform_init(rng, (input_dim, 4 * HIDDEN_DIM), input_dim),
        wh=uniform_init(rng, (HIDDEN_DIM, 4 * HIDDEN_DIM), HIDDEN_DIM),
        b=np.zeros(4 * HIDDEN_DIM),
        w_out=np.zeros((HIDDEN_DIM, n_classes)),
        b_out=np.zeros(n_classes),
    )


def _check_windows(params: LstmParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] != 2 or X.shape[2] != params.input_dim:
        raise ValueError(f"expected windows of shape (n, 2, {params.input_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in input windows")
    return X


def _forward(params: LstmParams, X: np.ndarray, drop: np.ndarray | None = None):
    """Batched forward pass over (..., B, 2, d) windows.

    Returns (probs, cache) with everything BPTT needs.  ``X`` and the
    parameter arrays may share a leading model axis.
    """
    h = params.hidden_dim
    hs = np.zeros(X.shape[:-2] + (h,))
    cs = np.zeros_like(hs)
    b = params.b[..., None, :]
    steps = []
    for t in range(2):
        xt = X[..., t, :]
        z = xt @ params.wx + hs @ params.wh + b
        ifo = sigmoid(z[..., : 3 * h])  # elementwise, so one call equals three
        i, f, o = ifo[..., :h], ifo[..., h : 2 * h], ifo[..., 2 * h :]
        g = np.tanh(z[..., 3 * h :])
        c_new = f * cs + i * g
        hc = np.tanh(c_new)
        h_new = o * hc
        steps.append({"x": xt, "h_prev": hs, "c_prev": cs, "i": i, "f": f, "o": o, "g": g, "c": c_new, "hc": hc})
        hs, cs = h_new, c_new
    h_final = hs if drop is None else hs * drop
    logits = h_final @ params.w_out + params.b_out[..., None, :]
    log_probs = log_softmax(logits)
    cache = {"steps": steps, "h_last": hs, "h_final": h_final, "logits": logits, "log_probs": log_probs, "drop": drop}
    return np.exp(log_probs), cache


def lstm_predict_proba(params: LstmParams, X: np.ndarray) -> np.ndarray:
    X = _check_windows(params, X)
    probs, _ = _forward(params, X)
    return probs


def lstm_predict(params: LstmParams, X: np.ndarray) -> np.ndarray:
    """Predicted class labels in 1..C."""
    return np.argmax(lstm_predict_proba(params, X), axis=1) + 1


def lstm_loss(params: LstmParams, X: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the model on (X, labels), dropout off."""
    X = _check_windows(params, X)
    y = labels_to_indices(labels, params.n_classes)
    _, cache = _forward(params, X)
    return cross_entropy_from_logits(cache["logits"], y)


def _loss_grad(params: LstmParams, X: np.ndarray, y: np.ndarray, y_hot: np.ndarray, drop: np.ndarray | None):
    """Mean cross-entropy and BPTT gradients on checked inputs.

    ``y`` holds 0-based class indices (..., B) and ``y_hot`` their one-hot
    rows (..., B, C); with a leading model axis the loss is one per model.
    """
    B = X.shape[-3]
    h = params.hidden_dim
    probs, cache = _forward(params, X, drop)
    log_probs = cache["log_probs"]
    # the log-probability of each window's true class, gathered flat
    picked = log_probs.reshape(-1)[np.arange(0, log_probs.size, log_probs.shape[-1]) + y.reshape(-1)]
    loss = -np.add.reduce(picked.reshape(y.shape), axis=-1) / B  # ndarray.mean's arithmetic, less overhead

    dlogits = (probs - y_hot) / B
    d_w_out = cache["h_final"].swapaxes(-1, -2) @ dlogits
    d_b_out = dlogits.sum(axis=-2)
    dh = dlogits @ params.w_out.swapaxes(-1, -2)
    if cache["drop"] is not None:
        dh = dh * cache["drop"]

    d_wx = np.zeros_like(params.wx)
    d_wh = np.zeros_like(params.wh)
    d_b = np.zeros_like(params.b)
    dc_next = np.zeros(X.shape[:-2] + (h,))
    for t in (1, 0):
        s = cache["steps"][t]
        do = dh * s["hc"]
        dc = dh * s["o"] * (1.0 - s["hc"] ** 2) + dc_next
        di = dc * s["g"]
        dg = dc * s["i"]
        df = dc * s["c_prev"]
        dz = np.empty(dc.shape[:-1] + (4 * h,))  # gate blocks [i | f | o | g]
        np.multiply(di * s["i"], 1.0 - s["i"], out=dz[..., :h])
        np.multiply(df * s["f"], 1.0 - s["f"], out=dz[..., h : 2 * h])
        np.multiply(do * s["o"], 1.0 - s["o"], out=dz[..., 2 * h : 3 * h])
        np.multiply(dg, 1.0 - s["g"] ** 2, out=dz[..., 3 * h :])
        d_wx += s["x"].swapaxes(-1, -2) @ dz
        d_wh += s["h_prev"].swapaxes(-1, -2) @ dz
        d_b += dz.sum(axis=-2)
        dh = dz @ params.wh.swapaxes(-1, -2)
        dc_next = dc * s["f"]

    return loss, (d_wx, d_wh, d_b, d_w_out, d_b_out)


def lstm_loss_grad(params: LstmParams, X: np.ndarray, labels: np.ndarray, drop: np.ndarray | None = None):
    """Mean cross-entropy and its gradient w.r.t. every parameter array.

    Full backprop through time over the two steps; gradients are returned in
    the order of ``LstmParams.arrays()``.
    """
    X = _check_windows(params, X)
    y = labels_to_indices(labels, params.n_classes)
    loss, grads = _loss_grad(params, X, y, one_hot(y, params.n_classes), drop)
    return float(loss), grads


def _lockstep_schedule(n: Sequence[int], batch_size: int) -> list[tuple[int, int, int, int]]:
    """The minibatch steps of one epoch for models with dataset sizes ``n``
    (non-increasing): per step, the groups of models whose batches there have
    equal length, as (batch start, first model, end model, batch length).
    Models that have run out of batches are in no group."""
    schedule = []
    for lo in range(0, n[0], batch_size):
        a = 0
        while a < len(n) and n[a] > lo:
            length = min(batch_size, n[a] - lo)
            b = a + 1
            while b < len(n) and n[b] > lo and min(batch_size, n[b] - lo) == length:
                b += 1
            schedule.append((lo, a, b, length))
            a = b
    return schedule


def lstm_train_many(
    Xs: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    configs: Sequence[TrainConfig],
    return_trace: bool = False,
):
    """Train one network per (X, labels, config) triple, all in lockstep.

    The configs must agree on epochs, batch size, learning rate and dropout,
    and the windows on their width d; seeds and dataset sizes may differ.
    Every network is bit-identical to what ``lstm_train`` returns for its
    triple alone: each keeps its own ``default_rng(config.seed)`` stream
    (init draw, one permutation per epoch, one dropout mask per batch) and its
    own Adam step count, so a network that runs out of batches in an epoch
    simply skips the remaining steps.

    Returns the list of params in input order, plus the list of per-epoch
    mean-loss traces when ``return_trace`` is set.
    """
    configs = list(configs)
    if not configs or len(Xs) != len(configs) or len(labels) != len(configs):
        raise ValueError(f"need one dataset per config, got {len(Xs)} X, {len(labels)} labels, {len(configs)} configs")
    for name in ("epochs", "batch_size", "learning_rate", "dropout"):
        values = {getattr(cfg, name) for cfg in configs}
        if len(values) > 1:
            raise ValueError(f"lockstep training needs one {name}, got {sorted(values)}")
    epochs, bs, p = configs[0].epochs, configs[0].batch_size, configs[0].dropout

    data = []
    for X, y in zip(Xs, labels):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[1] != 2:
            raise ValueError(f"expected (n, 2, d) windows, got {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        y = labels_to_indices(np.asarray(y, dtype=np.int64))
        if y.shape != (X.shape[0],):
            raise ValueError(f"{X.shape[0]} windows but {y.size} labels")
        data.append((X, y))
    d = data[0][0].shape[2]
    if any(X.shape[2] != d for X, _ in data):
        raise ValueError(f"lockstep training needs one window width, got {sorted({X.shape[2] for X, _ in data})}")
    if not all(np.all(np.isfinite(X)) for X, _ in data):
        raise ValueError("non-finite values in input windows")

    # Stack the models by decreasing dataset size: at every step the models
    # that still have a batch, and among them those with a full one, are then
    # a prefix, so each group of equal batch length is a slice of the stack.
    M = len(configs)
    order = sorted(range(M), key=lambda j: -len(data[j][1]))
    data = [data[j] for j in order]
    n = [len(y) for _, y in data]
    schedule = _lockstep_schedule(n, bs)

    rngs = [np.random.default_rng(configs[j].seed) for j in order]
    inits = [lstm_init(d, seed=int(rng.integers(2**63))) for rng in rngs]
    # one flat row of parameters per model, so Adam updates a group in one pass
    flat = np.stack([flatten_arrays(p0.arrays()) for p0 in inits])
    views, pos = [], 0
    for a in inits[0].arrays():
        views.append(flat[:, pos : pos + a.size].reshape((M,) + a.shape))
        pos += a.size
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    adam_s1, adam_s2 = np.empty_like(flat), np.empty_like(flat)
    grad = np.empty_like(flat)
    t = [0] * M
    lr = configs[0].learning_rate
    # each epoch's shuffled copy of every dataset, so that a step's batches
    # are slices rather than gathers
    hots = [one_hot(y, N_CLASSES) for _, y in data]
    X_ep = np.zeros((M, n[0], 2, d))
    y_ep = np.zeros((M, n[0]), dtype=np.int64)
    y_hot_ep = np.zeros((M, n[0], N_CLASSES))
    traces = [[] for _ in range(M)]

    for _ in range(epochs):
        for j, ((X, y), rng) in enumerate(zip(data, rngs)):
            perm = rng.permutation(n[j])
            np.take(X, perm, axis=0, out=X_ep[j, : n[j]])
            np.take(y, perm, out=y_ep[j, : n[j]])
            np.take(hots[j], perm, axis=0, out=y_hot_ep[j, : n[j]])
        totals = np.zeros(M)
        for lo, a, b, length in schedule:
            G = b - a
            batch = slice(lo, lo + length)
            drop = None
            if p > 0.0:
                u = np.empty((G, length, HIDDEN_DIM))
                for g in range(G):
                    rngs[a + g].random((length, HIDDEN_DIM), out=u[g])
                drop = (u >= p) / (1.0 - p)
            sub = LstmParams(*(v[a:b] for v in views))
            loss, grads = _loss_grad(sub, X_ep[a:b, batch], y_ep[a:b, batch], y_hot_ep[a:b, batch], drop)
            np.concatenate([gr.reshape(G, -1) for gr in grads], axis=1, out=grad[a:b])
            for g in range(a, b):
                t[g] += 1
            adam_update(flat[a:b], grad[a:b], adam_m[a:b], adam_v[a:b], t[a:b], lr, (adam_s1[a:b], adam_s2[a:b]))
            totals[a:b] += loss * length
        for j in range(M):
            traces[j].append(float(totals[j] / n[j]))

    params = [None] * M
    out_traces = [None] * M
    for pos_j, j in enumerate(order):
        params[j] = LstmParams(*(v[pos_j].copy() for v in views))
        out_traces[j] = traces[pos_j]
    if return_trace:
        return params, out_traces
    return params


def lstm_train(
    X: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
    return_trace: bool = False,
):
    """Train from scratch with Adam over shuffled mini-batches.

    X: (n, 2, d) windows; labels in 1..4.  Deterministic given the config
    seed.  Returns the final-epoch params, plus the per-epoch mean-loss trace
    when ``return_trace`` is set.  The one-model case of ``lstm_train_many``.
    """
    params, traces = lstm_train_many([X], [labels], [config], return_trace=True)
    return (params[0], traces[0]) if return_trace else params[0]
