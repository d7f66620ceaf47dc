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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import (
    N_CLASSES,
    TrainConfig,
    adam_corrections,
    adam_update,
    check_inputs,
    check_labeled,
    class_positions,
    flat_views,
    flatten_arrays,
    log_softmax,
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

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """The shapes of ``arrays()`` for one network (no model axis)."""
        d, h, c = self.input_dim, self.hidden_dim, self.n_classes
        return ((d, 4 * h), (h, 4 * h), (4 * h,), (h, c), (c,))


def lstm_init(input_dim: int, seed: int = 0) -> LstmParams:
    """Seeded uniform(-1/sqrt(fan_in), +) init for gates; zero head and biases.

    The zero head keeps untrained outputs uniform and makes training exactly
    equivariant under a relabeling of the classes.
    """
    rng = np.random.default_rng(seed)
    return LstmParams(
        wx=uniform_init(rng, (input_dim, 4 * HIDDEN_DIM), input_dim),
        wh=uniform_init(rng, (HIDDEN_DIM, 4 * HIDDEN_DIM), HIDDEN_DIM),
        b=np.zeros(4 * HIDDEN_DIM),
        w_out=np.zeros((HIDDEN_DIM, N_CLASSES)),
        b_out=np.zeros(N_CLASSES),
    )


def _forward(params: LstmParams, X: np.ndarray, drop: np.ndarray | None = None):
    """Batched forward pass over (..., B, 2, d) windows.

    Returns (probs, cache) with everything BPTT needs.  ``X`` and the
    parameter arrays may share a leading model axis.  The initial state is
    zero, so the first step has no recurrent term and no ``f * c_prev``.
    """
    h = params.hidden_dim
    b = params.b[..., None, :]
    steps = []
    hs = cs = None
    for t in range(2):
        xt = X[..., t, :]
        z = xt @ params.wx
        if hs is not None:
            z += hs @ params.wh
        z += b
        ifo = sigmoid(z[..., : 3 * h])  # elementwise, so one call equals three
        g = np.tanh(z[..., 3 * h :])
        c = ifo[..., :h] * g
        if cs is not None:
            c += ifo[..., h : 2 * h] * cs
        hc = np.tanh(c)
        hs, cs = ifo[..., 2 * h :] * hc, c
        steps.append({"x": xt, "ifo": ifo, "g": g, "c": c, "hc": hc, "h": hs})
    h_final = hs if drop is None else hs * drop
    logits = h_final @ params.w_out
    logits += params.b_out[..., None, :]
    log_probs = log_softmax(logits)
    cache = {"steps": steps, "h_last": hs, "h_final": h_final, "logits": logits, "log_probs": log_probs}
    return np.exp(log_probs), cache


def lstm_predict_proba(params: LstmParams, X: np.ndarray) -> np.ndarray:
    probs, _ = _forward(params, check_inputs(X, (2, params.input_dim)))
    return probs


def lstm_predict(params: LstmParams, X: np.ndarray) -> np.ndarray:
    """Predicted class labels in 1..C."""
    return np.argmax(lstm_predict_proba(params, X), axis=1) + 1


def _gate_grad(dh: np.ndarray, dc_next, step: dict, c_prev, dz: np.ndarray) -> np.ndarray:
    """One step of BPTT: write the gradient w.r.t. the gate pre-activations
    into ``dz`` (blocks [i | f | o | g]) and return the one w.r.t. the cell
    state.  ``dc_next`` is None at the last step.  ``c_prev`` is None at the
    first step, whose forget block is then zero, like the state before it."""
    h = dh.shape[-1]
    ifo, g, hc = step["ifo"], step["g"], step["hc"]
    dc = dh * ifo[..., 2 * h :]
    q = np.square(hc)
    np.subtract(1.0, q, out=q)
    dc *= q
    if dc_next is not None:
        dc += dc_next
    d_ifo = np.empty_like(ifo) if c_prev is not None else np.zeros_like(ifo)
    np.multiply(dc, g, out=d_ifo[..., :h])
    if c_prev is not None:
        np.multiply(dc, c_prev, out=d_ifo[..., h : 2 * h])
    np.multiply(dh, hc, out=d_ifo[..., 2 * h :])
    d_ifo *= ifo
    one_minus = np.subtract(1.0, ifo)
    np.multiply(d_ifo, one_minus, out=dz[..., : 3 * h])
    np.square(g, out=q)
    np.subtract(1.0, q, out=q)
    dg = np.multiply(dc, ifo[..., :h], out=dz[..., 3 * h :])
    dg *= q
    return dc


def _loss_grad(params: LstmParams, X: np.ndarray, y: np.ndarray, drop: np.ndarray | None, grad):
    """Mean cross-entropy on checked inputs, with its BPTT gradient written
    into ``grad``, a (..., P) buffer laid out like the flattened
    ``params.arrays()``.

    ``y`` holds 0-based class indices (..., B); with a leading model axis the
    loss is one per model.
    """
    B = X.shape[-3]
    h = params.hidden_dim
    probs, cache = _forward(params, X, drop)
    log_probs = cache["log_probs"]
    # the flat position of each window's true class: its log-probability is
    # the loss term, and its probability less one the logit gradient
    true = class_positions(y, params.n_classes)
    picked = log_probs.reshape(-1)[true]
    loss = -np.add.reduce(picked.reshape(y.shape), axis=-1) / B  # ndarray.mean's arithmetic, less overhead

    d_wx, d_wh, d_b, d_w_out, d_b_out = flat_views(grad, params.shapes())
    dlogits = probs
    dlogits.reshape(-1)[true] -= 1.0
    dlogits /= B
    np.matmul(cache["h_final"].swapaxes(-1, -2), dlogits, out=d_w_out)
    np.add.reduce(dlogits, axis=-2, out=d_b_out)
    dh = dlogits @ params.w_out.swapaxes(-1, -2)
    if drop is not None:
        dh *= drop

    s0, s1 = cache["steps"]
    dz = np.empty(s1["c"].shape[:-1] + (4 * h,))
    dc = _gate_grad(dh, None, s1, s0["c"], dz)
    np.matmul(s1["x"].swapaxes(-1, -2), dz, out=d_wx)
    np.matmul(s0["h"].swapaxes(-1, -2), dz, out=d_wh)  # the zero state adds nothing at t=0
    np.add.reduce(dz, axis=-2, out=d_b)
    dh = dz @ params.wh.swapaxes(-1, -2)
    dc *= s1["ifo"][..., h : 2 * h]
    _gate_grad(dh, dc, s0, None, dz)
    d_wx += s0["x"].swapaxes(-1, -2) @ dz
    d_b += np.add.reduce(dz, axis=-2)
    return loss


def lstm_loss_grad(params: LstmParams, X: np.ndarray, labels: np.ndarray, drop: np.ndarray | None = None):
    """Mean cross-entropy and its gradient w.r.t. every parameter array.

    Full backprop through time over the two steps; gradients are returned in
    the order of ``LstmParams.arrays()``.
    """
    X, y = check_labeled(X, labels, (2, params.input_dim), params.n_classes, 1)
    shapes = params.shapes()
    grad = np.empty(sum(math.prod(shape) for shape in shapes))
    loss = _loss_grad(params, X, y, drop, grad)
    return float(loss), tuple(flat_views(grad, shapes))


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
    (init draw, then per epoch a permutation and that epoch's dropout draws)
    and its own Adam step count, so a network that runs out of batches in an
    epoch simply skips the remaining steps.

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

    data = [check_labeled(X, y, (2, None), N_CLASSES, 1) for X, y in zip(Xs, labels)]
    widths = sorted({X.shape[2] for X, _ in data})
    if len(widths) > 1:
        raise ValueError(f"lockstep training needs one window width, got {widths}")
    d = widths[0]

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
    views = flat_views(flat, inits[0].shapes())
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    adam_s1, adam_s2 = np.empty_like(flat), np.empty_like(flat)
    grad = np.empty_like(flat)
    t = np.zeros(M, dtype=np.int64)
    corrections = adam_corrections(epochs * -(-n[0] // bs))
    lr = configs[0].learning_rate
    # each epoch's shuffled copy of every dataset, so that a step's batches
    # are slices rather than gathers
    X_ep = np.zeros((M, n[0], 2, d))
    y_ep = np.zeros((M, n[0]), dtype=np.int64)
    # each epoch's dropout draws, turned into its masks in place: one call per
    # network right after its permutation is the same stream as one per batch
    drop_ep = np.zeros((M, n[0], HIDDEN_DIM)) if p > 0.0 else None
    # the parameter views of every group of the schedule (Adam updates them in place)
    subs = {(a, b): LstmParams(*(v[a:b] for v in views)) for _, a, b, _ in schedule}
    traces = [[] for _ in range(M)]

    for _ in range(epochs):
        for j, ((X, y), rng) in enumerate(zip(data, rngs)):
            perm = rng.permutation(n[j])
            if drop_ep is not None:
                rng.random((n[j], HIDDEN_DIM), out=drop_ep[j, : n[j]])
            np.take(X, perm, axis=0, out=X_ep[j, : n[j]])
            np.take(y, perm, out=y_ep[j, : n[j]])
        if drop_ep is not None:
            np.greater_equal(drop_ep, p, out=drop_ep)  # 1.0 where kept, else 0.0
            drop_ep /= 1.0 - p
        totals = np.zeros(M)
        for lo, a, b, length in schedule:
            batch = slice(lo, lo + length)
            drop = None if drop_ep is None else drop_ep[a:b, batch]
            loss = _loss_grad(subs[a, b], X_ep[a:b, batch], y_ep[a:b, batch], drop, grad[a:b])
            t[a:b] += 1
            c = corrections[t[a:b]]
            adam_update(
                flat[a:b], grad[a:b], adam_m[a:b], adam_v[a:b], c[:, :1], c[:, 1:], lr, (adam_s1[a:b], adam_s2[a:b])
            )
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
