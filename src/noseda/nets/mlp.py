"""Two-hidden-layer (256 + 256) ReLU network on flattened windows.

Manual gradients; dropout with inverted scaling on both hidden layers during
training.  Matches the LSTM's training loop conventions (Adam, shuffled
mini-batches, seeded determinism, zero-initialized softmax head).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from .common import (
    BETA1,
    BETA2,
    N_CLASSES,
    TrainConfig,
    adam_update,
    check_inputs,
    check_labeled,
    class_positions,
    cpu_count,
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


def _layer_grad(a, delta, d_w, d_b) -> None:
    """A dense layer's weight and bias gradients, written into ``d_w`` and
    ``d_b``, from its input ``a`` and the gradient ``delta`` at its output."""
    np.matmul(a.T, delta, out=d_w)
    delta.sum(axis=0, out=d_b)


def _now(fn, *args) -> None:
    fn(*args)


def _loss_grad(params: MlpParams, X: np.ndarray, y: np.ndarray, drop1, drop2, grads, submit=_now):
    """Mean cross-entropy and gradients on checked inputs, written into
    ``grads``: six arrays shaped like ``params.arrays()``.

    ``y`` holds 0-based class indices.  The second layer's gradients go
    through ``submit(fn, *args)``, which may run them on another thread: its
    caller then waits for them before reading ``grads``.  Meanwhile this
    thread only reads that call's operands.
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
    _layer_grad(cache["a2"], dlogits, d_w3, d_b3)
    da2 = dlogits @ params.w3.T
    if drop2 is not None:
        da2 *= drop2
    np.multiply(da2, cache["a2"] > 0, out=da2)
    submit(_layer_grad, cache["a1"], da2, d_w2, d_b2)
    da1 = da2 @ params.w2.T
    if drop1 is not None:
        da1 *= drop1
    np.multiply(da1, cache["a1"] > 0, out=da1)
    _layer_grad(X, da1, d_w1, d_b1)
    return loss


def mlp_loss_grad(params: MlpParams, X: np.ndarray, labels: np.ndarray, drop1=None, drop2=None):
    X, y = check_labeled(X, labels, (params.input_dim,), params.n_classes, 1)
    grads = tuple(np.empty_like(a) for a in params.arrays())
    loss = _loss_grad(params, X, y, drop1, drop2, grads)
    return loss, grads


def _draw_masks(rng: np.random.Generator, p: float, drops) -> None:
    """Redraw the dropout masks ``drops`` in place: the draws and bits of a
    fresh ``dropout_mask`` per array, with no new arrays."""
    for drop in drops:
        rng.random(out=drop)
        np.greater_equal(drop, p, out=drop)  # 1.0 where kept, else 0.0
        drop /= 1.0 - p


class _Helper:
    """Runs submitted calls in order: on one helper thread when ``threaded``,
    else at once on the caller's.  ``close`` ends the thread."""

    def __init__(self, threaded: bool):
        self.thread = None
        self.pending = 0  # submitted calls whose outcome is not yet collected
        if threaded:
            self.todo, self.done = queue.SimpleQueue(), queue.SimpleQueue()
            self.thread = threading.Thread(target=self._serve, name="mlp_train helper", daemon=True)
            self.thread.start()

    def _serve(self) -> None:
        for fn, args in iter(self.todo.get, None):
            try:
                fn(*args)
            except BaseException as exc:  # raised by wait(): a call that left no outcome would hang it
                self.done.put(exc)
            else:
                self.done.put(None)

    def submit(self, fn, *args) -> None:
        if self.thread is None:
            fn(*args)
        else:
            self.todo.put((fn, args))
            self.pending += 1

    def wait(self, keep: int = 0) -> None:
        """Wait until only the last ``keep`` submitted calls may still run;
        raise the first error among the calls waited for."""
        while self.pending > keep:
            self.pending -= 1
            exc = self.done.get()
            if exc is not None:
                raise exc

    def close(self) -> None:
        """Let the thread finish the calls it was given, then join it."""
        if self.thread is not None:
            self.todo.put(None)
            self.thread.join()


def mlp_train(
    X: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
    hidden=HIDDEN_SIZES,
    return_trace: bool = False,
):
    """Train on flattened windows; labels in 1..4.  Deterministic given the seed.

    The six parameter arrays are views of one flat buffer, as are their
    gradients, so each step is one Adam update over all of them, run as two
    halves of the buffer.

    Where the process may use more than one core (``cpu_count``), a helper
    thread, started here and joined before this returns or raises, takes
    three pieces of each step: the next step's dropout draws, made while
    this thread runs the forward pass; the second layer's weight and bias
    gradients, while this thread backpropagates to the first layer; and the
    second half of Adam's update, started once that backpropagation has read
    the old ``w2``.  On one core the same loop runs each piece inline, at the
    point where it would be handed over.  The bits are the same either way:
    every matrix product is the same call on the same operands, Adam is
    elementwise with the same Python-float bias corrections, and the
    generator is read in the same order (each epoch's permutation, then the
    masks step by step; no draw is made ahead across an epoch's end).  The
    mask buffers come in two pairs per batch length, used in turn, so the
    next step's draws never overwrite the masks in use.

    The split assumes one BLAS thread (``OPENBLAS_NUM_THREADS=1``, as the
    benchmark sets).  With two on two cores the bits are still equal, but
    BLAS's thread and the helper compete for the cores: a ``dnn`` experiment
    took 7% longer than before the helper, and 34% longer than with one BLAS
    thread.
    """
    X, y = check_labeled(X, labels, (None,), N_CLASSES, 1)
    n, d = X.shape
    rng = np.random.default_rng(config.seed)
    init = mlp_init(d, hidden=hidden, seed=int(rng.integers(2**63)))
    shapes = [a.shape for a in init.arrays()]
    flat = flatten_arrays(init.arrays())
    grad = np.empty_like(flat)
    params, grads = MlpParams(*flat_views(flat, shapes)), flat_views(grad, shapes)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    scratch = (np.empty_like(flat), np.empty_like(flat))
    # Adam's two halves of the buffer: the first holds w1, b1 and w2's first rows
    halves = (slice(None, len(flat) // 2), slice(len(flat) // 2, None))

    def adam_half(part: slice, step: int) -> None:
        c1, c2 = 1 - BETA1**step, 1 - BETA2**step
        s1, s2 = scratch
        adam_update(flat[part], grad[part], m[part], v[part], c1, c2, config.learning_rate, (s1[part], s2[part]))

    p = config.dropout
    pairs = {}

    def masks(length: int, step: int):
        """Step ``step``'s pair of dropout masks for a batch of ``length``."""
        if p == 0.0:
            return None, None
        if length not in pairs:
            pairs[length] = [tuple(np.empty((length, h)) for h in hidden) for _ in range(2)]
        return pairs[length][step % 2]

    trace = []
    step = 0
    helper = _Helper(threaded=cpu_count() > 1)
    try:
        for _ in range(config.epochs):
            batches = list(minibatch_indices(n, config.batch_size, rng))
            drops = [masks(len(idx), step + i) for i, idx in enumerate(batches)]
            if p > 0.0:
                _draw_masks(rng, p, drops[0])
            total = 0.0
            for i, idx in enumerate(batches):
                step += 1
                if p > 0.0 and i + 1 < len(batches):
                    helper.submit(_draw_masks, rng, p, drops[i + 1])
                loss = _loss_grad(params, X[idx], y[idx], *drops[i], grads, helper.submit)
                helper.submit(adam_half, halves[1], step)
                helper.wait(keep=1)  # the draws and the second layer's gradients
                adam_half(halves[0], step)
                helper.wait()
                total += loss * len(idx)
            trace.append(total / n)
    finally:
        helper.close()
    params = MlpParams(*(a.copy() for a in params.arrays()))
    if return_trace:
        return params, trace
    return params
