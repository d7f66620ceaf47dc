"""Shared pieces for the hand-rolled models: config, Adam, activations, batching."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

N_CLASSES = 4

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def cpu_count() -> int:
    """Cores this process may run on, or 1 where it cannot fork workers.
    ``fit_selected`` forks one fit worker per core beyond the first, and
    ``mlp_train`` runs a helper thread when this exceeds 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    dropout: float = 0.2
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class Adam:
    """Adam with bias correction; updates parameter arrays in place."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t
        for p, g, m, v, s in zip(params, grads, self.m, self.v, self.scratch):
            adam_update(p, g, m, v, c1, c2, self.lr, s)


def adam_corrections(steps: int) -> np.ndarray:
    """The bias corrections of steps 0..``steps``: row t holds
    ``(1 - BETA1**t, 1 - BETA2**t)``, each the Python float expression's value."""
    return np.array([(1 - BETA1**t, 1 - BETA2**t) for t in range(steps + 1)])


def adam_update(p, g, m, v, c1, c2, lr, scratch) -> None:
    """One in-place Adam update of ``p`` and its moments ``m``, ``v``.

    ``c1`` and ``c2`` are the bias corrections ``1 - BETA1**t`` and
    ``1 - BETA2**t`` of step ``t``: Python floats, or arrays that broadcast
    against ``p`` (an (m, 1) column of ``adam_corrections`` rows for a stack
    of m models at their own step counts).  Either way each value is the
    Python float expression's, so a stacked row updates bit for bit like a
    lone model.

    ``scratch`` is a pair of arrays shaped like ``p`` that receive the
    intermediates, so that a caller stepping many times allocates them once.
    The arithmetic is the textbook expression's, operation for operation:
    ``v += ((1 - BETA2) * g) * g`` and ``p -= (lr * m_hat) / (sqrt(v_hat) + EPS)``.
    """
    s1, s2 = scratch
    m *= BETA1
    np.multiply(g, 1 - BETA1, out=s1)
    m += s1
    v *= BETA2
    np.multiply(g, 1 - BETA2, out=s1)
    s1 *= g
    v += s1
    if isinstance(c1, float) and c1 == 1.0:  # from step 356 on: m / 1.0 is m, bit for bit
        np.multiply(m, lr, out=s1)
    else:
        np.divide(m, c1, out=s1)  # m_hat
        s1 *= lr
    np.divide(v, c2, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += EPS
    s1 /= s2
    p -= s1


def sigmoid(z):
    """``1 / (1 + exp(-z))``, operation for operation, in one buffer."""
    out = np.negative(z)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def row_max(a: np.ndarray) -> np.ndarray:
    """The (..., 1) maxima of a's last axis, a column at a time (a max over a short axis loops per row)."""
    m = a[..., :1]
    for c in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., c : c + 1])
    return m


def log_softmax(z: np.ndarray) -> np.ndarray:
    zm = z - row_max(z)
    zm -= np.log(np.exp(zm).sum(axis=-1, keepdims=True))
    return zm


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(z))


def class_positions(y: np.ndarray, n_classes: int) -> np.ndarray:
    """The flat position of each row's class ``y`` in a C-ordered
    (..., n_classes) array whose leading axes are ``y``'s."""
    return np.arange(0, y.size * n_classes, n_classes) + y.reshape(-1)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def check_inputs(X, shape) -> np.ndarray:
    """``X`` as float64, checked to be (n, *shape) and finite.  A ``None`` in
    ``shape`` takes any size on that axis."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != len(shape) + 1 or any(s not in (None, x) for s, x in zip(shape, X.shape[1:])):
        dims = ", ".join("d" if s is None else str(s) for s in shape)
        raise ValueError(f"expected windows of shape (n, {dims}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in input windows")
    return X


def check_labeled(X, labels, shape, n_classes: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """``check_inputs`` on ``X``, then a nonempty set with one integral label
    per input, each in ``first..first + n_classes - 1``.  Returns X and the
    labels as 0-based class indices."""
    X = check_inputs(X, shape)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (len(X),):
        raise ValueError(f"{len(X)} inputs but {y.size} labels of shape {y.shape}")
    if len(X) == 0:
        raise ValueError("empty input set")
    # checked as floats: casting NaN or inf to int64 would warn
    bad = np.flatnonzero(~np.isfinite(y) | (np.floor(y) != y))
    if bad.size:
        raise ValueError(f"labels must be integers, got {y[bad[0]]} at position {bad[0]}")
    lo, hi = int(y.min()), int(y.max())
    if lo < first or hi >= first + n_classes:
        raise ValueError(f"labels must lie in {first}..{first + n_classes - 1}, got range [{lo}, {hi}]")
    return X, y.astype(np.int64) - first


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index arrays covering all n samples once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray | None:
    """Inverted-scaling mask: entries are 0 or 1/(1-p).  None when p == 0."""
    if p == 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def flatten_arrays(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a).ravel() for a in arrays])


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the last axis of ``flat``, one per shape, each
    keeping ``flat``'s leading axes: the arrays ``flatten_arrays`` joined."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., pos : pos + size].reshape(flat.shape[:-1] + tuple(shape)))
        pos += size
    return views
