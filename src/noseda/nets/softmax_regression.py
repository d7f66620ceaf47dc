"""Multinomial softmax regression trained by full-batch descent with backtracking.

Small-sample workhorse: it is the gate that routes windows to cluster
experts (a 16-sample regime) and the linear baseline over 4 classes.
Labels here are 0-based class indices and the class count is explicit,
since the gate's classes are cluster ids, not quality labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import log_softmax, one_hot, softmax

ARMIJO_C = 1e-4
MIN_STEP = 1e-12
TOL = 1e-6


@dataclass(frozen=True)
class SoftmaxRegressionParams:
    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite parameters")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError("weights and bias disagree on class count")

    @property
    def n_classes(self) -> int:
        return self.bias.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.weights, self.bias)


def _logits(weights: np.ndarray, bias: np.ndarray, X: np.ndarray) -> np.ndarray:
    return X @ weights.T + bias


def softmax_predict_proba(params: SoftmaxRegressionParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"expected (n, {params.input_dim}) inputs, got {X.shape}")
    return softmax(_logits(params.weights, params.bias, X))


def softmax_loss(params: SoftmaxRegressionParams, X: np.ndarray, y_idx: np.ndarray, l2: float = 0.0) -> float:
    return _objective_lp(params.weights, params.bias, np.asarray(X, dtype=np.float64), np.asarray(y_idx), l2)[0]


def _objective_lp(weights, bias, X, y_idx, l2) -> tuple[float, np.ndarray]:
    """The objective and the (n, C) log-probabilities it was computed from."""
    lp = log_softmax(_logits(weights, bias, X))
    nll = -lp[np.arange(len(y_idx)), y_idx].mean()
    return float(nll + 0.5 * l2 * (weights**2).sum()), lp


def _gradient_from_lp(lp, weights, X, y_hot, l2):
    """The gradient given the log-probabilities at ``weights``; ``y_hot``
    holds the one-hot label rows."""
    R = (np.exp(lp) - y_hot) / X.shape[0]
    return R.T @ X + l2 * weights, R.sum(axis=0)


def softmax_loss_grad(params: SoftmaxRegressionParams, X: np.ndarray, y_idx: np.ndarray, l2: float = 0.0):
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx)
    loss, lp = _objective_lp(params.weights, params.bias, X, y_idx, l2)
    gw, gb = _gradient_from_lp(lp, params.weights, X, one_hot(y_idx, params.n_classes), l2)
    return loss, (gw, gb)


def softmax_train(
    X: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    l2: float = 1e-4,
    max_iter: int = 500,
    return_trace: bool = False,
):
    """Minimize L2-regularized cross-entropy (weights only) from a zero init.

    Full-batch gradient descent with Armijo backtracking, so the loss trace
    is nonincreasing.  Stops when the gradient norm drops below ``TOL``, the
    line search stalls, or after ``max_iter`` accepted steps.  ``labels`` are
    0-based indices into ``n_classes`` classes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"expected a nonempty (n, d) matrix, got shape {X.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels do not match inputs")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")

    weights = np.zeros((n_classes, X.shape[1]))
    bias = np.zeros(n_classes)
    y_hot = one_hot(y, n_classes)
    loss, lp = _objective_lp(weights, bias, X, y, l2)
    trace = [loss]
    for _ in range(max_iter):
        gw, gb = _gradient_from_lp(lp, weights, X, y_hot, l2)
        gnorm2 = float((gw**2).sum() + (gb**2).sum())
        if np.sqrt(gnorm2) < TOL:
            break
        # shrink the step until the Armijo decrease condition holds; the
        # accepted candidate's log-probabilities feed the next gradient
        step = 1.0
        while step >= MIN_STEP:
            cand_w, cand_b = weights - step * gw, bias - step * gb
            cand, cand_lp = _objective_lp(cand_w, cand_b, X, y, l2)
            if cand <= loss - ARMIJO_C * step * gnorm2:
                break
            step *= 0.5
        if step < MIN_STEP:
            break
        weights, bias, loss, lp = cand_w, cand_b, cand, cand_lp
        trace.append(loss)

    params = SoftmaxRegressionParams(weights=weights, bias=bias)
    if return_trace:
        return params, trace
    return params
