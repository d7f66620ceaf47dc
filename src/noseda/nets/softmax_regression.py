"""Multinomial softmax regression trained by full-batch descent with backtracking.

Small-sample workhorse: it is the gate that routes windows to cluster
experts (a 16-sample regime) and the linear baseline over 4 classes.
Labels here are 0-based class indices and the class count is explicit,
since the gate's classes are cluster ids, not quality labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import check_inputs, check_labeled, class_positions, log_softmax, softmax

ARMIJO_C = 1e-4
MIN_STEP = 1e-12
TOL = 1e-6


@dataclass(frozen=True)
class SoftmaxRegressionParams:
    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        for name in ("weights", "bias"):  # a float64 array passes as is
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
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
    X = check_inputs(X, (params.input_dim,))
    return softmax(_logits(params.weights, params.bias, X))


def _objective_lp(weights, bias, X, true, l2) -> tuple[float, np.ndarray]:
    """The objective and the (n, C) log-probabilities it was computed from;
    ``true`` holds the flat position of each input's true class in them."""
    lp = log_softmax(_logits(weights, bias, X))
    nll = -lp.reshape(-1)[true].mean()
    return float(nll + 0.5 * l2 * (weights**2).sum()), lp


def _gradient_from_lp(lp, weights, X, true, l2):
    """The gradient given the log-probabilities at ``weights``."""
    R = np.exp(lp)
    R.reshape(-1)[true] -= 1.0
    R /= X.shape[0]
    return R.T @ X + l2 * weights, R.sum(axis=0)


def softmax_loss_grad(params: SoftmaxRegressionParams, X: np.ndarray, y_idx: np.ndarray, l2: float = 0.0):
    X, y = check_labeled(X, y_idx, (params.input_dim,), params.n_classes, 0)
    true = class_positions(y, params.n_classes)
    loss, lp = _objective_lp(params.weights, params.bias, X, true, l2)
    return loss, _gradient_from_lp(lp, params.weights, X, true, l2)


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
    X, y = check_labeled(X, labels, (None,), n_classes, 0)
    true = class_positions(y, n_classes)
    weights = np.zeros((n_classes, X.shape[1]))
    bias = np.zeros(n_classes)
    loss, lp = _objective_lp(weights, bias, X, true, l2)
    trace = [loss]
    for _ in range(max_iter):
        gw, gb = _gradient_from_lp(lp, weights, X, true, l2)
        gnorm2 = float((gw**2).sum() + (gb**2).sum())
        if np.sqrt(gnorm2) < TOL:
            break
        # shrink the step until the Armijo decrease condition holds; the
        # accepted candidate's log-probabilities feed the next gradient
        step = 1.0
        while step >= MIN_STEP:
            cand_w, cand_b = weights - step * gw, bias - step * gb
            cand, cand_lp = _objective_lp(cand_w, cand_b, X, true, l2)
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
