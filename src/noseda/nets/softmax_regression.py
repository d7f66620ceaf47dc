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


def _objective_lp(weights, bias, X, true, l2) -> tuple[np.ndarray, np.ndarray]:
    """The objectives of a stack of m models, (m, C, d) ``weights`` and (m, C)
    ``bias``, and the (m, n, C) log-probabilities they were computed from;
    ``true`` holds the flat position of each input's true class in them."""
    m, n = weights.shape[0], X.shape[0]
    lp = log_softmax(X @ weights.swapaxes(-1, -2) + bias[:, None, :])
    nll = -(lp.take(true).reshape(m, n).sum(axis=1) / n)  # the mean, as np.mean computes it
    return nll + 0.5 * l2 * (weights**2).reshape(m, -1).sum(axis=1), lp


def _gradient_from_lp(lp, weights, X, true, l2):
    """The gradients of a stack of models given their log-probabilities."""
    R = np.exp(lp)
    R.reshape(-1)[true] -= 1.0
    R /= X.shape[0]
    return R.swapaxes(-1, -2) @ X + l2 * weights, R.sum(axis=1)


def softmax_loss_grad(params: SoftmaxRegressionParams, X: np.ndarray, y_idx: np.ndarray, l2: float = 0.0):
    X, y = check_labeled(X, y_idx, (params.input_dim,), params.n_classes, 0)
    true = class_positions(y, params.n_classes)
    weights, bias = params.weights[None], params.bias[None]
    loss, lp = _objective_lp(weights, bias, X, true, l2)
    gw, gb = _gradient_from_lp(lp, weights, X, true, l2)
    return float(loss[0]), (gw[0], gb[0])


def _backtrack(weights, bias, gw, gb, gnorm2, loss, X, y, l2, search, took, cands) -> None:
    """Halve the step of the ``search`` models (rows of the stack whose full
    step failed) until each one's Armijo decrease condition holds, writing
    its accepted candidate into ``cands`` and marking it in ``took``; a model
    still searching when the step falls below ``MIN_STEP`` stays unmarked.
    All of them start at the same step and halve it together, so one step
    serves them all."""
    cand_w, cand_b, cand, cand_lp = cands
    step = 0.5
    while search.size and step >= MIN_STEP:
        trial_w = weights[search] - step * gw[search]
        trial_b = bias[search] - step * gb[search]
        trial, trial_lp = _objective_lp(trial_w, trial_b, X, class_positions(y[search], gw.shape[1]), l2)
        ok = trial <= loss[search] - ARMIJO_C * step * gnorm2[search]
        hit = search[ok]
        cand_w[hit], cand_b[hit], cand[hit], cand_lp[hit] = trial_w[ok], trial_b[ok], trial[ok], trial_lp[ok]
        took[hit] = True
        search = search[~ok]
        step *= 0.5


def softmax_train_many(
    X: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    l2: float = 1e-4,
    max_iter: int = 500,
):
    """Train one model per row of the (M, n) ``labels`` stack (0-based class
    indices) on the shared inputs X (n, d), all in lockstep.

    Each model is bit-identical to what ``softmax_train`` returns for its
    labels alone: it accepts or rejects its own Armijo candidates, and it
    leaves the stack when it stops (gradient norm below ``TOL``, a stalled
    line search, or ``max_iter`` accepted steps).  Every iteration first
    tries the full step for the whole stack; nearly all steps are taken
    there, so one candidate evaluation usually serves every model.

    Returns the params and the loss traces, both in row order.
    """
    if len(labels) == 0:
        raise ValueError("need at least one set of labels")
    checked = [check_labeled(X, row, (None,), n_classes, 0) for row in labels]
    X, y = checked[0][0], np.stack([y for _, y in checked])
    M, d = len(y), X.shape[1]
    out_w, out_b = np.zeros((M, n_classes, d)), np.zeros((M, n_classes))
    rows = list(range(M))  # the models still training, as rows of the outputs
    weights, bias = out_w.copy(), out_b.copy()
    true = class_positions(y, n_classes)
    loss, lp = _objective_lp(weights, bias, X, true, l2)
    traces = [[value] for value in loss.tolist()]
    for _ in range(max_iter):
        gw, gb = _gradient_from_lp(lp, weights, X, true, l2)
        gnorm2 = (gw**2).reshape(len(rows), -1).sum(axis=1) + (gb**2).sum(axis=1)
        # the full step for the whole stack (1.0 * g is g, bit for bit); the
        # accepted candidate's log-probabilities feed the next gradient
        cand_w, cand_b = weights - gw, bias - gb
        cand, cand_lp = _objective_lp(cand_w, cand_b, X, true, l2)
        # a NaN norm stops a model here, where the lone loop's line search would stall
        moving = np.sqrt(gnorm2) >= TOL
        took = moving & (cand <= loss - ARMIJO_C * gnorm2)
        if np.count_nonzero(took) < len(rows):
            cands = (cand_w, cand_b, cand, cand_lp)
            _backtrack(weights, bias, gw, gb, gnorm2, loss, X, y, l2, np.flatnonzero(moving & ~took), took, cands)
            # a model that did not move stopped: its gradient vanished or its line search stalled
            for i in np.flatnonzero(~took):
                out_w[rows[i]], out_b[rows[i]] = weights[i], bias[i]
            rows = [r for r, t in zip(rows, took.tolist()) if t]
            y, cand_w, cand_b, cand, cand_lp = y[took], cand_w[took], cand_b[took], cand[took], cand_lp[took]
            true = class_positions(y, n_classes)
        weights, bias, loss, lp = cand_w, cand_b, cand, cand_lp
        for r, value in zip(rows, loss.tolist()):
            traces[r].append(value)
        if not rows:
            break
    out_w[rows], out_b[rows] = weights, bias

    params = [SoftmaxRegressionParams(weights=w.copy(), bias=b.copy()) for w, b in zip(out_w, out_b)]
    return params, traces


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
    0-based indices into ``n_classes`` classes.  The one-model case of
    ``softmax_train_many``.
    """
    params, traces = softmax_train_many(X, [labels], n_classes, l2, max_iter)
    return (params[0], traces[0]) if return_trace else params[0]
