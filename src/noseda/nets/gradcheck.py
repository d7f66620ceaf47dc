"""Central finite-difference validation of the hand-derived gradients.

Run with dropout disabled and double precision.  ``grad_check`` works on any
objective over a flat parameter vector; the per-family helpers build such
objectives from a params object and one labeled sample (or small batch).
"""

from __future__ import annotations

import numpy as np

from .common import flat_views, flatten_arrays
from .lstm import LstmParams, lstm_loss_grad
from .mlp import MlpParams, mlp_loss_grad
from .softmax_regression import SoftmaxRegressionParams, softmax_loss_grad

EPS = 1e-5


def grad_check(objective, theta: np.ndarray) -> float:
    """Max relative error between the analytic gradient and central
    differences of step ``EPS``.

    ``objective(theta) -> (value, grad)``.  Per-coordinate relative error is
    |g_a - g_n| / (|g_a| + |g_n| + 1e-12).
    """
    _, analytic = objective(theta)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.all(np.isfinite(analytic)):
        raise ValueError("non-finite analytic gradient")
    numeric = np.empty_like(analytic)
    theta = theta.astype(np.float64).copy()
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + EPS
        up, _ = objective(theta)
        theta[j] = orig - EPS
        down, _ = objective(theta)
        theta[j] = orig
        numeric[j] = (up - down) / (2.0 * EPS)
    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(rel.max())


def _vector_objective(loss_grad, params, *args):
    """(objective over a flat parameter vector, the vector of ``params``)."""
    shapes = [a.shape for a in params.arrays()]

    def objective(vec):
        loss, grads = loss_grad(type(params)(*flat_views(vec, shapes)), *args)
        return loss, flatten_arrays(grads)

    return objective, flatten_arrays(params.arrays())


def lstm_objective(params: LstmParams, window: np.ndarray, label: int):
    return _vector_objective(lstm_loss_grad, params, np.asarray(window)[None], np.asarray([label]))


def mlp_objective(params: MlpParams, x: np.ndarray, label: int):
    return _vector_objective(mlp_loss_grad, params, np.asarray(x)[None], np.asarray([label]))


def softmax_objective(params: SoftmaxRegressionParams, x: np.ndarray, y_idx: int, l2: float = 0.0):
    return _vector_objective(softmax_loss_grad, params, np.asarray(x)[None], np.asarray([y_idx]), l2)
