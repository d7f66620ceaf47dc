import numpy as np
import pytest

from noseda.nets import softmax_train
from noseda.nets.common import log_softmax, softmax
from noseda.nets.softmax_regression import ARMIJO_C, MIN_STEP, softmax_predict_proba


class TestTrain:
    def test_two_separable_classes(self):
        X = np.array([[-1.0], [-1.1], [-0.9], [1.0], [1.1], [0.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        params = softmax_train(X, y, n_classes=2, l2=1e-6)
        preds = np.argmax(softmax_predict_proba(params, X), axis=1)
        assert (preds == y).mean() >= 0.99

    def test_heavy_l2_collapses_weights(self):
        # balanced classes: with weights crushed the bias stays ~0 -> uniform output
        X = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        params = softmax_train(X, y, n_classes=2, l2=1e6)
        assert np.abs(params.weights).max() < 1e-3
        probs = softmax_predict_proba(params, np.array([[0.3]]))
        assert np.allclose(probs, 0.5, atol=1e-3)

    @pytest.mark.parametrize("seed", range(50))
    def test_descent_property(self, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(12, 3))
        y = r.integers(0, 4, size=12)
        _, trace = softmax_train(X, y, n_classes=4, l2=1e-4, max_iter=40, return_trace=True)
        assert trace[-1] <= trace[0]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_sixteen_sample_gate_regime(self, rng):
        # the gate trains on 4n=16 shots; make sure that regime converges
        X = np.vstack([rng.normal(-2, 0.3, size=(8, 6)), rng.normal(2, 0.3, size=(8, 6))])
        y = np.array([0] * 8 + [1] * 8)
        params = softmax_train(X, y, n_classes=2)
        preds = np.argmax(softmax_predict_proba(params, X), axis=1)
        assert (preds == y).all()

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            softmax_train(np.zeros((3, 2)), np.array([0, 1, 2]), n_classes=2)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            softmax_train(np.zeros((0, 2)), np.zeros(0, dtype=int), n_classes=2)

    def test_predict_is_simplex_point(self, rng):
        params = softmax_train(rng.normal(size=(20, 3)), rng.integers(0, 3, 20), n_classes=3)
        p = softmax_predict_proba(params, rng.normal(size=(5, 3)))
        assert p.shape == (5, 3)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(p >= 0)


def two_evaluation_train(X, y, n_classes, l2, max_iter, tol=1e-6):
    """Reference descent loop: logits and log-softmax evaluated afresh for
    every gradient and every line-search candidate."""
    def objective(w, b):
        lp = log_softmax(X @ w.T + b)
        return float(-lp[np.arange(len(y)), y].mean() + 0.5 * l2 * (w**2).sum())

    w, b = np.zeros((n_classes, X.shape[1])), np.zeros(n_classes)
    loss = objective(w, b)
    trace = [loss]
    for _ in range(max_iter):
        R = (softmax(X @ w.T + b) - np.eye(n_classes)[y]) / X.shape[0]
        gw, gb = R.T @ X + l2 * w, R.sum(axis=0)
        gnorm2 = float((gw**2).sum() + (gb**2).sum())
        if np.sqrt(gnorm2) < tol:
            break
        step = 1.0
        while step >= MIN_STEP:
            cand = objective(w - step * gw, b - step * gb)
            if cand <= loss - ARMIJO_C * step * gnorm2:
                break
            step *= 0.5
        if step < MIN_STEP:
            break
        w -= step * gw
        b -= step * gb
        loss = cand
        trace.append(loss)
    return w, b, trace


class TestMatchesTwoEvaluationLoop:
    @pytest.mark.parametrize(
        "n, d, n_classes, scale, max_iter, seed",
        [
            (16, 12, 2, 1.0, 500, 0),  # the gate: 16 shots over k clusters
            (16, 12, 3, 1.0, 500, 1),
            (300, 12, 4, 1.0, 60, 2),  # the linear baseline over 4 labels
            (8, 2, 2, 2.5e6, 500, 1),  # huge inputs: the line search stalls after two steps
        ],
    )
    def test_bit_identical(self, n, d, n_classes, scale, max_iter, seed):
        X = np.random.default_rng(seed).normal(size=(n, d)) * scale
        y = np.arange(n) % n_classes
        params, trace = softmax_train(X, y, n_classes, l2=1e-4, max_iter=max_iter, return_trace=True)
        w, b, ref_trace = two_evaluation_train(X, y, n_classes, 1e-4, max_iter)
        assert np.array_equal(np.asarray(trace), np.asarray(ref_trace))
        assert np.array_equal(params.weights, w) and np.array_equal(params.bias, b)
        if scale > 1.0:
            assert len(trace) == 3
