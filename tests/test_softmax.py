import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noseda.nets import softmax_train
from noseda.nets.common import log_softmax, softmax
from noseda.nets.softmax_regression import (
    ARMIJO_C,
    MIN_STEP,
    TOL,
    SoftmaxRegressionParams,
    softmax_loss_grad,
    softmax_predict_proba,
    softmax_train_many,
)


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


def stop_reason(X, y, n_classes, l2, max_iter):
    """Why the lone run on ``y`` stopped: "max_iter", "tol" or "stall"."""
    params, trace = softmax_train(X, y, n_classes, l2=l2, max_iter=max_iter, return_trace=True)
    if len(trace) == max_iter + 1:
        return "max_iter"
    _, (gw, gb) = softmax_loss_grad(params, X, y, l2)
    return "tol" if np.sqrt((gw**2).sum() + (gb**2).sum()) < TOL else "stall"


@st.composite
def label_stacks(draw):
    """(X, an (M, n) label stack, class count, l2, max_iter) over a range of
    input scales, from well-conditioned to a line search that stalls."""
    M, n, d = draw(st.integers(1, 5)), draw(st.integers(1, 16)), draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    scale = draw(st.sampled_from([1.0, 30.0, 2.5e6]))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d)) * scale
    labels = draw(arrays(np.int64, (M, n), elements=st.integers(0, n_classes - 1)))
    return X, labels, n_classes, draw(st.sampled_from([0.0, 1e-4, 1e-2, 1.0])), draw(st.integers(0, 60))


# a stack whose rows stop for all three reasons (see test_stack_mixes_every_stop)
MIXED_X = np.random.default_rng(2).normal(size=(7, 3)) * 2.5e6
MIXED_LABELS = np.random.default_rng(3).integers(0, 2, size=(6, 7))
# TestMatchesTwoEvaluationLoop's huge inputs, twice: both stall after two steps
STALLED_X = np.random.default_rng(1).normal(size=(8, 2)) * 2.5e6
STALLED_LABELS = np.array([np.arange(8) % 2] * 2)


class TestTrainMany:
    """Every slice of a lockstep stack is its model's lone run."""

    @settings(max_examples=60, deadline=None)
    @given(label_stacks())
    @example((MIXED_X, MIXED_LABELS, 2, 1e-4, 40))
    @example((STALLED_X, STALLED_LABELS, 2, 1e-4, 500))
    def test_every_slice_is_the_lone_run(self, stack):
        X, labels, n_classes, l2, max_iter = stack
        params, traces = softmax_train_many(X, labels, n_classes, l2=l2, max_iter=max_iter, return_trace=True)
        assert len(params) == len(traces) == len(labels)
        for y, got, trace in zip(labels, params, traces):
            lone, lone_trace = softmax_train(X, y, n_classes, l2=l2, max_iter=max_iter, return_trace=True)
            w, b, ref_trace = two_evaluation_train(X, y, n_classes, l2, max_iter)
            assert trace == lone_trace == ref_trace
            assert np.array_equal(got.weights, lone.weights) and np.array_equal(got.weights, w)
            assert np.array_equal(got.bias, lone.bias) and np.array_equal(got.bias, b)

    def test_stack_mixes_every_stop(self):
        # the first @example above: its rows leave the stack at different
        # iterations, through a vanishing gradient, a stall and max_iter
        reasons = [stop_reason(MIXED_X, y, 2, 1e-4, 40) for y in MIXED_LABELS]
        assert set(reasons) == {"tol", "stall", "max_iter"}

    def test_no_label_sets_rejected(self):
        with pytest.raises(ValueError, match="need at least one set of labels"):
            softmax_train_many(np.zeros((3, 2)), np.zeros((0, 3), dtype=int), 2)

    def test_every_row_is_checked(self):
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1, got range \[0, 2\]"):
            softmax_train_many(np.zeros((3, 2)), np.array([[0, 1, 0], [0, 1, 2]]), 2)


class TestParams:
    def test_lists_build_the_array_params(self):
        from_lists = SoftmaxRegressionParams(weights=[[0.0, 1.0]], bias=[0])
        from_arrays = SoftmaxRegressionParams(weights=np.array([[0.0, 1.0]]), bias=np.array([0.0]))
        for a, b in zip(from_lists.arrays(), from_arrays.arrays()):
            assert a.dtype == np.float64 and np.array_equal(a, b)

    def test_non_numbers_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxRegressionParams(weights=[["w", "x"]], bias=[0.0])
