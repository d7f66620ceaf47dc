"""Every public model entry checks its inputs, and its labels, at its boundary."""

import re

import numpy as np
import pytest

from noseda.baselines import (
    AdaBoostModel,
    Stump,
    adaboost_predict_many,
    adaboost_train,
    nearest_neighbor,
    ss_classify_stream,
    ss_init,
)
from noseda.gmm import GmmParams, gmm_assign, gmm_fit, gmm_log_likelihood
from noseda.nets import TrainConfig
from noseda.nets.lstm import lstm_init, lstm_loss, lstm_loss_grad, lstm_predict_proba, lstm_train, lstm_train_many
from noseda.nets.mlp import mlp_init, mlp_loss_grad, mlp_predict_proba, mlp_train
from noseda.nets.softmax_regression import (
    SoftmaxRegressionParams,
    softmax_loss,
    softmax_loss_grad,
    softmax_predict_proba,
    softmax_train,
)

ONE_EPOCH = TrainConfig(epochs=1, batch_size=4)
SOFTMAX = SoftmaxRegressionParams(weights=np.zeros((4, 6)), bias=np.zeros(4))
GMM = GmmParams(weights=np.full(2, 0.5), means=np.zeros((2, 6)), variances=np.ones((2, 6)))
# the stump on the last feature makes 6 the narrowest width AdaBoost accepts
ADABOOST = AdaBoostModel(
    stumps=(Stump(0, 0.0, 1, 2), Stump(5, 0.0, 3, 4)), alphas=(1.0, 0.5), classes=(1, 2, 3, 4), stump_errors=(0.1, 0.2)
)
POOL = np.random.default_rng(1).normal(size=(3, 6))

# name -> (shape of one input, first label, call(X, labels))
LABELED = {
    "lstm_loss": ((2, 3), 1, lambda X, y: lstm_loss(lstm_init(3), X, y)),
    "lstm_loss_grad": ((2, 3), 1, lambda X, y: lstm_loss_grad(lstm_init(3), X, y)),
    "lstm_train": ((2, 3), 1, lambda X, y: lstm_train(X, y, ONE_EPOCH)),
    "lstm_train_many": ((2, 3), 1, lambda X, y: lstm_train_many([X], [y], [ONE_EPOCH])),
    "mlp_loss_grad": ((6,), 1, lambda X, y: mlp_loss_grad(mlp_init(6, hidden=(4, 4)), X, y)),
    "mlp_train": ((6,), 1, lambda X, y: mlp_train(X, y, ONE_EPOCH, hidden=(4, 4))),
    "softmax_loss": ((6,), 0, lambda X, y: softmax_loss(SOFTMAX, X, y)),
    "softmax_loss_grad": ((6,), 0, lambda X, y: softmax_loss_grad(SOFTMAX, X, y)),
    "softmax_train": ((6,), 0, lambda X, y: softmax_train(X, y, 4)),
    "adaboost_train": ((6,), 1, lambda X, y: adaboost_train(X, y, n_estimators=2)),
    "ss_init": ((6,), 1, ss_init),
}

PREDICT = {
    "lstm_predict_proba": ((2, 3), lambda X: lstm_predict_proba(lstm_init(3), X)),
    "mlp_predict_proba": ((6,), lambda X: mlp_predict_proba(mlp_init(6, hidden=(4, 4)), X)),
    "softmax_predict_proba": ((6,), lambda X: softmax_predict_proba(SOFTMAX, X)),
    "gmm_assign": ((6,), lambda X: gmm_assign(GMM, X)),
    "gmm_log_likelihood": ((6,), lambda X: gmm_log_likelihood(GMM, X)),
    "adaboost_predict_many": ((6,), lambda X: adaboost_predict_many(ADABOOST, X)),
    "ss_classify_stream": ((6,), lambda X: ss_classify_stream(ss_init(*labeled_set((6,), 1)), X)),
    "nearest_neighbor (vector)": ((6,), lambda X: [nearest_neighbor(POOL, x) for x in X]),
}


def labeled_set(shape, first, n=5):
    X = np.random.default_rng(0).normal(size=(n, *shape))
    return X, first + np.arange(n) % 4


@pytest.mark.parametrize("name", LABELED)
def test_valid_set_accepted(name):
    shape, first, call = LABELED[name]
    call(*labeled_set(shape, first))


@pytest.mark.parametrize("name", LABELED)
@pytest.mark.parametrize("n_labels", [4, 6])
def test_label_count_names_both_counts(name, n_labels):
    shape, first, call = LABELED[name]
    X, _ = labeled_set(shape, first)
    with pytest.raises(ValueError, match=f"5 inputs but {n_labels} labels"):
        call(X, first + np.arange(n_labels) % 4)


@pytest.mark.parametrize("name", LABELED)
@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_non_finite_input(name, cell):
    shape, first, call = LABELED[name]
    X, y = labeled_set(shape, first)
    X.reshape(5, -1)[3, -1] = cell
    with pytest.raises(ValueError, match="non-finite"):
        call(X, y)


@pytest.mark.parametrize("name", LABELED)
@pytest.mark.parametrize("offset", [-1, 4])
def test_out_of_range_label(name, offset):
    shape, first, call = LABELED[name]
    X, y = labeled_set(shape, first)
    y[2] = first + offset
    with pytest.raises(ValueError, match=re.escape(f"labels must lie in {first}..{first + 3}")):
        call(X, y)


@pytest.mark.parametrize("name", LABELED)
@pytest.mark.parametrize("value", [1.5, np.nan, np.inf])
def test_fractional_label(name, value):
    shape, first, call = LABELED[name]
    X, y = labeled_set(shape, first)
    y = y.astype(np.float64)
    y[2] = first + value
    with pytest.raises(ValueError, match=re.escape(f"labels must be integers, got {first + value} at position 2")):
        call(X, y)


@pytest.mark.parametrize("name", LABELED)
def test_empty_set(name):
    shape, first, call = LABELED[name]
    with pytest.raises(ValueError, match="empty input set"):
        call(*labeled_set(shape, first, n=0))


@pytest.mark.parametrize("name", LABELED)
def test_wrong_input_shape(name):
    shape, first, call = LABELED[name]
    X, y = labeled_set(shape, first)
    with pytest.raises(ValueError, match="expected windows of shape"):
        call(X[..., None], y)


@pytest.mark.parametrize("name", PREDICT)
@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_predict_non_finite_input(name, cell):
    shape, call = PREDICT[name]
    X, _ = labeled_set(shape, 1)
    X.reshape(5, -1)[0, 0] = cell
    with pytest.raises(ValueError, match="non-finite"):
        call(X)


@pytest.mark.parametrize("name", PREDICT)
def test_predict_wrong_input_shape(name):
    shape, call = PREDICT[name]
    X, _ = labeled_set(shape, 1)
    with pytest.raises(ValueError, match=re.escape(f"expected windows of shape (n, {', '.join(map(str, shape))})")):
        call(X[:, :-1])


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_gmm_fit_non_finite_input(cell):
    X, _ = labeled_set((6,), 1)
    X[2, 3] = cell
    with pytest.raises(ValueError, match="non-finite values in input windows"):
        gmm_fit(X, k=2)


def test_gmm_fit_wrong_rank():
    X, _ = labeled_set((6,), 1)
    with pytest.raises(ValueError, match=re.escape("expected windows of shape (n, d), got (5, 6, 1)")):
        gmm_fit(X[..., None], k=2)
    with pytest.raises(ValueError, match=re.escape("expected windows of shape (n, d), got (6,)")):
        gmm_fit(X[0], k=1)


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_nearest_neighbor_non_finite_pool(cell):
    pool = POOL.copy()
    pool[1, 2] = cell
    with pytest.raises(ValueError, match="non-finite"):
        nearest_neighbor(pool, np.zeros(6))


def test_nearest_neighbor_vector_checked_against_pool_width():
    with pytest.raises(ValueError, match=re.escape("expected windows of shape (n, 5), got (1, 6)")):
        nearest_neighbor(POOL[:, :5], np.zeros(6))
    with pytest.raises(ValueError, match=re.escape("expected windows of shape (n, 6), got (1, 2, 6)")):
        nearest_neighbor(POOL, np.zeros((2, 6)))


def test_adaboost_rejects_matrix_narrower_than_its_stumps():
    # a wider matrix passes: the model stores no input width, only the
    # features its stumps read
    X, _ = labeled_set((7,), 1)
    assert adaboost_predict_many(ADABOOST, X).tolist() == adaboost_predict_many(ADABOOST, X[:, :6]).tolist()
    with pytest.raises(ValueError, match=re.escape("expected windows of shape (n, 6) or wider, got (5, 4)")):
        adaboost_predict_many(ADABOOST, X[:, :4])
