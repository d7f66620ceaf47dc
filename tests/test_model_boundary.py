"""Every public model entry that takes (X, labels) checks them at its boundary."""

import re

import numpy as np
import pytest

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
}

PREDICT = {
    "lstm_predict_proba": ((2, 3), lambda X: lstm_predict_proba(lstm_init(3), X)),
    "mlp_predict_proba": ((6,), lambda X: mlp_predict_proba(mlp_init(6, hidden=(4, 4)), X)),
    "softmax_predict_proba": ((6,), lambda X: softmax_predict_proba(SOFTMAX, X)),
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
