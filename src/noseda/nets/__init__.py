"""Hand-rolled differentiable models: LSTM, MLP, softmax regression."""

from .common import Adam, TrainConfig
from .gradcheck import grad_check, lstm_objective, mlp_objective, softmax_objective
from .lstm import (
    HIDDEN_DIM,
    LstmParams,
    lstm_init,
    lstm_loss_grad,
    lstm_predict,
    lstm_predict_proba,
    lstm_train,
)
from .mlp import (
    MlpParams,
    mlp_init,
    mlp_loss_grad,
    mlp_predict_labels,
    mlp_predict_proba,
    mlp_train,
)
from .softmax_regression import (
    SoftmaxRegressionParams,
    softmax_loss_grad,
    softmax_predict_proba,
    softmax_train,
)

__all__ = [
    "Adam",
    "TrainConfig",
    "HIDDEN_DIM",
    "LstmParams",
    "lstm_init",
    "lstm_loss_grad",
    "lstm_predict",
    "lstm_predict_proba",
    "lstm_train",
    "MlpParams",
    "mlp_init",
    "mlp_loss_grad",
    "mlp_predict_labels",
    "mlp_predict_proba",
    "mlp_train",
    "SoftmaxRegressionParams",
    "softmax_loss_grad",
    "softmax_predict_proba",
    "softmax_train",
    "grad_check",
    "lstm_objective",
    "mlp_objective",
    "softmax_objective",
]
