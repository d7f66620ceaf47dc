import ctypes
import tracemalloc

import numpy as np
import pytest

from noseda.nets import TrainConfig, mlp_train
from noseda.nets.common import Adam, dropout_mask, minibatch_indices, softmax
from noseda.nets.mlp import (
    PREDICT_BLOCK,
    MlpParams,
    _forward,
    mlp_init,
    mlp_loss_grad,
    mlp_predict_labels,
    mlp_predict_proba,
)


def xor_set(rng, n=200):
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] * X[:, 1] > 0, 1, 2)
    return X, y


class TestForward:
    def test_zero_init_head_gives_uniform(self):
        params = mlp_init(3, hidden=(8, 8), seed=0)
        out = mlp_predict_proba(params, np.array([[0.3, -1.0, 2.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_predict_sums_to_one(self, rng):
        params = mlp_init(4, hidden=(16, 16), seed=1)
        probs = mlp_predict_proba(params, rng.normal(size=(20, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            MlpParams(
                w1=np.zeros((3, 8)), b1=np.zeros(8),
                w2=np.zeros((9, 8)), b2=np.zeros(8),
                w3=np.zeros((8, 4)), b3=np.zeros(4),
            )


def random_mlp(rng, input_dim=12):
    """Default hidden sizes with every array random, the head and biases included."""
    return MlpParams(*(rng.normal(size=a.shape) for a in mlp_init(input_dim, seed=0).arrays()))


# (getter, setter) of the OpenBLAS thread count, by the symbol names of
# numpy's bundled 64-bit build, a 64-bit build and a plain build
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@pytest.fixture
def one_blas_thread():
    """Run the test with numpy's OpenBLAS on one thread and restore its count
    afterwards.  Where numpy's BLAS is not OpenBLAS, do nothing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                before = get()
                set_(ctypes.c_int(1))
                try:
                    yield
                finally:
                    set_(ctypes.c_int(before))
                return
    yield


class TestBlockedPredict:
    B = PREDICT_BLOCK

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1])
    def test_equals_one_forward_bit_for_bit(self, rng, n, one_blas_thread):
        # mlp_predict_proba promises the one-shot forward's bits for one BLAS
        # thread only: with more, a kernel may split the rows differently
        params = random_mlp(rng)
        X = rng.normal(size=(n, 12))
        expected = softmax(_forward(params, X)[0])
        assert np.array_equal(mlp_predict_proba(params, X).view(np.int64), expected.view(np.int64))

    def test_empty_input(self):
        assert mlp_predict_proba(mlp_init(3, seed=0), np.zeros((0, 3))).shape == (0, 4)

    def test_holds_one_hidden_layer(self, rng):
        # the one-shot forward kept both (n, 256) layers alive: 2x one of them
        params = random_mlp(rng)
        X = rng.normal(size=(4096, 12))
        tracemalloc.start()
        try:
            mlp_predict_proba(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer = X.shape[0] * 256 * 8
        assert peak <= 1.3 * layer, f"peak {peak / layer:.2f}x one hidden layer"


class TestTrain:
    def test_xor_pattern(self, rng):
        X, y = xor_set(rng)
        cfg = TrainConfig(epochs=100, dropout=0.2, learning_rate=0.01, batch_size=32, seed=0)
        params = mlp_train(X, y, cfg)
        assert (mlp_predict_labels(params, X) == y).mean() >= 0.95

    def test_deterministic(self, rng):
        X, y = xor_set(rng, n=60)
        cfg = TrainConfig(epochs=5, dropout=0.2, learning_rate=0.01, batch_size=16, seed=3)
        _, t1 = mlp_train(X, y, cfg, hidden=(32, 32), return_trace=True)
        _, t2 = mlp_train(X, y, cfg, hidden=(32, 32), return_trace=True)
        assert t1 == t2

    def test_default_hidden_sizes(self, rng):
        X, y = xor_set(rng, n=40)
        cfg = TrainConfig(epochs=2, dropout=0.2, learning_rate=0.01, batch_size=16, seed=0)
        params = mlp_train(X, y, cfg)
        assert params.b1.shape == (256,)
        assert params.b2.shape == (256,)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mlp_train(np.zeros((0, 3)), np.zeros(0), TrainConfig())

    @pytest.mark.parametrize("n_labels", [10, 12])
    def test_label_count_must_match_inputs(self, rng, n_labels):
        X = rng.normal(size=(11, 3))
        y = rng.integers(1, 5, size=n_labels)
        with pytest.raises(ValueError, match=f"11 inputs but {n_labels} labels"):
            mlp_train(X, y, TrainConfig(epochs=1))

    def test_non_finite_input_rejected_before_training(self, rng):
        X = rng.normal(size=(40, 3))
        X[39, 2] = np.nan  # in the last minibatch of the first epoch
        with pytest.raises(ValueError, match="non-finite"):
            mlp_train(X, rng.integers(1, 5, size=40), TrainConfig(epochs=1, batch_size=8))


def reference_train(X, y, config, hidden):
    """Reference trainer: the six parameter arrays stepped one minibatch at a
    time through the public gradient and Adam; the loop the flat-buffer
    trainer must reproduce."""
    rng = np.random.default_rng(config.seed)
    params = mlp_init(X.shape[1], hidden=hidden, seed=int(rng.integers(2**63)))
    arrays = params.arrays()
    opt = Adam(arrays, lr=config.learning_rate)
    trace = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in minibatch_indices(len(y), config.batch_size, rng):
            drop1 = dropout_mask(rng, (len(idx), hidden[0]), config.dropout)
            drop2 = dropout_mask(rng, (len(idx), hidden[1]), config.dropout)
            loss, grads = mlp_loss_grad(params, X[idx], y[idx], drop1, drop2)
            opt.step(arrays, grads)
            total += loss * len(idx)
        trace.append(total / len(y))
    return params, trace


class TestTrainMatchesReference:
    # 37 windows in batches of 16: the last batch of every epoch is short
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_bit_identical(self, rng, dropout):
        X = rng.normal(size=(37, 6))
        y = rng.integers(1, 5, size=37)
        cfg = TrainConfig(epochs=4, dropout=dropout, learning_rate=0.01, batch_size=16, seed=11)
        params, trace = mlp_train(X, y, cfg, hidden=(24, 20), return_trace=True)
        ref_params, ref_trace = reference_train(X, y, cfg, hidden=(24, 20))
        assert trace == ref_trace
        for a, b in zip(params.arrays(), ref_params.arrays()):
            assert np.array_equal(a, b)

    def test_returned_params_own_their_arrays(self, rng):
        X, y = xor_set(rng, n=20)
        params = mlp_train(X, y, TrainConfig(epochs=1, batch_size=8), hidden=(4, 4))
        for a in params.arrays():
            assert a.base is None
