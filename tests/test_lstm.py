import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noseda.nets import Adam, TrainConfig, lstm_predict, lstm_predict_proba, lstm_train
from noseda.nets.common import dropout_mask, log_softmax, minibatch_indices
from noseda.nets.lstm import HIDDEN_DIM, LstmParams, lstm_init, lstm_loss_grad, lstm_train_many, _forward
from noseda.serialize import from_json, to_json


def constant_params(d=1, h=4, c=4, value=0.5):
    return LstmParams(
        wx=np.full((d, 4 * h), value),
        wh=np.full((h, 4 * h), value),
        b=np.full(4 * h, value),
        w_out=np.full((h, c), value),
        b_out=np.full(c, value),
    )


def separable_windows(rng, n=200, d=3, gap=6.0):
    labels = rng.integers(1, 5, size=n)
    X = rng.normal(size=(n, 2, d))
    X[:, :, 0] += gap * (labels[:, None] - 1)
    return X, labels


class TestForward:
    def test_zero_weights_zero_input_uniform(self):
        params = LstmParams(
            wx=np.zeros((2, 16)), wh=np.zeros((4, 16)), b=np.zeros(16),
            w_out=np.zeros((4, 4)), b_out=np.zeros(4),
        )
        probs = lstm_predict_proba(params, np.zeros((1, 2, 2)))
        assert probs.tolist() == [[0.25, 0.25, 0.25, 0.25]]

    def test_probabilities_sum_to_one(self):
        for seed in range(100):
            r = np.random.default_rng(seed)
            params = LstmParams(
                wx=r.normal(size=(3, 16)), wh=r.normal(size=(4, 16)), b=r.normal(size=16),
                w_out=r.normal(size=(4, 4)), b_out=r.normal(size=4),
            )
            probs = lstm_predict_proba(params, r.normal(size=(5, 2, 3)))
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
            assert np.all(probs >= 0)

    def test_hand_unrolled_scalar_recurrence(self):
        # d=1, every weight 0.5: all four cells behave identically, so the
        # recurrence collapses to scalars (the recurrent sum spans 4 equal units)
        params = constant_params()
        x1, x2 = 0.7, -1.3

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        h_s, c_s = 0.0, 0.0
        for x in (x1, x2):
            z = 0.5 * x + 0.5 * (4 * h_s) + 0.5
            i = f = o = sig(z)
            g = math.tanh(z)
            c_s = f * c_s + i * g
            h_s = o * math.tanh(c_s)

        X = np.array([[[x1], [x2]]])
        cache = {}
        probs = _forward(params, X, cache=cache)
        assert np.abs(cache["h_last"][0] - h_s).max() < 1e-12
        assert np.abs(cache["steps"][1]["c"][0] - c_s).max() < 1e-12
        # equal head weights make the logits identical, hence uniform output
        assert np.allclose(probs[0], 0.25, atol=1e-12)

    def test_shape_mismatch(self):
        params = lstm_init(3, seed=0)
        for X in (np.zeros((1, 3, 3)), np.zeros((2, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match="expected windows of shape"):
                lstm_predict_proba(params, X)

    def test_non_finite_input(self):
        params = lstm_init(2, seed=0)
        X = np.zeros((3, 2, 2))
        X[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lstm_predict_proba(params, X)

    def test_dropout_mask_applied_at_head_only(self):
        params = constant_params(d=2, value=0.3)
        params = LstmParams(
            wx=params.wx, wh=params.wh, b=params.b,
            w_out=np.arange(16.0).reshape(4, 4), b_out=np.zeros(4),
        )
        X = np.ones((1, 2, 2))
        full = lstm_predict_proba(params, X)
        assert np.array_equal(full, _forward(params, X))
        masked = _forward(params, X, np.zeros((1, 4)))
        # zero mask kills the hidden state: logits fall back to the (zero) bias
        assert np.allclose(masked, 0.25, atol=1e-12)
        assert not np.allclose(full, masked)

    @pytest.mark.parametrize("M", [None, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_inference_equals_the_training_forward_bit_for_bit(self, rng, M, dropout):
        # without a cache the forward keeps no timestep's arrays, and its
        # probabilities are still the training forward's, for a lone network
        # and for a stack on a leading model axis
        lead = () if M is None else (M,)
        d, B = 3, 50
        params = LstmParams(
            wx=rng.normal(size=lead + (d, 16)), wh=rng.normal(size=lead + (4, 16)), b=rng.normal(size=lead + (16,)),
            w_out=rng.normal(size=lead + (4, 4)), b_out=rng.normal(size=lead + (4,)),
        )
        X = rng.normal(size=lead + (B, 2, d))
        drop = dropout_mask(rng, lead + (B, 4), 0.3) if dropout else None
        cache = {}
        trained = _forward(params, X, drop, cache)
        inferred = _forward(params, X, drop)
        assert cache["steps"] and same_bits(inferred, trained)
        if M is None and not dropout:
            assert same_bits(lstm_predict_proba(params, X), trained)

    def test_inference_peak_memory(self, rng):
        # 2000 windows, d=6: 1332 KB with every timestep's activations kept
        # for BPTT, 689 KB without them
        d, B = 6, 2000
        params = replace(lstm_init(d, seed=1), w_out=rng.normal(size=(4, 4)))
        X = rng.normal(size=(B, 2, d))
        lstm_predict_proba(params, X)
        tracemalloc.start()
        try:
            lstm_predict_proba(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 8 * B, f"peak {peak / 1024:.0f} KB"


class TestTrain:
    def test_separable_data_reaches_95(self, rng):
        X, y = separable_windows(rng)
        cfg = TrainConfig(epochs=100, dropout=0.2, learning_rate=0.01, batch_size=32, seed=0)
        params = lstm_train(X, y, cfg)
        assert (lstm_predict(params, X) == y).mean() >= 0.95

    def test_single_sample_memorized(self):
        X = np.array([[[0.3, -0.2], [0.5, 0.1]]])
        y = np.array([3])
        cfg = TrainConfig(epochs=100, dropout=0.0, learning_rate=0.1, batch_size=1, seed=0)
        params, trace = lstm_train(X, y, cfg, return_trace=True)
        assert trace[-1] < 0.01

    def test_same_seed_identical_trace(self, rng):
        X, y = separable_windows(rng, n=60)
        cfg = TrainConfig(epochs=10, dropout=0.2, learning_rate=0.01, batch_size=16, seed=4)
        _, t1 = lstm_train(X, y, cfg, return_trace=True)
        _, t2 = lstm_train(X, y, cfg, return_trace=True)
        assert t1 == t2

    def test_no_dropout_reproducible_params(self, rng):
        X, y = separable_windows(rng, n=40)
        cfg = TrainConfig(epochs=5, dropout=0.0, learning_rate=0.01, batch_size=8, seed=9)
        p1 = lstm_train(X, y, cfg)
        p2 = lstm_train(X, y, cfg)
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            lstm_train(np.zeros((0, 2, 3)), np.zeros(0), TrainConfig())

    def test_bad_labels_rejected(self, rng):
        X = rng.normal(size=(4, 2, 2))
        with pytest.raises(ValueError):
            lstm_train(X, np.array([1, 2, 3, 5]), TrainConfig())

    def test_loss_decreases(self, rng):
        X, y = separable_windows(rng, n=120)
        cfg = TrainConfig(epochs=30, dropout=0.0, learning_rate=0.01, batch_size=32, seed=1)
        params, trace = lstm_train(X, y, cfg, return_trace=True)
        assert trace[-1] < trace[0]
        assert lstm_loss_grad(params, X, y)[0] < trace[0]


def textbook_loss_grad(params, X, labels, drop):
    """Reference forward pass and BPTT of one network, written out from the
    zero initial state with zero-initialized gradient sums: the arithmetic
    the trainer must reproduce bit for bit."""
    B, h = len(X), params.hidden_dim
    y = np.asarray(labels) - 1
    hs = np.zeros((B, h))
    cs = np.zeros_like(hs)
    steps = []
    for t in range(2):
        x = X[:, t, :]
        z = x @ params.wx + hs @ params.wh + params.b
        ifo = 1.0 / (1.0 + np.exp(-z[:, : 3 * h]))
        i, f, o = ifo[:, :h], ifo[:, h : 2 * h], ifo[:, 2 * h :]
        g = np.tanh(z[:, 3 * h :])
        c = f * cs + i * g
        hc = np.tanh(c)
        steps.append({"x": x, "h_prev": hs, "c_prev": cs, "i": i, "f": f, "o": o, "g": g, "hc": hc})
        hs, cs = o * hc, c
    h_final = hs if drop is None else hs * drop
    logits = h_final @ params.w_out + params.b_out
    zm = logits - logits.max(axis=1, keepdims=True)
    log_probs = zm - np.log(np.exp(zm).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(B), y].sum() / B

    dlogits = (np.exp(log_probs) - np.eye(params.n_classes)[y]) / B
    d_w_out = h_final.T @ dlogits
    d_b_out = dlogits.sum(axis=0)
    dh = dlogits @ params.w_out.T
    if drop is not None:
        dh = dh * drop
    d_wx = np.zeros_like(params.wx)
    d_wh = np.zeros_like(params.wh)
    d_b = np.zeros_like(params.b)
    dc_next = np.zeros((B, h))
    for t in (1, 0):
        s = steps[t]
        do = dh * s["hc"]
        dc = dh * s["o"] * (1.0 - s["hc"] ** 2) + dc_next
        dz = np.concatenate(
            [
                dc * s["g"] * s["i"] * (1.0 - s["i"]),
                dc * s["c_prev"] * s["f"] * (1.0 - s["f"]),
                do * s["o"] * (1.0 - s["o"]),
                dc * s["i"] * (1.0 - s["g"] ** 2),
            ],
            axis=1,
        )
        d_wx += s["x"].T @ dz
        d_wh += s["h_prev"].T @ dz
        d_b += dz.sum(axis=0)
        dh = dz @ params.wh.T
        dc_next = dc * s["f"]
    return float(loss), (d_wx, d_wh, d_b, d_w_out, d_b_out)


def sequential_train(X, y, config):
    """Reference trainer: one network, one minibatch at a time, through the
    textbook gradient and ``Adam.step``; the loop the lockstep trainer must
    reproduce."""
    rng = np.random.default_rng(config.seed)
    params = lstm_init(X.shape[2], seed=int(rng.integers(2**63)))
    arrays = params.arrays()
    opt = Adam(arrays, lr=config.learning_rate)
    trace = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in minibatch_indices(len(y), config.batch_size, rng):
            drop = dropout_mask(rng, (len(idx), params.hidden_dim), config.dropout)
            loss, grads = textbook_loss_grad(params, X[idx], y[idx], drop)
            opt.step(arrays, grads)
            total += loss * len(idx)
        trace.append(total / len(y))
    return params, trace


def same_bits(a, b):
    """Equal values and equal sign bits (``array_equal`` takes -0.0 == 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestLossGrad:
    @pytest.mark.parametrize("head", ["zero", "random"])
    @pytest.mark.parametrize("B", [1, 5, 32])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_matches_textbook_bits(self, rng, head, B, dropout):
        # the zero head of a fresh network makes every LSTM gradient a
        # signed zero, so the sign bits are checked as well as the values
        for seed in range(5):
            params = lstm_init(3, seed=seed)
            if head == "random":
                params = replace(params, b=0.3 * rng.normal(size=16), w_out=rng.normal(size=(4, 4)))
            X, y = separable_windows(rng, n=B)
            drop = dropout_mask(rng, (B, params.hidden_dim), dropout)
            loss, grads = lstm_loss_grad(params, X, y, drop)
            ref_loss, ref_grads = textbook_loss_grad(params, X, y, drop)
            assert loss == ref_loss
            for g, r in zip(grads, ref_grads):
                assert g.shape == r.shape and same_bits(g, r)


class TestLoss:
    def test_equals_mean_log_probability_of_logits_bits(self, rng):
        # the loss reads the forward pass's log-probabilities; the reference
        # takes them afresh from its logits
        for seed in range(5):
            params = replace(lstm_init(3, seed=seed), b=0.3 * rng.normal(size=16), w_out=rng.normal(size=(4, 4)))
            X, y = separable_windows(rng, n=int(rng.integers(1, 40)))
            cache = {}
            _forward(params, X, cache=cache)
            log_probs = log_softmax(cache["logits"])
            assert lstm_loss_grad(params, X, y)[0] == float(-log_probs[np.arange(len(y)), y - 1].mean())


class TestTrainMany:
    # batch 16: smaller than one batch, one exact batch, an exact multiple,
    # and a partial last batch, so the models drop out of the lockstep at
    # different steps and with different last-batch lengths
    SIZES = (5, 16, 48, 37, 21)

    def datasets(self, rng, d=3):
        return [separable_windows(rng, n=n, d=d) for n in self.SIZES]

    @staticmethod
    def joined(data):
        """The datasets as one window array and one index set each."""
        ends = np.cumsum([len(y) for _, y in data])
        sets = [np.arange(end - len(y), end) for (_, y), end in zip(data, ends)]
        return np.concatenate([X for X, _ in data]), np.concatenate([y for _, y in data]), sets

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_matches_sequential_reference(self, rng, dropout):
        data = self.datasets(rng)
        config = TrainConfig(epochs=4, dropout=dropout, learning_rate=0.02, batch_size=16, seed=99)
        seeds = [7, 1, 4, 1, 0]
        params, traces = lstm_train_many(*self.joined(data), config, seeds)
        assert len(params) == len(traces) == len(data)
        for (X, y), seed, p, trace in zip(data, seeds, params, traces):
            cfg = replace(config, seed=seed)
            ref, ref_trace = sequential_train(X, y, cfg)
            single, single_trace = lstm_train(X, y, cfg, return_trace=True)
            for a, b, c in zip(p.arrays(), ref.arrays(), single.arrays()):
                assert same_bits(a, b)
                assert same_bits(a, c)
            assert np.array_equal(trace, ref_trace)
            assert trace == single_trace

    def test_input_order_does_not_matter(self, rng):
        X, y, sets = self.joined(self.datasets(rng))
        config, seeds = TrainConfig(epochs=2, dropout=0.2, batch_size=16), list(range(len(sets)))
        forward, _ = lstm_train_many(X, y, sets, config, seeds)
        backward, _ = lstm_train_many(X, y, sets[::-1], config, seeds[::-1])
        for p, q in zip(forward, backward[::-1]):
            for a, b in zip(p.arrays(), q.arrays()):
                assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        sets=st.lists(st.lists(st.integers(0, 19), min_size=1, max_size=13), min_size=1, max_size=5),
        batch_size=st.integers(2, 6),
        dropout=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32),
    )
    # batch 4: sizes 1, B - 1, B, B + 1 and a partial last batch, unsorted, with repeats
    @example(
        sets=[[3], [5, 5, 1], [7, 2, 9, 0], [19, 4, 4, 11, 6], [8, 8, 8, 0, 13, 2, 17, 5, 5, 12]],
        batch_size=4, dropout=0.3, seed=0,
    )
    def test_each_network_trains_on_its_index_set(self, sets, batch_size, dropout, seed):
        X, y = separable_windows(np.random.default_rng(seed), n=20)
        sets = [np.array(idx) for idx in sets]
        config = TrainConfig(epochs=2, dropout=dropout, learning_rate=0.05, batch_size=batch_size)
        seeds = [seed + j for j in range(len(sets))]
        params, traces = lstm_train_many(X, y, sets, config, seeds)
        for idx, s, p, trace in zip(sets, seeds, params, traces):
            single, single_trace = lstm_train(X[idx], y[idx], replace(config, seed=s), return_trace=True)
            for a, b in zip(p.arrays(), single.arrays()):
                assert same_bits(a, b)
            assert trace == single_trace

    def test_windows_are_not_copied_per_network(self, rng):
        # 10 networks of ~1000 windows each from one 2000-window array: the
        # trainer's peak stays below one copy of those networks' windows plus
        # their dropout buffer, which per-network copies alone would exceed
        d = 6
        X, y = separable_windows(rng, n=2000, d=d)
        sets = [rng.choice(2000, size=int(rng.integers(900, 1100)), replace=False) for _ in range(10)]
        config = TrainConfig(epochs=2, dropout=0.2, batch_size=32)
        tracemalloc.start()
        try:
            lstm_train_many(X, y, sets, config, list(range(len(sets))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        windows = sum(len(idx) for idx in sets) * 2 * d * 8
        dropout = len(sets) * max(len(idx) for idx in sets) * HIDDEN_DIM * 8
        assert peak < windows + dropout, f"peak {peak / 1e6:.2f} MB"

    def test_dropout_flags_take_a_byte_each(self, rng):
        # a 10-network stack of ~1000 windows each: the epoch's dropout draws
        # are kept as bool flags next to one network's float draws, so dropout
        # adds ~90 KB to the peak where float64 masks added ~340 KB (each
        # dropout's second, warmed-up run counts)
        X, y = separable_windows(rng, n=2000, d=6)
        sets = [rng.choice(2000, size=int(rng.integers(900, 1100)), replace=False) for _ in range(10)]
        peaks = {}
        for dropout in (0.0, 0.2, 0.0, 0.2):
            tracemalloc.start()
            try:
                lstm_train_many(X, y, sets, TrainConfig(epochs=1, dropout=dropout), list(range(len(sets))))
                peaks[dropout] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        float_masks = len(sets) * max(len(idx) for idx in sets) * HIDDEN_DIM * 8
        assert peaks[0.2] - peaks[0.0] < float_masks / 2, f"peaks {peaks}, float64 masks {float_masks} bytes"

    def test_one_dataset_per_config(self, rng):
        # one seed per index set
        X, y = separable_windows(rng, n=20)
        rows = np.arange(20)
        with pytest.raises(ValueError, match="need one seed per index set, got 2 sets, 1 seeds"):
            lstm_train_many(X, y, [rows, rows], TrainConfig(epochs=1), [0])
        with pytest.raises(ValueError, match="need one seed per index set, got 0 sets, 0 seeds"):
            lstm_train_many(X, y, [], TrainConfig(epochs=1), [])

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "3", None])
    def test_bad_seed_rejected(self, rng, seed):
        X, y = separable_windows(rng, n=20)
        rows = np.arange(20)
        with pytest.raises(ValueError, match=re.escape(f"seed 1 must be a non-negative integer, got {seed!r}")):
            lstm_train_many(X, y, [rows, rows], TrainConfig(epochs=1), [np.uint64(2**64 - 1), seed])

    def test_bad_member_rejected(self, rng):
        X, y = separable_windows(rng, n=20)
        rows = np.arange(20)
        config, seeds = TrainConfig(epochs=1), [0, 0]
        with pytest.raises(ValueError, match="empty"):
            lstm_train_many(X, y, [rows, rows[:0]], config, seeds)
        with pytest.raises(ValueError, match="labels"):
            lstm_train_many(X, y[:-1], [rows, rows], config, seeds)
        bad = X.copy()
        bad[3, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            lstm_train_many(bad, y, [rows, rows[5:]], config, seeds)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for lr in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestSerialization:
    def test_round_trip(self, rng):
        X, y = separable_windows(rng, n=30)
        cfg = TrainConfig(epochs=3, dropout=0.0, learning_rate=0.01, batch_size=8, seed=2)
        params = lstm_train(X, y, cfg)
        clone = from_json(LstmParams, to_json(params))
        assert np.array_equal(lstm_predict_proba(clone, X), lstm_predict_proba(params, X))
