import json
import logging
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import noseda.pipeline as pipeline_mod
from noseda.gmm import GmmParams, gmm_assign, gmm_fit
from noseda.ingest import StandardizationStats, WindowSample, as_window_set, flatten_windows, stack_windows
from noseda.nets import TrainConfig, lstm_train
from noseda.nets.lstm import LstmParams, lstm_predict, lstm_predict_proba
from noseda.nets.softmax_regression import SoftmaxRegressionParams, softmax_predict_proba
from noseda.pipeline import (
    ClusterExpert,
    HierarchicalModel,
    SelectionReport,
    adapt_experts,
    fit,
    fit_gate,
    fit_selected,
    load_model,
    model_to_json_bytes,
    predict_batch,
    route_few_shot,
    save_model,
    stage_seed,
)

from conftest import window, windows_from_arrays

FAST = TrainConfig(epochs=8, dropout=0.1, learning_rate=0.02, batch_size=16, seed=0)


def bias_expert(probs, cluster_id=0, hist=(1, 1, 1, 1), d=2):
    """Expert whose output is a constant distribution: zero gates leave h = 0,
    so the logits equal b_out regardless of the input window."""
    probs = np.asarray(probs, dtype=np.float64)
    params = LstmParams(
        wx=np.zeros((d, 16)), wh=np.zeros((4, 16)), b=np.zeros(16),
        w_out=np.zeros((4, 4)), b_out=np.log(probs),
    )
    return ClusterExpert(
        cluster_id=cluster_id, expert_before=params, expert_after=params,
        source_label_histogram=np.asarray(hist, dtype=np.int64),
    )


def exact_expert(label, cluster_id=0, hist=(1, 1, 1, 1), d=2):
    """Expert that outputs probability exactly 1.0 for one label."""
    b_out = np.full(4, -1e3)
    b_out[label - 1] = 0.0
    params = LstmParams(
        wx=np.zeros((d, 16)), wh=np.zeros((4, 16)), b=np.zeros(16),
        w_out=np.zeros((4, 4)), b_out=b_out,
    )
    return ClusterExpert(
        cluster_id=cluster_id, expert_before=params, expert_after=params,
        source_label_histogram=np.asarray(hist, dtype=np.int64),
    )


def two_cluster_windows(rng, n_per=60):
    """Cluster 0 near 0 with labels {1, 2}; cluster 1 near +20 with labels {3, 4}."""
    ws = []
    for i in range(n_per):
        label = 1 + (i % 2)
        ws.append(window(rng.normal(0.0, 1.0, size=(2, 2)) + label, label, t=i))
    for i in range(n_per):
        label = 3 + (i % 2)
        ws.append(window(rng.normal(20.0, 1.0, size=(2, 2)) + label, label, t=i))
    return ws


class TestFitSource:
    """The source stages of ``fit``: one expert per GMM cluster, trained on
    that cluster's windows, with the cluster's label histogram."""

    def test_histograms_concentrate_on_cluster_labels(self, rng):
        ws = two_cluster_windows(rng)
        experts = fit(ws, ws[::10], k=2, config=FAST).experts
        assert len(experts) == 2
        hists = sorted((e.source_label_histogram.tolist() for e in experts), key=lambda h: h[0], reverse=True)
        # one expert holds all the {1,2} windows, the other all the {3,4}
        assert hists[0][:2] == [30, 30] and hists[0][2:] == [0, 0]
        assert hists[1][:2] == [0, 0] and hists[1][2:] == [30, 30]

    def test_expert_count_equals_k(self, rng):
        ws = two_cluster_windows(rng, n_per=20)
        for k in (1, 2, 3):
            experts = fit(ws, ws[::5], k=k, config=FAST).experts
            assert len(experts) == k
            assert [e.cluster_id for e in experts] == list(range(k))

    def test_k_one_is_plain_lstm(self, rng):
        ws = two_cluster_windows(rng, n_per=10)
        experts = fit(ws, ws[::5], k=1, config=FAST).experts
        X, y = stack_windows(ws)
        plain = lstm_train(X, y, replace(FAST, seed=stage_seed(FAST.seed, "expert", 0)))
        for a, b in zip(experts[0].expert_before.arrays(), plain.arrays()):
            assert np.array_equal(a, b)

    def test_empty_cluster_is_an_error(self, rng, monkeypatch):
        ws = two_cluster_windows(rng, n_per=5)
        # everything lands in cluster 0
        monkeypatch.setattr(pipeline_mod, "gmm_assign", lambda params, flats: np.zeros(len(flats), dtype=int))
        with pytest.raises(ValueError, match="cluster 1"):
            fit(ws, ws[::3], k=2, config=FAST)

    def test_fewer_source_windows_than_k_is_an_error(self, rng):
        ws = two_cluster_windows(rng, n_per=1)  # 2 windows
        with pytest.raises(ValueError, match="need at least k=3 points, got 2"):
            fit(ws, ws, k=3, config=FAST)

    def test_histogram_total_equals_cluster_size(self, rng):
        ws = two_cluster_windows(rng)
        experts = fit(ws, ws[::10], k=2, config=FAST).experts
        assert sum(int(e.source_label_histogram.sum()) for e in experts) == len(ws)


class TestRouting:
    def test_dominant_probability_wins(self):
        experts = [
            bias_expert([0.9, 0.04, 0.03, 0.03], 0),
            bias_expert([0.2, 0.5, 0.2, 0.1], 1),
        ]
        shots = [window(np.zeros((2, 2)), 1)]
        assert route_few_shot(experts, shots) == (0,)

    def test_frequency_fallback(self):
        # both experts rank label 1 last; histograms decide
        experts = [
            bias_expert([0.05, 0.4, 0.3, 0.25], 0, hist=(30, 0, 0, 0)),
            bias_expert([0.04, 0.3, 0.36, 0.3], 1, hist=(5, 0, 0, 0)),
        ]
        shots = [window(np.zeros((2, 2)), 1)]
        assert route_few_shot(experts, shots) == (0,)

    def test_fallback_tie_to_lower_cluster(self):
        experts = [
            bias_expert([0.05, 0.95 / 3, 0.95 / 3, 0.95 / 3], 0, hist=(7, 0, 0, 0)),
            bias_expert([0.04, 0.32, 0.32, 0.32], 1, hist=(7, 0, 0, 0)),
        ]
        shots = [window(np.zeros((2, 2)), 1)]
        assert route_few_shot(experts, shots) == (0,)

    def test_probability_tie_to_lower_cluster(self):
        probs = [0.4, 0.3, 0.2, 0.1]
        experts = [bias_expert(probs, 0), bias_expert(probs, 1)]
        shots = [window(np.zeros((2, 2)), 1)]
        assert route_few_shot(experts, shots) == (0,)

    def test_sixteen_shots_match_exhaustive_evaluation(self, rng):
        k = 3
        experts = []
        for c in range(k):
            p = rng.dirichlet(np.ones(4))
            experts.append(bias_expert(p, c, hist=tuple(rng.integers(0, 50, size=4))))
        shots = [window(rng.normal(size=(2, 2)), int(rng.integers(1, 5))) for _ in range(16)]

        got = route_few_shot(experts, shots)

        const_probs = [np.exp(e.expert_before.b_out) / np.exp(e.expert_before.b_out).sum() for e in experts]
        for j, shot in enumerate(shots):
            y = shot.y - 1
            p_true = [p[y] for p in const_probs]
            anyone_correct = any(int(np.argmax(p)) == y for p in const_probs)
            if anyone_correct:
                expected = int(np.argmax(p_true))
            else:
                counts = [e.source_label_histogram[y] for e in experts]
                expected = int(np.argmax(counts))
            assert got[j] == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ties_go_to_the_lower_cluster(self, data):
        # few distinct distributions and small histograms, so that experts
        # tie on a shot's probability, on its argmax and on its count
        k = data.draw(st.integers(1, 4), label="k")
        weight_sets = data.draw(st.lists(st.tuples(*[st.sampled_from([1.0, 2.0, 3.0])] * 4), min_size=1, max_size=3))
        experts = [
            bias_expert(
                data.draw(st.sampled_from(weight_sets)), c, hist=data.draw(st.tuples(*[st.integers(0, 2)] * 4))
            )
            for c in range(k)
        ]
        labels = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=8), label="labels")
        shots = [window(np.full((2, 2), float(j)), y) for j, y in enumerate(labels)]

        got = route_few_shot(experts, shots)

        for shot, cluster in zip(shots, got):
            y = shot.y - 1
            probs = [lstm_predict_proba(e.expert_before, shot.x[None])[0] for e in experts]
            if any(int(np.argmax(p)) == y for p in probs):
                scores = [p[y] for p in probs]
            else:
                scores = [int(e.source_label_histogram[y]) for e in experts]
            assert cluster == min(c for c in range(k) if scores[c] == max(scores))

    def test_every_shot_gets_exactly_one_cluster(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            experts = [bias_expert(r.dirichlet(np.ones(4)), c, hist=tuple(r.integers(0, 9, 4))) for c in range(2)]
            shots = [window(r.normal(size=(2, 2)), int(r.integers(1, 5))) for _ in range(8)]
            got = route_few_shot(experts, shots)
            assert len(got) == 8
            assert all(c in (0, 1) for c in got)


class TestAdaptation:
    def test_training_set_sizes(self, rng, monkeypatch):
        seen = []
        real = pipeline_mod.lstm_train_many

        def spy(X, y, index_sets, config, seeds):
            seen.extend(len(idx) for idx in index_sets)
            return real(X, y, index_sets, config, seeds)

        monkeypatch.setattr(pipeline_mod, "lstm_train_many", spy)
        source = [window(rng.normal(size=(2, 2)), 1 + i % 4) for i in range(100)]
        shots = [window(rng.normal(size=(2, 2)), 1 + i % 4) for i in range(4)]
        experts = [bias_expert([0.25] * 4, 0, hist=(25, 25, 25, 25))]
        adapt_experts(experts, [source], shots, [0, 0, 0, 0], FAST)
        assert seen == [104]

    def test_no_shots_matches_source_training(self, rng):
        source = [window(rng.normal(size=(2, 2)), 1 + i % 4) for i in range(24)]
        experts = [bias_expert([0.25] * 4, 0)]
        adapted = adapt_experts(experts, [source], [], [], FAST)
        X, y = stack_windows(source)
        direct = lstm_train(X, y, replace(FAST, seed=stage_seed(FAST.seed, "adapt", 0)))
        for a, b in zip(adapted[0].expert_after.arrays(), direct.arrays()):
            assert np.array_equal(a, b)
        # pre-adaptation experts are retained untouched
        assert adapted[0].expert_before is experts[0].expert_before

    def test_adapted_training_loss_decreases(self, rng):
        source = [window(rng.normal(size=(2, 2)) + (1 + i % 4) * 3, 1 + i % 4, t=i) for i in range(100)]
        shots = [window(rng.normal(size=(2, 2)) + (1 + i % 4) * 3, 1 + i % 4) for i in range(4)]
        cfg = TrainConfig(epochs=100, dropout=0.2, learning_rate=0.01, batch_size=32, seed=3)
        X, y = stack_windows(source + shots)
        _, trace = lstm_train(X, y, replace(cfg, seed=stage_seed(cfg.seed, "adapt", 0)), return_trace=True)
        assert trace[-1] < trace[0]

    def test_stage_calls_accept_window_sets(self, rng):
        source = two_cluster_windows(rng, n_per=12)
        shots = source[::6]
        experts = fit(source, shots, k=2, config=FAST).experts
        routed = route_few_shot(experts, shots)
        assert route_few_shot(experts, as_window_set(shots)) == routed
        gate, set_gate = fit_gate(shots, routed, 2), fit_gate(as_window_set(shots), routed, 2)
        assert model_to_json_bytes(set_gate) == model_to_json_bytes(gate)
        by_cluster = [source[:12], source[12:]]
        adapted = adapt_experts(experts, by_cluster, shots, routed, FAST)
        set_adapted = adapt_experts(experts, [as_window_set(w) for w in by_cluster], as_window_set(shots), routed, FAST)
        assert [model_to_json_bytes(e) for e in set_adapted] == [model_to_json_bytes(e) for e in adapted]

    def test_assignment_shot_mismatch(self):
        with pytest.raises(ValueError):
            adapt_experts([bias_expert([0.25] * 4)], [[]], [window(np.zeros((2, 2)), 1)], [], FAST)


class TestGate:
    def test_single_cluster_constant_gate(self, rng):
        shots = [window(rng.normal(size=(2, 2)), 1 + i % 4) for i in range(16)]
        gate = fit_gate(shots, [1] * 16, n_clusters=2)
        probs = softmax_predict_proba(gate, rng.normal(size=(50, 4)))
        assert np.all(np.argmax(probs, axis=1) == 1)
        assert np.allclose(probs[:, 1], 1.0)

    def test_separable_assignments_fit_exactly(self, rng):
        shots = [window(rng.normal(size=(2, 2)) - 4.0, 1) for _ in range(8)]
        shots += [window(rng.normal(size=(2, 2)) + 4.0, 2) for _ in range(8)]
        assignments = [0] * 8 + [1] * 8
        gate = fit_gate(shots, assignments, n_clusters=2)
        got = np.argmax(softmax_predict_proba(gate, flatten_windows(shots)), axis=1)
        assert got.tolist() == assignments

    def test_output_dimension_is_cluster_count(self, rng):
        shots = [window(rng.normal(size=(2, 3)), 1) for _ in range(6)]
        gate = fit_gate(shots, [0, 1, 2, 0, 1, 2], n_clusters=5)
        assert softmax_predict_proba(gate, flatten_windows(shots)).shape == (6, 5)

    def test_no_shots_rejected(self):
        with pytest.raises(ValueError):
            fit_gate([], [], n_clusters=2)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_shot_rejected(self, rng, cell):
        # it used to give the all-zero gate: the line search never accepted a step
        X = rng.normal(size=(8, 2, 2))
        X[5, 1, 0] = cell
        shots = windows_from_arrays(X, 1 + np.arange(8) % 4)
        with pytest.raises(ValueError, match="non-finite"):
            fit_gate(shots, [0, 1] * 4, n_clusters=2)

    def test_non_finite_shot_rejected_when_one_cluster(self, rng):
        # the constant-gate path used to return bias [-1000, 0] unchecked
        X = rng.normal(size=(8, 2, 2))
        X[3, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_gate(windows_from_arrays(X, 1 + np.arange(8) % 4), [1] * 8, n_clusters=2)

    def test_assignments_below_zero_rejected(self, rng):
        # all -1 used to give a constant gate for the last cluster
        shots = windows_from_arrays(rng.normal(size=(8, 2, 2)), 1 + np.arange(8) % 4)
        with pytest.raises(ValueError, match=re.escape("labels must lie in 0..1, got range [-1, -1]")):
            fit_gate(shots, [-1] * 8, n_clusters=2)

    def test_assignments_past_last_cluster_rejected(self, rng):
        # all n_clusters used to raise a bare IndexError
        shots = windows_from_arrays(rng.normal(size=(8, 2, 2)), 1 + np.arange(8) % 4)
        with pytest.raises(ValueError, match=re.escape("labels must lie in 0..1, got range [2, 2]")):
            fit_gate(shots, [2] * 8, n_clusters=2)


class TestGatesInLockstep:
    def test_each_gate_is_its_lone_fit(self, rng):
        shots = windows_from_arrays(rng.normal(size=(16, 2, 3)), 1 + np.arange(16) % 4)
        routes = [[i % 2 for i in range(16)], [1] * 16, [int(i < 5) for i in range(16)], [2 - i % 3 for i in range(16)]]
        gates = pipeline_mod._fit_gates(as_window_set(shots), routes, 3, 1e-4)
        assert [model_to_json_bytes(g) for g in gates] == [model_to_json_bytes(fit_gate(shots, r, 3)) for r in routes]

    def test_every_route_is_checked(self, rng):
        shots = windows_from_arrays(rng.normal(size=(8, 2, 2)), 1 + np.arange(8) % 4)
        # the second route would build a constant gate
        with pytest.raises(ValueError, match=re.escape("labels must lie in 0..1, got range [2, 2]")):
            pipeline_mod._fit_gates(as_window_set(shots), [[0, 1] * 4, [2] * 8], 2, 1e-4)

    @pytest.mark.parametrize("shots_from", ["both clusters", "one cluster"])
    def test_one_lockstep_call_per_chunk(self, rng, monkeypatch, shots_from):
        source = two_cluster_windows(rng, n_per=30)
        target = two_cluster_windows(np.random.default_rng(9), n_per=10)
        shots = target[::3] if shots_from == "both clusters" else [w for w in target if w.y <= 2][::2]
        calls, real = [], pipeline_mod.softmax_train_many

        def recording(X, labels, *args, **kwargs):
            calls.append(len(labels))
            return real(X, labels, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "softmax_train_many", recording)
        config = replace(FAST, epochs=2)
        models = pipeline_mod._fit_staged(as_window_set(source), as_window_set(shots), 2, config, range(4), None, 1e-4)
        trained = sum(len(set(m.shot_assignments)) > 1 for m in models)
        assert calls == ([trained] if trained else [])
        assert trained == (4 if shots_from == "both clusters" else 0)


class TestPredict:
    def constant_gate_model(self, experts, to_cluster, d=2):
        k = len(experts)
        bias = np.full(k, -1e3)
        bias[to_cluster] = 0.0
        flats_dim = 2 * d
        gate = SoftmaxRegressionParams(weights=np.zeros((k, flats_dim)), bias=bias)
        flats = np.zeros((4, flats_dim))
        return HierarchicalModel(
            gmm=GmmParams(
                weights=np.full(k, 1.0 / k), means=np.zeros((k, flats_dim)), variances=np.ones((k, flats_dim))
            ),
            experts=tuple(experts),
            gate=gate,
            stats=StandardizationStats.identity(d),
            shot_assignments=(to_cluster,),
        )

    def test_constant_gate_collapses_to_single_expert(self, rng):
        experts = [exact_expert(2, 0), exact_expert(4, 1)]
        model = self.constant_gate_model(experts, to_cluster=0)
        w = rng.normal(size=(2, 2))
        assert predict_batch(model, w[None]).tolist() == [2]

    def test_disagreeing_experts_follow_the_gate(self, rng):
        experts = [exact_expert(1, 0), exact_expert(3, 1)]
        for target, expected in ((0, 1), (1, 3)):
            model = self.constant_gate_model(experts, to_cluster=target)
            assert predict_batch(model, rng.normal(size=(1, 2, 2))).tolist() == [expected]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_gates_route_like_the_oracle(self, data):
        # gate entries and windows are halves, so gate logits are exact and a
        # gate row copied from an earlier one ties with it on every window
        k, d = data.draw(st.integers(1, 4), label="k"), data.draw(st.integers(1, 3), label="d")
        halves = st.integers(-4, 4).map(lambda i: i / 2)
        distinct = data.draw(arrays(np.float64, (k, 2 * d + 1), elements=halves), label="gate rows")
        rows = distinct[[data.draw(st.integers(0, c), label=f"row of cluster {c}") for c in range(k)]]
        gate = SoftmaxRegressionParams(weights=rows[:, :-1], bias=rows[:, -1])

        def net(seed):
            r = np.random.default_rng(seed)
            return LstmParams(
                wx=r.normal(size=(d, 16)), wh=r.normal(size=(4, 16)), b=r.normal(size=16),
                w_out=3.0 * r.normal(size=(4, 4)), b_out=r.normal(size=4),
            )

        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2 * k, max_size=2 * k), label="seeds")
        experts = tuple(
            ClusterExpert(c, net(seeds[2 * c]), net(seeds[2 * c + 1]), np.ones(4, dtype=np.int64)) for c in range(k)
        )
        model = HierarchicalModel(
            gmm=GmmParams(weights=np.full(k, 1.0 / k), means=np.zeros((k, 2 * d)), variances=np.ones((k, 2 * d))),
            experts=experts, gate=gate, stats=StandardizationStats.identity(d), shot_assignments=(),
        )
        n = data.draw(st.integers(1, 12), label="n")
        X = data.draw(arrays(np.float64, (n, 2, d), elements=halves), label="X")

        expected = []
        for x in X:
            p = softmax_predict_proba(gate, x.reshape(1, -1))[0]
            c = min(c for c in range(k) if p[c] == p.max())
            expected.append(int(lstm_predict(experts[c].expert_after, x[None])[0]))
        assert predict_batch(model, X).tolist() == expected

    def test_prediction_in_label_range(self, rng):
        ws = two_cluster_windows(rng, n_per=20)
        shots = ws[::10]
        model = fit(ws, shots, k=2, config=FAST)
        preds = predict_batch(model, rng.normal(size=(30, 2, 2)))
        assert set(np.unique(preds)).issubset({1, 2, 3, 4})

    def test_zero_windows_give_no_predictions(self, rng):
        ws = two_cluster_windows(rng, n_per=15)
        model = fit(ws, ws[::7], k=2, config=FAST)
        preds = predict_batch(model, rng.normal(size=(3, 2, 2))[:0])
        assert preds.dtype == np.int64 and preds.shape == (0,)

    def test_predict_is_pure(self, rng):
        ws = two_cluster_windows(rng, n_per=15)
        model = fit(ws, ws[::7], k=2, config=FAST)
        X = rng.normal(size=(10, 2, 2))
        assert np.array_equal(predict_batch(model, X), predict_batch(model, X))


class TestFitSelected:
    def setup_problem(self, rng, n_per=40):
        ws = two_cluster_windows(rng, n_per=n_per)
        target = two_cluster_windows(np.random.default_rng(99), n_per=12)
        shots = target[::6]
        pool = [w for i, w in enumerate(target) if i % 6]
        return ws, shots, pool

    def test_single_run_single_eval(self, rng):
        ws, shots, pool = self.setup_problem(rng)
        model, report = fit_selected(ws, shots, [pool], k=2, runs=1, evals=1, config=FAST)
        assert len(report.shot_accuracies) == 1
        assert len(report.eval_accuracies) == 1
        assert report.selected_run == 0
        direct = fit(ws, shots, k=2, config=FAST)
        assert model_to_json_bytes(model) == model_to_json_bytes(direct)

    def test_report_shape_and_argmax(self, rng):
        ws, shots, pool = self.setup_problem(rng)
        _, report = fit_selected(ws, shots, [pool], k=2, runs=4, evals=2, config=FAST)
        assert len(report.shot_accuracies) == 4
        assert len(report.eval_accuracies) == 2
        assert report.selected_run == int(np.argmax(report.shot_accuracies))
        assert all(report.shot_accuracies[report.selected_run] >= a for a in report.shot_accuracies)
        assert report.mean_test_accuracy == pytest.approx(np.mean(report.eval_accuracies))

    def test_bit_exact_rerun(self, rng):
        ws, shots, pool = self.setup_problem(rng, n_per=20)
        m1, r1 = fit_selected(ws, shots, [pool], k=2, runs=3, evals=2, config=FAST)
        m2, r2 = fit_selected(ws, shots, [pool], k=2, runs=3, evals=2, config=FAST)
        assert r1 == r2
        assert model_to_json_bytes(m1) == model_to_json_bytes(m2)

    def test_repredict_mode_evaluates_selected_model(self, rng):
        ws, shots, pool = self.setup_problem(rng, n_per=20)
        model, report = fit_selected(ws, shots, [pool], k=2, runs=3, evals=3, config=FAST, eval_mode="repredict")
        X, y = stack_windows(pool)
        acc = float(np.mean(predict_batch(model, X) == y))
        assert report.eval_accuracies == (acc,) * 3

    @staticmethod
    def reference_fit_selected(ws, shots, pools, k, runs, evals, config, eval_mode):
        """The protocol one fit at a time: ``runs`` seeded fits scored on the
        shots, then ``evals`` refits or re-predictions of the selected model."""
        shot_X, shot_y = stack_windows(shots)
        models = [fit(ws, shots, k, replace(config, seed=config.seed + r)) for r in range(runs)]
        shot_accs = [float(np.mean(predict_batch(m, shot_X) == shot_y)) for m in models]
        best = models[int(np.argmax(shot_accs))]
        file_accs = []
        for j in range(evals):
            m = fit(ws, shots, k, replace(config, seed=config.seed + runs + j)) if eval_mode == "refit" else best
            file_accs.append(tuple(float(np.mean(predict_batch(m, X) == y)) for X, y in map(stack_windows, pools)))
        eval_accs = [float(np.mean(f)) for f in file_accs]
        return best, SelectionReport(
            shot_accuracies=tuple(shot_accs),
            selected_run=int(np.argmax(shot_accs)),
            eval_accuracies=tuple(eval_accs),
            mean_test_accuracy=float(np.mean(eval_accs)),
            eval_file_accuracies=tuple(file_accs),
        )

    @pytest.mark.parametrize("eval_mode", ["refit", "repredict"])
    def test_matches_one_fit_at_a_time(self, rng, eval_mode):
        ws, shots, pool = self.setup_problem(rng, n_per=25)
        pools = [pool[::2], pool[1::2]]
        cfg = replace(FAST, epochs=3, seed=5)
        model, report = fit_selected(ws, shots, pools, k=2, runs=4, evals=3, config=cfg, eval_mode=eval_mode)
        ref_model, ref_report = self.reference_fit_selected(ws, shots, pools, 2, 4, 3, cfg, eval_mode)
        assert report == ref_report
        assert model_to_json_bytes(model) == model_to_json_bytes(ref_model)

    # With two workers, refit mode's 6 fits split 0-2 | 3-5, so run 2 collapses
    # in this process; repredict mode's 4 fits split 0-1 | 2-3, so in a child.
    @pytest.mark.parametrize("eval_mode", ["refit", "repredict"])
    def test_empty_cluster_in_any_run_is_an_error(self, rng, monkeypatch, eval_mode):
        ws, shots, pool = self.setup_problem(rng, n_per=10)
        real_fit, real_assign = pipeline_mod.gmm_fit, pipeline_mod.gmm_assign
        collapsing_seed = stage_seed(FAST.seed + 2, "gmm")
        collapsed = []

        def fit_marking_run_2(flats, k, seed):
            params = real_fit(flats, k=k, seed=seed)
            if seed == collapsing_seed:
                collapsed.append(params)
            return params

        def run_2_collapses(params, flats):
            out = real_assign(params, flats)
            return np.zeros_like(out) if any(params is p for p in collapsed) else out

        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(pipeline_mod, "gmm_fit", fit_marking_run_2)
        monkeypatch.setattr(pipeline_mod, "gmm_assign", run_2_collapses)
        with pytest.raises(ValueError, match="cluster 1 received no source windows"):
            fit_selected(ws, shots, [pool], k=2, runs=4, evals=2, config=FAST, eval_mode=eval_mode)

    @pytest.mark.parametrize("n_pools, message", [(0, "need at least one test pool"), (3, "test pool 1 is empty")])
    def test_empty_test_pool_fails_before_any_fit(self, rng, monkeypatch, n_pools, message):
        ws, shots, pool = self.setup_problem(rng, n_per=10)
        pools = [pool, pool[:0], pool][:n_pools]

        def not_reached(*args):
            raise AssertionError("_fit_many reached")

        monkeypatch.setattr(pipeline_mod, "_fit_many", not_reached)
        with pytest.raises(ValueError, match=message):
            fit_selected(ws, shots, pools, k=2, runs=2, evals=1, config=FAST)

    def test_window_sets_and_lists_give_the_same_protocol(self, rng):
        ws, shots, pool = self.setup_problem(rng, n_per=15)
        pools = [pool[::2], pool[1::2]]
        cfg = replace(FAST, epochs=2, seed=4)
        model, report = fit_selected(ws, shots, pools, k=2, runs=3, evals=2, config=cfg)
        set_model, set_report = fit_selected(
            as_window_set(ws), as_window_set(shots), [as_window_set(p) for p in pools], k=2, runs=3, evals=2, config=cfg
        )
        assert set_report == report
        assert model_to_json_bytes(set_model) == model_to_json_bytes(model)

    def test_selection_report_validates_argmax(self):
        with pytest.raises(ValueError):
            SelectionReport(
                shot_accuracies=(0.1, 0.9), selected_run=0,
                eval_accuracies=(0.5,), mean_test_accuracy=0.5, eval_file_accuracies=((0.5,),),
            )


class TestSeedParallel:
    """``fit_selected`` splits its fits across forked workers; the result must
    not depend on the worker count, and every failure must surface."""

    setup_problem = TestFitSelected.setup_problem

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked during the test."""
        pids, real = [], os.fork

        def recording_fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    def protocol(self, rng, eval_mode="refit"):
        ws, shots, pool = self.setup_problem(rng, n_per=15)
        cfg = replace(FAST, epochs=2, seed=3)
        pools = [pool[::2], pool[1::2]]
        return lambda: fit_selected(ws, shots, pools, k=2, runs=4, evals=3, config=cfg, eval_mode=eval_mode)

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("eval_mode", ["refit", "repredict"])
    def test_any_worker_count_gives_the_same_result(self, rng, monkeypatch, caplog, forks, eval_mode):
        run = self.protocol(rng, eval_mode)
        n_fits = 7 if eval_mode == "refit" else 4
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: workers)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="noseda"):
                model, report = run()
            assert [r.getMessage() for r in caplog.records] == [f"fit_selected fits={n_fits} workers={workers}"]
            assert len(forks) == workers - 1
            self.assert_reaped(forks)
            forks.clear()
            outputs.append((report, model_to_json_bytes(model)))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    # the fixtures persist across examples: each example clears ``forks``
    # and forces its own worker counts
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        runs=st.integers(1, 4),
        evals=st.integers(1, 3),
        eval_mode=st.sampled_from(["refit", "repredict"]),
        workers=st.integers(2, 3),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_any_forced_worker_count_gives_the_in_process_result(
        self, monkeypatch, forks, runs, evals, eval_mode, workers, epochs, seed
    ):
        # about 40 windows: 24 source, 4 shots and 12 in two test pools
        r = np.random.default_rng(seed)
        ws = two_cluster_windows(r, n_per=12)
        target = two_cluster_windows(r, n_per=4)
        shots, pool = target[::4], [w for i, w in enumerate(target) if i % 4]
        cfg = replace(FAST, epochs=epochs, seed=seed)
        forks.clear()
        outputs = []
        for count in (1, workers):
            monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: count)
            model, report = fit_selected(
                ws, shots, [pool[::2], pool[1::2]], k=2, runs=runs, evals=evals, config=cfg, eval_mode=eval_mode
            )
            outputs.append((report, model_to_json_bytes(model)))
        assert len(forks) == min(workers, runs + evals if eval_mode == "refit" else runs) - 1
        self.assert_reaped(forks)
        assert outputs[1] == outputs[0]

    def test_failed_fork_fits_in_process(self, rng, monkeypatch):
        run = self.protocol(rng)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 1)
        expected = run()

        def failing_fork():
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 3)
        monkeypatch.setattr(os, "fork", failing_fork)
        model, report = run()
        assert report == expected[1]
        assert model_to_json_bytes(model) == model_to_json_bytes(expected[0])

    @staticmethod
    def failing_chunks(monkeypatch, failures, done_dir):
        """Make the chunks that start with the given run indexes fail: a
        message raises ValueError(message); an int makes the worker exit.
        Every other chunk leaves a file in ``done_dir`` when it finishes."""
        real, parent = pipeline_mod._fit_staged, os.getpid()

        def fit_chunk(source_windows, shots, k, config, seeds, stats, gate_l2):
            first = seeds[0] - FAST.seed
            failure = failures.get(first)
            if isinstance(failure, int) and os.getpid() != parent:
                os._exit(failure)
            if isinstance(failure, str):
                raise ValueError(failure)
            models = real(source_windows, shots, k, config, seeds, stats, gate_l2)
            (done_dir / str(first)).touch()
            return models

        monkeypatch.setattr(pipeline_mod, "_fit_staged", fit_chunk)

    @pytest.mark.parametrize(
        "failures, message",
        [
            ({0: "parent chunk", 4: "last chunk"}, "parent chunk"),
            ({2: "middle chunk", 4: "last chunk"}, "middle chunk"),
            ({4: "last chunk"}, "last chunk"),
            ({2: 3}, "exited with status 3 without a result"),
            ({2: 3, 4: "last chunk"}, "exited with status 3 without a result"),
        ],
    )
    def test_earliest_failing_chunk_is_raised(self, rng, monkeypatch, tmp_path, forks, failures, message):
        ws, shots, pool = self.setup_problem(rng, n_per=10)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 3)  # 6 fits: runs 0-1 | 2-3 | 4-5
        self.failing_chunks(monkeypatch, failures, tmp_path)
        with pytest.raises((ValueError, RuntimeError), match=message):
            fit_selected(ws, shots, [pool], k=2, runs=4, evals=2, config=FAST)
        assert len(forks) == 2
        self.assert_reaped(forks)
        # every chunk that did not fail ran to the end: no worker was cut short
        assert sorted(p.name for p in tmp_path.iterdir()) == [str(r) for r in (0, 2, 4) if r not in failures]


class TestEquivariance:
    def test_label_permutation(self, rng):
        ws = two_cluster_windows(rng, n_per=30)
        target = two_cluster_windows(np.random.default_rng(5), n_per=10)
        shots = target[::5]
        test_X = rng.normal(size=(25, 2, 2)) + 10.0

        perm = {1: 3, 2: 1, 3: 4, 4: 2}

        def permute(windows):
            return [WindowSample(x=w.x, y=perm[w.y], origin_t=w.origin_t) for w in windows]

        cfg = replace(FAST, epochs=12)
        base = predict_batch(fit(ws, shots, k=2, config=cfg), test_X)
        permuted = predict_batch(fit(permute(ws), permute(shots), k=2, config=cfg), test_X)
        assert np.array_equal(np.array([perm[int(v)] for v in base]), permuted)


class TestStagesRebuildFit:
    """``fit`` is its public stages in sequence: rebuilt from them, call by
    call, it gives the same model bytes."""

    @staticmethod
    def rebuilt_fit(source, shots, k, cfg):
        flats = flatten_windows(source)
        gmm = gmm_fit(flats, k=k, seed=stage_seed(cfg.seed, "gmm"))
        assignment = gmm_assign(gmm, flats)
        by_cluster = [[w for w, a in zip(source, assignment) if a == c] for c in range(k)]
        experts = []
        for c, members in enumerate(by_cluster):
            X, y = stack_windows(members)
            net = lstm_train(X, y, replace(cfg, seed=stage_seed(cfg.seed, "expert", c)))
            experts.append(ClusterExpert(c, net, None, np.bincount(y, minlength=5)[1:5]))
        routed = route_few_shot(experts, shots)
        gate = fit_gate(shots, routed, k)
        experts = adapt_experts(experts, by_cluster, shots, routed, cfg)
        stats = StandardizationStats.identity(source[0].x.shape[1])
        model = HierarchicalModel(gmm, tuple(experts), gate, stats, routed, fit_seed=cfg.seed)
        return model, routed

    @pytest.mark.parametrize("shots_from", ["both clusters", "one cluster"])
    def test_model_bytes_equal_fit(self, rng, shots_from):
        source = two_cluster_windows(rng, n_per=30)
        target = two_cluster_windows(np.random.default_rng(9), n_per=10)
        # labels 1, 2 lie in one cluster and 3, 4 in the other
        shots = target[::3] if shots_from == "both clusters" else [w for w in target if w.y <= 2][::2]
        cfg = replace(FAST, seed=5)
        model, routed = self.rebuilt_fit(source, shots, 2, cfg)
        assert len(set(routed)) == (2 if shots_from == "both clusters" else 1)
        assert model_to_json_bytes(model) == model_to_json_bytes(fit(source, shots, k=2, config=cfg))


class TestStructuralCollapse:
    def test_k1_equals_plain_lstm(self, rng):
        ws = two_cluster_windows(rng, n_per=25)
        target = two_cluster_windows(np.random.default_rng(7), n_per=10)
        shots = target[::5]
        pool = [w for i, w in enumerate(target) if i % 5]
        cfg = replace(FAST, epochs=10, dropout=0.2, seed=11)

        model = fit(ws, shots, k=1, config=cfg)
        X, y = stack_windows(pool)
        pipe_preds = predict_batch(model, X)

        Xt, yt = stack_windows(list(ws) + list(shots))
        plain = lstm_train(Xt, yt, replace(cfg, seed=stage_seed(cfg.seed, "adapt", 0)))
        assert np.array_equal(pipe_preds, lstm_predict(plain, X))

    @settings(max_examples=20, deadline=None)
    @given(
        n_source=st.integers(4, 40),
        n_shots=st.integers(1, 8),
        d=st.integers(1, 3),
        epochs=st.integers(1, 2),
        batch_size=st.integers(1, 16),
        dropout=st.sampled_from([0.0, 0.3]),
        learning_rate=st.sampled_from([0.01, 0.1]),
        seed=st.integers(0, 2**32),
    )
    def test_k1_predicts_as_the_plain_lstm(self, n_source, n_shots, d, epochs, batch_size, dropout, learning_rate, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(n_source + n_shots, 2, d))
        y = r.integers(1, 5, size=len(X))
        source, shots = windows_from_arrays(X[:n_source], y[:n_source]), windows_from_arrays(X[n_source:], y[n_source:])
        cfg = TrainConfig(epochs=epochs, dropout=dropout, learning_rate=learning_rate, batch_size=batch_size, seed=seed)
        test_X = 2.0 * r.normal(size=(50, 2, d))

        model = fit(source, shots, k=1, config=cfg)
        plain = lstm_train(X, y, replace(cfg, seed=stage_seed(cfg.seed, "adapt", 0)))
        assert np.array_equal(predict_batch(model, test_X), lstm_predict(plain, test_X))


class TestPersistence:
    def test_round_trip_preserves_predictions(self, rng, tmp_path):
        ws = two_cluster_windows(rng, n_per=15)
        model = fit(ws, ws[::9], k=2, config=FAST)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        X = rng.normal(size=(40, 2, 2))
        assert np.array_equal(predict_batch(clone, X), predict_batch(model, X))
        assert model_to_json_bytes(clone) == model_to_json_bytes(model)

    def test_bundle_contents(self, rng, tmp_path):
        ws = two_cluster_windows(rng, n_per=10)
        model = fit(ws, ws[::5], k=2, config=FAST)
        obj = json.loads(model_to_json_bytes(model))
        assert set(obj) == {"gmm", "experts", "gate", "stats", "shot_assignments", "fit_seed"}
        assert set(obj["gate"]) == {"weights", "bias"}
        assert obj["fit_seed"] == FAST.seed
        assert len(obj["experts"]) == 2


class TestModelConsistency:
    """``HierarchicalModel`` (and so ``load_model``) rejects files whose parts
    disagree on the cluster count or the window width."""

    def model_dict(self, k=2, d=3):
        gate = SoftmaxRegressionParams(weights=np.zeros((k, 2 * d)), bias=np.zeros(k))
        model = HierarchicalModel(
            gmm=GmmParams(weights=np.full(k, 1.0 / k), means=np.zeros((k, 2 * d)), variances=np.ones((k, 2 * d))),
            experts=tuple(bias_expert([0.25] * 4, cluster_id=c, d=d) for c in range(k)),
            gate=gate,
            stats=StandardizationStats.identity(d),
            shot_assignments=(0, 1),
        )
        return json.loads(model_to_json_bytes(model))

    def load_edited(self, tmp_path, obj):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        return load_model(path)

    def test_unedited_file_loads(self, tmp_path):
        assert len(self.load_edited(tmp_path, self.model_dict()).experts) == 2

    def test_gate_with_stored_cluster_count_rejected(self, tmp_path):
        # the layout that wrapped the gate's weights and bias in "params"
        # next to a copy of the cluster count
        obj = self.model_dict()
        obj["gate"] = {"params": obj["gate"], "n_clusters": 2}
        message = "SoftmaxRegressionParams: unexpected keys ['n_clusters', 'params']"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load_edited(tmp_path, obj)

    def test_gate_class_count(self, tmp_path):
        obj = self.model_dict()
        obj["gate"] = self.model_dict(k=3)["gate"]
        with pytest.raises(ValueError, match="3 classes for a 2-component mixture"):
            self.load_edited(tmp_path, obj)

    def test_gate_input_width(self, tmp_path):
        obj = self.model_dict()
        obj["gate"] = self.model_dict(d=2)["gate"]
        with pytest.raises(ValueError, match="gate input is 4-dimensional, mixture is 6-dimensional"):
            self.load_edited(tmp_path, obj)

    @pytest.mark.parametrize("net", ["expert_before", "expert_after"])
    def test_expert_input_width(self, tmp_path, net):
        obj = self.model_dict()
        obj["experts"][1][net] = self.model_dict(d=2)["experts"][1][net]
        with pytest.raises(ValueError, match=f"cluster 1 {net} reads 2-dim frames, mixture windows are 6-dim"):
            self.load_edited(tmp_path, obj)

    def test_stats_width(self, tmp_path):
        obj = self.model_dict()
        obj["stats"] = self.model_dict(d=2)["stats"]
        with pytest.raises(ValueError, match=r"stats mean \(2,\) and std \(2,\) do not fit 6-dim windows"):
            self.load_edited(tmp_path, obj)

    @pytest.mark.parametrize("ids", [[0, 0], [1, 0]])
    def test_expert_cluster_ids(self, tmp_path, ids):
        obj = self.model_dict()
        for e, c in zip(obj["experts"], ids):
            e["cluster_id"] = c
        with pytest.raises(ValueError, match=re.escape(f"cluster ids must be 0..1 in order, got {ids}")):
            self.load_edited(tmp_path, obj)
