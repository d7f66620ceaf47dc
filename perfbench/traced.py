"""The traced run: in-memory spans around public calls into every layer,
fixed-size layer microbenchmarks, behaviour counters, and the per-layer
metrics derived from them.

Spans are recorded here, around calls into the package; the package itself is
not instrumented.  One sweep rebuilds a ``pipeline.fit`` from its public
stages, trains each baseline once, saves and loads the model, predicts, and
runs the classify pass (``load_model``, then 12 target CSVs of 20k rows
through ingest and ``predict_batch``), and times the microbenchmarks.  The
sweep repeats until the run's time is up; times are medians over sweeps and
every counter must repeat exactly.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from noseda import baselines, pipeline
from noseda.gmm import gmm_assign, gmm_fit
from noseda.ingest import (
    apply_standardizer,
    fit_standardizer,
    flatten_windows,
    harmonize,
    load_dataset,
    make_windows,
    sample_few_shot,
    stack_windows,
)
from noseda.nets.common import Adam, dropout_mask
from noseda.nets.lstm import lstm_init, lstm_loss_grad, lstm_predict, lstm_predict_proba, lstm_train
from noseda.nets.mlp import mlp_init, mlp_loss_grad, mlp_train
from noseda.nets.softmax_regression import softmax_train

import workloads as wl

# Microbenchmark sizes and repetition counts (stated in every result).
MICRO = {
    "batch": 32,
    "batch_large": 320,
    "reps": 300,
    "mlp_reps": 100,
    "gmm_reps": 5,
    "gate_reps": 20,
    "io_reps": 3,
    "predict_reps": 5,
}


class Tracer:
    """In-memory spans: id, name, parent id, start and end (perf_counter
    seconds), plus optional attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Duration minus the time covered by child spans (single-threaded, so
        children never overlap)."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def traced_fit(tr: Tracer, source_windows, shots, config, stats, counters: dict):
    """``pipeline.fit`` rebuilt from its public stages, one span per stage."""
    with tr.span("pipeline.fit"):
        with tr.span("ingest.flatten_windows"):
            flats = flatten_windows(source_windows)
        with tr.span("gmm.fit"):
            gmm_params, ll_trace = gmm_fit(flats, k=wl.K, seed=pipeline.stage_seed(config.seed, "gmm"), return_trace=True)
        with tr.span("gmm.assign"):
            assignment = gmm_assign(gmm_params, flats)
        sizes = np.bincount(assignment, minlength=wl.K)
        counters["gmm.em_iters"] = len(ll_trace)
        counters["gmm.cluster_size_list"] = [int(v) for v in sizes]
        experts = []
        for c in range(wl.K):
            idx = np.flatnonzero(assignment == c)
            X, y = stack_windows([source_windows[i] for i in idx])
            cfg = replace(config, seed=pipeline.stage_seed(config.seed, "expert", c))
            with tr.span("lstm.train", windows=len(y), epochs=cfg.epochs):
                params = lstm_train(X, y, cfg)
            hist = np.bincount(y, minlength=5)[1:5]
            experts.append(pipeline.ClusterExpert(c, params, None, hist))
        with tr.span("pipeline.route_few_shot"):
            routed = pipeline.route_few_shot(experts, shots)
        counters["pipeline.route_fallback"] = _fallbacks(experts, shots)
        with tr.span("pipeline.fit_gate"):
            gate = pipeline.fit_gate(shots, routed, wl.K)
        counters["pipeline.gate_constant"] = int(len(set(routed)) == 1)
        by_cluster = [[w for w, a in zip(source_windows, assignment) if a == c] for c in range(wl.K)]
        # adapt_experts retrains one expert per cluster with lstm_train
        adapt_windows = len(source_windows) + len(shots)
        with tr.span("pipeline.adapt_experts", lstm_calls=wl.K, windows=adapt_windows, epochs=config.epochs):
            experts = pipeline.adapt_experts(experts, by_cluster, shots, routed, config)
        return pipeline.HierarchicalModel(
            gmm=gmm_params, experts=tuple(experts), gate=gate, stats=stats,
            shot_assignments=routed, fit_seed=config.seed,
        )


def _fallbacks(experts, shots) -> int:
    """Shots that no expert predicts correctly, so routing used the label histogram."""
    X, y = stack_windows(shots)
    preds = np.stack([lstm_predict(e.expert_before, X) for e in experts])
    return int(np.sum(~np.any(preds == y[None, :], axis=0)))


def sweep(tr: Tracer, inputs: dict, workdir, checks: wl.Checks, micro: dict) -> dict:
    """One traced pass over every layer.  Returns this sweep's counters."""
    counters: dict = {}
    pair = inputs["pair"]
    with tr.span("sweep"):
        with tr.span("ingest.pair"):
            source_windows, shots, test_pool, stats = _traced_pair_ingest(tr, pair)
        config = wl.train_config(pair["seed"])

        model = traced_fit(tr, source_windows, shots, config, stats, counters)
        with tr.span("pipeline.fit.untraced"):
            reference = pipeline.fit(source_windows, shots, k=wl.K, config=config, stats=stats)
        digest = pipeline.model_digest(model)
        checks.require(digest == pipeline.model_digest(reference), "rebuilt fit digest differs from pipeline.fit")
        counters["model_digest"] = digest

        X_test, y_test = stack_windows(test_pool)
        for _ in range(MICRO["predict_reps"]):
            with tr.span("pipeline.predict_batch", windows=len(y_test)):
                preds = pipeline.predict_batch(model, X_test)
            with tr.span("lstm.predict", windows=len(y_test)):
                lstm_preds = lstm_predict(model.experts[0].expert_after, X_test)
        checks.predictions(preds, len(y_test), "traced predict_batch")
        checks.predictions(lstm_preds, len(y_test), "traced lstm_predict")
        checks.accuracy(float(np.mean(preds == y_test)), "traced predict_batch")

        path = workdir / "traced_model.json"
        for _ in range(MICRO["io_reps"]):
            with tr.span("pipeline.save_model"):
                pipeline.save_model(model, path)
            with tr.span("pipeline.load_model"):
                loaded = pipeline.load_model(path)
        checks.require(pipeline.model_digest(loaded) == digest, "save/load round trip changed the model")

        _traced_baselines(tr, source_windows, shots, test_pool, config, checks, counters)
        with tr.span("classify") as s:
            preds_by_file, _ = wl.classify_pass(inputs["model"], inputs["target_dir"], checks, tr.span)
        counters["classify_digest"] = wl.predictions_digest(preds_by_file)
        s["windows_per_s"] = sum(len(p) for p in preds_by_file) / _dur(s)
        _micro(tr, source_windows, shots, micro)
    return counters


def _traced_pair_ingest(tr, pair):
    with tr.span("ingest.load_dataset") as s:
        source = load_dataset(pair["source"])
        target = load_dataset(pair["target"])
    s["rows"] = sum(len(ds) for ds in source + target)
    with tr.span("ingest.harmonize"):
        source = [harmonize(ds) for ds in source]
        target = [harmonize(ds) for ds in target]
    with tr.span("ingest.fit_standardizer"):
        stats = fit_standardizer(source)
    with tr.span("ingest.apply_standardizer"):
        source = [apply_standardizer(ds, stats) for ds in source]
        target = [apply_standardizer(ds, stats) for ds in target]
    with tr.span("ingest.make_windows"):
        source_windows = [w for ds in source for w in make_windows(ds)]
        target_windows = [w for ds in target for w in make_windows(ds)]
    with tr.span("ingest.sample_few_shot"):
        split = sample_few_shot(target_windows, per_class=wl.PER_CLASS, seed=pair["seed"])
    return source_windows, list(split.shots), list(split.test_pool), stats


def _traced_baselines(tr, source_windows, shots, test_pool, config, checks, counters):
    """Each baseline's training call once, on source windows plus shots (ss:
    source alone, then the test stream), as ``run_experiment`` does."""
    X, y = stack_windows(list(source_windows) + list(shots))
    flats = X.reshape(X.shape[0], -1)
    X_test, y_test = stack_windows(test_pool)
    flat_test = X_test.reshape(X_test.shape[0], -1)
    with tr.span("softmax.lr_train"):
        softmax_train(flats, y - 1, 4, l2=1e-4)
    with tr.span("baselines.adaboost_train"):
        ada = baselines.adaboost_train(flats, y)
    checks.predictions(baselines.adaboost_predict_many(ada, flat_test), len(y_test), "adaboost")
    src_X, src_y = stack_windows(source_windows)
    with tr.span("baselines.ss_init"):
        state = baselines.ss_init(src_X.reshape(src_X.shape[0], -1), src_y)
    with tr.span("baselines.ss_stream", windows=len(y_test)):
        ss_preds = np.asarray(baselines.ss_classify_stream(state, flat_test))
    checks.predictions(ss_preds, len(y_test), "ss")
    counters["baselines.ss_growth"] = int(sum(state.growth.values()))
    with tr.span("mlp.train", windows=len(y), epochs=config.epochs):
        mlp_train(flats, y, config)
    with tr.span("lstm.train", windows=len(y), epochs=config.epochs):
        pooled = lstm_train(X, y, config)
    checks.predictions(lstm_predict(pooled, X_test), len(y_test), "pooled lstm")


def _micro(tr, source_windows, shots, out: dict):
    """Layer microbenchmarks at fixed sizes; medians of ``out`` lists."""
    rng = np.random.default_rng(0)
    X, y = stack_windows(source_windows)
    flats = X.reshape(X.shape[0], -1)
    B, BL = MICRO["batch"], MICRO["batch_large"]
    xb, yb = X[:B], y[:B]
    xl, yl = X[:BL], y[:BL]
    with tr.span("micro.lstm"):
        params = lstm_init(X.shape[2], seed=0)
        arrays = params.arrays()
        opt = Adam(arrays, lr=wl.LEARNING_RATE)
        drop = dropout_mask(rng, (B, params.hidden_dim), wl.DROPOUT)
        _, grads = lstm_loss_grad(params, xb, yb, drop)
        reps = MICRO["reps"]
        out.setdefault("lstm.forward_us.b32", []).append(1e6 * _median_time(lambda: lstm_predict_proba(params, xb), reps))
        out.setdefault("lstm.loss_grad_us.b32", []).append(
            1e6 * _median_time(lambda: lstm_loss_grad(params, xb, yb, drop), reps))
        drop_l = dropout_mask(rng, (BL, params.hidden_dim), wl.DROPOUT)
        out.setdefault("lstm.loss_grad_us.b320", []).append(
            1e6 * _median_time(lambda: lstm_loss_grad(params, xl, yl, drop_l), reps))
        out.setdefault("lstm.adam_us", []).append(1e6 * _median_time(lambda: opt.step(arrays, grads), reps))

        def step():
            d = dropout_mask(rng, (B, params.hidden_dim), wl.DROPOUT)
            _, g = lstm_loss_grad(params, xb, yb, d)
            opt.step(arrays, g)

        out.setdefault("lstm.step_us.b32", []).append(1e6 * _median_time(step, reps))
    with tr.span("micro.mlp"):
        mparams = mlp_init(flats.shape[1], seed=0)
        marrays = mparams.arrays()
        mopt = Adam(marrays, lr=wl.LEARNING_RATE)
        fb = flats[:B]
        h1, h2 = mparams.b1.shape[0], mparams.b2.shape[0]

        def mstep():
            d1 = dropout_mask(rng, (B, h1), wl.DROPOUT)
            d2 = dropout_mask(rng, (B, h2), wl.DROPOUT)
            _, g = mlp_loss_grad(mparams, fb, yb, d1, d2)
            mopt.step(marrays, g)

        out.setdefault("mlp.step_us.b32", []).append(1e6 * _median_time(mstep, MICRO["mlp_reps"]))
    with tr.span("micro.gmm"):
        gmm_seed = pipeline.stage_seed(0, "gmm")
        out.setdefault("gmm.fit_s", []).append(_median_time(lambda: gmm_fit(flats, k=wl.K, seed=gmm_seed), MICRO["gmm_reps"]))
        gp = gmm_fit(flats, k=wl.K, seed=gmm_seed)
        out.setdefault("gmm.assign_s", []).append(_median_time(lambda: gmm_assign(gp, flats), MICRO["gmm_reps"]))
    with tr.span("micro.trace"):
        probe = Tracer()

        def empty_span():
            with probe.span("probe"):
                pass

        out.setdefault("trace.span_us", []).append(1e6 * _median_time(empty_span, MICRO["reps"]))
    with tr.span("micro.gate"):
        shot_flats = flatten_windows(shots)
        labels = np.arange(len(shots)) % wl.K  # a two-cluster routing of the 16 shots
        out.setdefault("softmax.gate_train_s", []).append(
            _median_time(lambda: softmax_train(shot_flats, labels, wl.K, l2=1e-4), MICRO["gate_reps"]))


# ---------------------------------------------------------------------------
# Per-layer metrics


def _by_name(tr: Tracer, sweep_id: int) -> dict[str, list[dict]]:
    """Spans of one sweep, grouped by name."""
    children: dict[int, list[dict]] = {}
    for s in tr.spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, list[dict]] = {}
    stack = [sweep_id]
    while stack:
        for s in children.get(stack.pop(), []):
            out.setdefault(s["name"], []).append(s)
            stack.append(s["id"])
    return out


def _total(spans: dict, name: str) -> float:
    return sum(_dur(s) for s in spans.get(name, []))


def sweep_metrics(tr: Tracer, sweep_id: int, counters: dict) -> dict:
    """Times and counts of one sweep."""
    sp = _by_name(tr, sweep_id)
    spans_in_sweep = [s for group in sp.values() for s in group]
    rows = sum(s["rows"] for s in sp["ingest.load_dataset"])
    # adapt_experts is K lstm_train calls on the cluster windows plus shots
    lstm_calls = sp["lstm.train"] + sp["pipeline.adapt_experts"]

    def rate(name):
        return sum(s["windows"] for s in sp[name]) / _total(sp, name)

    return {
        "ingest.load_rows_per_s": rows / _total(sp, "ingest.load_dataset"),
        "ingest.standardize_s": _total(sp, "ingest.fit_standardizer") + _total(sp, "ingest.apply_standardizer"),
        "ingest.window_s": _total(sp, "ingest.make_windows") + _total(sp, "ingest.stack_windows"),
        "lstm.train_s": sum(_dur(s) for s in lstm_calls),
        "lstm.predict_windows_per_s": rate("lstm.predict"),
        "mlp.train_s": _total(sp, "mlp.train"),
        "softmax.lr_train_s": _total(sp, "softmax.lr_train"),
        "baselines.adaboost_train_s": _total(sp, "baselines.adaboost_train"),
        "baselines.ss_stream_windows_per_s": rate("baselines.ss_stream"),
        "pipeline.fit_s": _total(sp, "pipeline.fit"),
        "pipeline.route_s": _total(sp, "pipeline.route_few_shot"),
        "pipeline.gate_s": _total(sp, "pipeline.fit_gate"),
        "pipeline.adapt_s": _total(sp, "pipeline.adapt_experts"),
        "pipeline.predict_windows_per_s": rate("pipeline.predict_batch"),
        "pipeline.load_model_s": statistics.median(_dur(s) for s in sp["pipeline.load_model"]),
        "pipeline.save_model_s": statistics.median(_dur(s) for s in sp["pipeline.save_model"]),
        "trace.spans": len(spans_in_sweep),
        "ingest.rows": rows,
        "gmm.em_iters": counters["gmm.em_iters"],
        "gmm.cluster_sizes": min(counters["gmm.cluster_size_list"]),
        "lstm.train_calls": sum(s.get("lstm_calls", 1) for s in lstm_calls),
        "lstm.window_epochs": sum(s["windows"] * s["epochs"] for s in lstm_calls),
        "pipeline.route_fallback": counters["pipeline.route_fallback"],
        "pipeline.gate_constant": counters["pipeline.gate_constant"],
    }


COUNTS = ("ingest.rows", "trace.spans", "gmm.em_iters", "gmm.cluster_sizes", "lstm.train_calls", "lstm.window_epochs",
          "pipeline.route_fallback", "pipeline.gate_constant")


def measure_traced(inputs: dict, seconds: float, workdir) -> dict:
    """Sweeps in a closed loop until ``seconds`` have passed (at least one)."""
    tr = Tracer()
    per_sweep, counter_sets, failures = [], [], []
    micro: dict[str, list[float]] = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        checks = wl.Checks()
        attempted += 1
        n_before = len(tr.spans)
        try:
            counters = sweep(tr, inputs, workdir, checks, micro)
            metrics = sweep_metrics(tr, n_before, counters)
        except Exception as exc:  # a failing sweep is counted, not fatal
            checks.failures.append(f"sweep {attempted}: {type(exc).__name__}: {exc}")
        else:
            counters.update((name, metrics[name]) for name in COUNTS)
            if counter_sets:
                checks.require(counters == counter_sets[0], f"sweep {attempted}: counters did not repeat")
            counter_sets.append(counters)
            per_sweep.append(metrics)
        if checks.failures:
            failed += 1
            failures.extend(checks.failures)
    metrics = {}
    if per_sweep:
        for name in per_sweep[0]:
            values = [m[name] for m in per_sweep]
            metrics[name] = values[0] if name in COUNTS else statistics.median(values)
        for name, values in micro.items():
            metrics[name] = statistics.median(values)
        # spans recorded per sweep times the cost of one span, against the sweep's length
        sweep_s = statistics.median(_dur(s) for s in tr.spans if s["name"] == "sweep")
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.spans"] * 1e-6 * metrics["trace.span_us"] / sweep_s
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "sweeps": len(per_sweep),
        "metrics": metrics,
        "counters": counter_sets[0] if counter_sets else None,
        "classify_windows_per_s": [s["windows_per_s"] for s in tr.spans if s["name"] == "classify"],
        "micro": MICRO,
        "spans": tr.spans,
        "self_s": _self_time_by_name(tr),
    }


def _self_time_by_name(tr: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for sid, t in tr.self_times().items():
        name = tr.spans[sid]["name"]
        out[name] = out.get(name, 0.0) + t
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
