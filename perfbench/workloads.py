"""Workload inputs, set-up and the untraced closed-loop operations.

Every input is generated from the workload seed and written as CSV (plus, for
the traced classify pass, a saved model file); the measured operations read
only those files through the package's public API.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import noseda
from noseda import pipeline
from noseda.ingest import (
    apply_standardizer,
    fit_standardizer,
    harmonize,
    load_dataset,
    make_windows,
    sample_few_shot,
    stack_windows,
)
from noseda.nets.common import TrainConfig

# The paper trains for 100 epochs; one `ours` experiment then takes ~45 s on a
# 2-core machine, longer than one benchmark run may last.  Every workload
# trains for EPOCHS instead, on every commit.
EPOCHS = 10
K = 2
RUNS = 10
EVALS = 5
BATCH_SIZE = 32
DROPOUT = 0.2
LEARNING_RATE = 1e-3
PER_CLASS = 4

# A run repeats its operation at least MIN_OPS times, so that it reports a
# median, and keeps going until its time is up.
MIN_OPS = 3

BASELINE_METHODS = ("lr", "adaboost", "ss", "dnn", "lstm")

# The traced run's classify pass: a directory of 12 target files of 20k rows,
# like dataset3's layout.
CLASSIFY_FILES = 12
CLASSIFY_ROWS = 20_000


def benchmark_spec(seed: int) -> noseda.SyntheticDomainSpec:
    """The acceptance suite's criterion-5 shape: two local source sub-domains
    with conflicting label mappings, and a shifted, skewed target aligned
    with the first sub-domain."""
    means = np.zeros((4, 6))
    means[:, 0] = [0.0, 3.0, 6.0, 9.0]
    return noseda.SyntheticDomainSpec.create(
        class_means=means,
        class_scales=[1.0] * 4,
        source_priors=[0.167, 0.250, 0.277, 0.306],
        target_priors=[0.111, 0.306, 0.139, 0.444],
        shift=[0.3, 0.15, 0.0, 0.0, 0.0, 0.0],
        source_length=2000,
        target_length=2000,
        source_subgroups=2,
        target_subgroups=1,
        subgroup_separation=3.0,
        subgroup_direction=[0, 0, 1, 1, 1, 1],
        subgroup_label_permutations=[(0, 1, 2, 3), (2, 3, 0, 1)],
        block_length=10,
        seed=seed,
    )


def derived_seed(seed: int, *path: int) -> int:
    """A generator seed below 2**31, derived from the workload seed."""
    return int(np.random.SeedSequence((int(seed), *path)).generate_state(1)[0] >> 1)


def train_config(seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=EPOCHS, dropout=DROPOUT, learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE, seed=seed
    )


def experiment_config(pair: dict, method: str) -> noseda.ExperimentConfig:
    return noseda.ExperimentConfig(
        source=(pair["source"],),
        target=(pair["target"],),
        method=method,
        seed=pair["seed"],
        k=K,
        per_class=PER_CLASS,
        runs=RUNS,
        evals=EVALS,
        eval_mode="repredict",
        epochs=EPOCHS,
        dropout=DROPOUT,
        learning_rate=LEARNING_RATE,
        batch_size=BATCH_SIZE,
    )


def settings() -> dict:
    """The fixed sizes every run records next to its metrics."""
    return {
        "epochs": EPOCHS,
        "k": K,
        "runs": RUNS,
        "evals": EVALS,
        "eval_mode": "repredict",
        "batch_size": BATCH_SIZE,
        "dropout": DROPOUT,
        "learning_rate": LEARNING_RATE,
        "per_class": PER_CLASS,
        "min_ops": MIN_OPS,
        "classify_files": CLASSIFY_FILES,
        "classify_rows_per_file": CLASSIFY_ROWS,
    }


# ---------------------------------------------------------------------------
# Set-up


def load_pair_windows(pair: dict):
    """Ingest a pair the way ``run_experiment`` does; returns
    (source windows, shots, test pool, stats)."""
    source = [harmonize(ds) for ds in load_dataset(pair["source"])]
    target = [harmonize(ds) for ds in load_dataset(pair["target"])]
    stats = fit_standardizer(source)
    source_windows = [w for ds in source for w in make_windows(apply_standardizer(ds, stats))]
    target_windows = [w for ds in target for w in make_windows(apply_standardizer(ds, stats))]
    split = sample_few_shot(target_windows, per_class=PER_CLASS, seed=pair["seed"])
    return source_windows, list(split.shots), list(split.test_pool), stats


def setup(seed: int, workdir: Path, classify: bool) -> dict:
    """Write the seeded pair under ``workdir`` (emptied first); with
    ``classify``, also fit and save a model and write the 12 target files."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    pair_seed = derived_seed(seed, 0)
    source, target = noseda.synthesize_domains(benchmark_spec(pair_seed))
    noseda.write_dataset_csv(source, workdir / "source.csv")
    noseda.write_dataset_csv(target, workdir / "target.csv")
    pair = {"seed": pair_seed, "source": str(workdir / "source.csv"), "target": str(workdir / "target.csv")}
    inputs = {"pair": pair}
    if classify:
        source_windows, shots, _, stats = load_pair_windows(pair)
        model = pipeline.fit(source_windows, shots, k=K, config=train_config(pair_seed), stats=stats)
        pipeline.save_model(model, workdir / "model.json")
        target_dir = workdir / "targets"
        target_dir.mkdir()
        for i in range(CLASSIFY_FILES):
            spec = dataclasses.replace(
                benchmark_spec(derived_seed(seed, 1, i)), source_length=2, target_length=CLASSIFY_ROWS
            )
            _, target = noseda.synthesize_domains(spec)
            noseda.write_dataset_csv(target, target_dir / f"target_{i + 1:02d}.csv")
        inputs.update(model=str(workdir / "model.json"), target_dir=str(target_dir))
    return inputs


# ---------------------------------------------------------------------------
# Correctness checks shared by the untraced and traced runs


class Checks:
    """Collects failed checks of the current operation."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def accuracy(self, value: float, what: str) -> None:
        self.require(0.0 <= value <= 1.0, f"{what}: accuracy {value} outside [0, 1]")

    def predictions(self, preds: np.ndarray, n_windows: int, what: str) -> None:
        self.require(preds.shape == (n_windows,), f"{what}: {preds.shape[0]} predictions for {n_windows} windows")
        self.require(bool(np.all((preds >= 1) & (preds <= 4))), f"{what}: prediction outside 1..4")

    def selection(self, sel: dict | None, what: str) -> None:
        if sel is None:
            self.failures.append(f"{what}: no selection report")
            return
        shots = sel["shot_accuracies"]
        self.require(len(shots) == RUNS, f"{what}: {len(shots)} shot accuracies, expected {RUNS}")
        self.require(len(sel["eval_accuracies"]) == EVALS, f"{what}: {len(sel['eval_accuracies'])} eval accuracies")
        self.require(sel["selected_run"] == int(np.argmax(shots)), f"{what}: selected run is not the argmax")
        for a in list(shots) + list(sel["eval_accuracies"]):
            self.accuracy(a, what)


def check_result(checks: Checks, result: noseda.ExperimentResult, what: str) -> None:
    checks.accuracy(result.pair_accuracy, what)
    for a in result.file_accuracies:
        checks.accuracy(a, what)


def predictions_digest(preds: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for p in preds:
        h.update(np.ascontiguousarray(p, dtype=np.int64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Untraced operations.  Each returns (details, fingerprint, accuracy, wall
# seconds); the fingerprint and accuracy of every repetition must be equal.


def op_protocol(inputs: dict, checks: Checks):
    t0 = time.perf_counter()
    result = noseda.run_experiment(experiment_config(inputs["pair"], "ours"))
    wall = time.perf_counter() - t0
    check_result(checks, result, "ours")
    checks.selection(result.selection, "ours")
    return {"ours_s": wall}, result.model_digest, result.pair_accuracy, wall


def op_baselines(inputs: dict, checks: Checks):
    times, digests, accs = {}, [], []
    t0 = time.perf_counter()
    for method in BASELINE_METHODS:
        t = time.perf_counter()
        result = noseda.run_experiment(experiment_config(inputs["pair"], method))
        times[f"{method}_s"] = time.perf_counter() - t
        check_result(checks, result, method)
        digests.append(result.model_digest)
        accs.append(result.pair_accuracy)
    wall = time.perf_counter() - t0
    return times, "|".join(digests), float(np.mean(accs)), wall


def classify_pass(model_path: str, target_dir: str, checks: Checks, span=None):
    """load_model, load_dataset, then per file harmonize, standardize, window,
    stack and predict_batch.  ``span`` (a tracer's context factory) wraps each
    public call when given.  Returns (predictions per file, accuracy per file)."""
    span = span or (lambda name, **attrs: nullcontext())
    with span("pipeline.load_model"):
        model = pipeline.load_model(model_path)
    with span("ingest.load_dataset") as s:
        datasets = load_dataset(target_dir)
    if s is not None:
        s["rows"] = sum(len(ds) for ds in datasets)
    preds, accs = [], []
    for ds in datasets:
        with span("ingest.harmonize"):
            ds = harmonize(ds)
        with span("ingest.apply_standardizer"):
            ds = apply_standardizer(ds, model.stats)
        with span("ingest.make_windows"):
            windows = make_windows(ds)
        with span("ingest.stack_windows"):
            X, y = stack_windows(windows)
        with span("pipeline.predict_batch", windows=len(windows)):
            p = pipeline.predict_batch(model, X)
        checks.predictions(p, len(windows), ds.name)
        acc = float(np.mean(p == y))
        checks.accuracy(acc, ds.name)
        preds.append(p)
        accs.append(acc)
    return preds, accs


OPERATIONS = {"protocol": op_protocol, "baselines": op_baselines}


def measure(workload: str, inputs: dict, seconds: float) -> dict:
    """Closed loop, one operation at a time, until ``seconds`` have passed and
    at least MIN_OPS operations have run."""
    op = OPERATIONS[workload]
    details, failures = [], []
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPS or time.perf_counter() < deadline:
        checks = Checks()
        attempted += 1
        try:
            detail, fingerprint, acc, wall = op(inputs, checks)
        except Exception as exc:  # a failing operation is counted, not fatal
            checks.failures.append(f"operation {attempted}: {type(exc).__name__}: {exc}")
        else:
            if first is None:
                first = (fingerprint, acc)
            checks.require((fingerprint, acc) == first, f"operation {attempted}: rerun is not bit-exact")
            details.append({"op_s": wall, **detail, "accuracy_pct": 100.0 * acc})
        if checks.failures:
            failed += 1
            failures.extend(checks.failures)
    per_op = {}
    for key in details[0] if details else ():
        values = [d[key] for d in details]
        per_op[key] = {"median": statistics.median(values), "n": len(values), "values": values}
    return {"attempted": attempted, "failed": failed, "failures": failures, "per_op": per_op}
