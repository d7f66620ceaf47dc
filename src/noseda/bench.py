"""Experiment harness: configs, the seeded two-domain synthetic generator,
accuracy metrics, and matrix-style reporting.

An experiment is one (source, target) dataset pair and one method.  The
target contributes 4 labeled windows per class to training; everything else
is the held-out test pool, scored per target file and averaged unweighted.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import json
import logging
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import baselines, pipeline
from .ingest import (
    DEFAULT_DROP,
    SequenceDataset,
    StandardizationStats,
    WindowSet,
    apply_standardizer,
    as_window_set,
    fit_standardizer,
    harmonize,
    load_dataset,
    make_windows,
    sample_few_shot,
)
from .nets.common import TrainConfig
from .nets.lstm import lstm_predict, lstm_train
from .nets.mlp import mlp_predict_labels, mlp_train
from .nets.softmax_regression import softmax_predict_proba, softmax_train
from .serialize import to_json, write_atomic

log = logging.getLogger(__name__)

METHODS = ("ours", "lr", "adaboost", "ss", "dnn", "lstm")

_METHOD_DISPLAY = {"lr": "LR", "adaboost": "AB", "ss": "SS", "dnn": "DNN", "lstm": "LSTM", "ours": "Ours"}
_REPORT_ORDER = ("lr", "adaboost", "ss", "dnn", "lstm", "ours")


def accuracy(predictions, labels) -> float:
    """Fraction of exact matches."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValueError("empty prediction list")
    return float(np.mean(p == y))


def macro_accuracy(predictions, labels) -> float:
    """Mean per-class recall over the classes present in ``labels``."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must be nonempty and equal-length")
    recalls = [float(np.mean(p[y == c] == c)) for c in sorted(set(y.tolist()))]
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# Synthetic two-domain generator


@dataclass(frozen=True)
class SyntheticDomainSpec:
    """Seeded generator of a (source, target) pair with controllable shifts.

    Labels are drawn blockwise from each domain's priors (runs of
    ``block_length`` frames share a class, mimicking slow quality decay).
    Features come from per-class Gaussians.  Latent sub-groups displace the
    whole feature cloud by ``subgroup_separation`` along the unit vector
    ``subgroup_direction`` (default: the last feature axis) per sub-group,
    and may additionally remap which class uses which mean row
    (``subgroup_label_permutations``), creating genuinely different local
    feature-label relationships.  Target features are offset by ``shift``.
    """

    class_means: np.ndarray  # (4, d)
    class_scales: np.ndarray  # (4,)
    source_priors: np.ndarray  # (4,)
    target_priors: np.ndarray  # (4,)
    shift: np.ndarray  # (d,)
    source_length: int = 2000
    target_length: int = 2000
    source_subgroups: int = 1
    target_subgroups: int = 1
    subgroup_separation: float = 0.0
    subgroup_direction: np.ndarray | None = None
    subgroup_label_permutations: tuple[tuple[int, ...], ...] | None = None
    block_length: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("class_means", "class_scales", "source_priors", "target_priors", "shift", "subgroup_direction"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=np.float64)  # a float64 array passes as is
                object.__setattr__(self, name, value)
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{name} must be finite, got {value.tolist()}")
        if not np.isfinite(self.subgroup_separation):
            raise ValueError(f"subgroup_separation must be finite, got {self.subgroup_separation}")
        for name in ("source_priors", "target_priors"):
            pr = getattr(self, name)
            if pr.shape != (4,) or abs(float(pr.sum()) - 1.0) > 1e-9 or np.any(pr < 0):
                raise ValueError(f"{name} must be a 4-simplex")
        if self.class_means.ndim != 2 or self.class_means.shape[0] != 4 or self.class_scales.shape != (4,):
            raise ValueError("need per-class means (4, d) and scales (4,)")
        if np.any(self.class_scales <= 0):
            raise ValueError("class scales must be positive")
        if self.source_length < 2 or self.target_length < 2:
            raise ValueError("domain lengths must be >= 2")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        for name in ("source_subgroups", "target_subgroups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.shift.shape != (self.class_means.shape[1],):
            raise ValueError("shift must match the feature dimension")
        if self.subgroup_direction is not None:
            if self.subgroup_direction.shape != (self.class_means.shape[1],):
                raise ValueError("subgroup_direction must match the feature dimension")
            norm = float(np.linalg.norm(self.subgroup_direction))
            if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
                raise ValueError(
                    f"subgroup_direction must be a unit vector, got {self.subgroup_direction} (norm {norm})"
                )
        if self.subgroup_label_permutations is not None:
            n_groups = max(self.source_subgroups, self.target_subgroups)
            if len(self.subgroup_label_permutations) < n_groups:
                raise ValueError(
                    f"subgroup_label_permutations has {len(self.subgroup_label_permutations)} permutation(s)"
                    f" for {n_groups} subgroups"
                )
            for perm in self.subgroup_label_permutations:
                if sorted(perm) != [0, 1, 2, 3]:
                    raise ValueError(f"{perm} is not a permutation of 0..3")

    @property
    def n_features(self) -> int:
        return self.class_means.shape[1]

    @classmethod
    def create(cls, class_means, shift=0.0, **kwargs) -> "SyntheticDomainSpec":
        """A scalar ``shift`` broadcasts over features, the permutations become
        tuples and ``subgroup_direction`` is scaled to unit length."""
        if np.ndim(shift) == 0:
            shift = np.full(np.shape(class_means)[1], float(shift))
        perms = kwargs.pop("subgroup_label_permutations", None)
        if perms is not None:
            perms = tuple(tuple(int(i) for i in p) for p in perms)
        direction = kwargs.pop("subgroup_direction", None)
        if direction is not None:
            direction = np.asarray(direction, dtype=np.float64)
            norm = np.linalg.norm(direction)
            if 0 < norm < np.inf:  # anything else fails the unit-norm check
                direction = direction / norm
        kwargs.update(subgroup_direction=direction, subgroup_label_permutations=perms)
        return cls(class_means=class_means, shift=shift, **kwargs)


def _generate_domain(spec: SyntheticDomainSpec, name: str, priors, length, subgroups, shifted, rng):
    """One domain, block by block.  Each block draws, in this order, its class
    (one uniform through the priors' inverse CDF: the whole of a one-draw
    ``rng.choice(4, p=priors)``), its sub-group (only when there are several)
    and its frames' standard normals.  Scaling and shifting them afterwards,
    in place, is the ``loc + scale * z`` of ``rng.normal``."""
    d = spec.n_features
    shift = spec.shift if shifted else np.zeros(d)
    cdf = np.cumsum(priors)
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    def mean(c, g):
        row = c if spec.subgroup_label_permutations is None else spec.subgroup_label_permutations[g][c]
        mu = spec.class_means[row] + shift
        if spec.subgroup_direction is None:
            mu[-1] += g * spec.subgroup_separation
        else:
            mu = mu + g * spec.subgroup_separation * spec.subgroup_direction
        return mu

    means = np.array([[mean(c, g) for c in range(4)] for g in range(subgroups)])  # (subgroups, 4, d)
    features = np.empty((length, d))
    classes, groups = [], []
    for t in range(0, length, spec.block_length):
        classes.append(bisect.bisect_right(cdf, rng.random()))
        groups.append(int(rng.integers(subgroups)) if subgroups > 1 else 0)
        rng.standard_normal(out=features[t : t + spec.block_length])
    classes = np.repeat(np.array(classes, dtype=np.int64), spec.block_length)[:length]
    groups = np.repeat(np.array(groups, dtype=np.int64), spec.block_length)[:length]
    features *= spec.class_scales[classes][:, None]
    features += means[groups, classes]
    ds = SequenceDataset(
        name=name,
        feature_matrix=features,
        labels=classes + 1,
        t=np.arange(length),
        feature_names=tuple(f"g{i}" for i in range(d)),
    )
    return ds, groups


def synthesize_domains(spec: SyntheticDomainSpec, return_latents: bool = False):
    """Draw the (source, target) pair; optionally also the latent sub-group ids."""
    src_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    tgt_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    source, src_sub = _generate_domain(
        spec, "source", spec.source_priors, spec.source_length, spec.source_subgroups, False, src_rng
    )
    target, tgt_sub = _generate_domain(
        spec, "target", spec.target_priors, spec.target_length, spec.target_subgroups, True, tgt_rng
    )
    if return_latents:
        return source, target, src_sub, tgt_sub
    return source, target


# data rows per formatted write: bounds the writer's memory at a few MB
_CSV_CHUNK_ROWS = 4096


def write_dataset_csv(ds: SequenceDataset, path, label_column: str = "label") -> None:
    """Write ``ds`` as the CSV that ``load_csv(path, label_column)`` reads back
    bit for bit: feature columns in order, then the labels.

    Each feature cell is the float's ``repr`` and each label its integer,
    with ``\\r\\n`` line ends, the bytes ``csv.writer`` writes for these
    cells.  A header that ``load_csv`` would refuse or alter (a repeated name,
    a name with surrounding whitespace) and a non-finite feature raise
    ``ValueError`` before ``path`` is opened.  The rows go out a chunk at a
    time through ``write_atomic``, so the file appears whole or not at all.
    """
    header = [*ds.feature_names, label_column]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise ValueError(f"{ds.name}: repeated column name(s) {repeated}; label_column is {label_column!r}")
    for h in header:
        if h != h.strip():
            raise ValueError(f"{ds.name}: column name {h!r} has surrounding whitespace, which load_csv strips")
    F = ds.feature_matrix
    if not np.isfinite(F).all():
        i, j = np.argwhere(~np.isfinite(F))[0]
        raise ValueError(f"{ds.name}: column {header[j]!r} row {i + 1} is {F[i, j]}; load_csv reads finite values only")
    row, n = "%r," * F.shape[1] + "%s\r\n", _CSV_CHUNK_ROWS
    head = io.StringIO()
    csv.writer(head).writerow(header)
    body = (
        "".join([row % (*x, y) for x, y in zip(F[i : i + n].tolist(), ds.labels[i : i + n].tolist())])
        for i in range(0, len(ds), n)
    )
    write_atomic(path, chain([head.getvalue()], body))


# ---------------------------------------------------------------------------
# Experiment runner


@dataclass(frozen=True)
class ExperimentConfig:
    source: tuple[str, ...]  # files or directories of CSVs
    target: tuple[str, ...]
    method: str
    name: str | None = None
    k: int = 2
    per_class: int = 4
    runs: int = 10
    evals: int = 5
    seed: int = 0
    output: str | None = None
    standardize: bool = True
    label_column: str = "label"
    drop_columns: tuple[str, ...] = DEFAULT_DROP
    epochs: int = 100
    dropout: float = 0.2
    learning_rate: float = 1e-3
    batch_size: int = 32
    l2: float = 1e-4
    n_estimators: int = 100
    eval_mode: str = "refit"

    def __post_init__(self):
        """Range checks, so a bad config fails before any data is read."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; supported: {METHODS}")
        if self.eval_mode not in ("refit", "repredict"):
            raise ValueError(f"ExperimentConfig.eval_mode must be 'refit' or 'repredict', got {self.eval_mode!r}")
        for name in ("k", "runs", "evals", "per_class", "n_estimators"):
            if getattr(self, name) < 1:
                raise ValueError(f"ExperimentConfig.{name} must be >= 1, got {getattr(self, name)}")
        if not self.l2 >= 0:
            raise ValueError(f"ExperimentConfig.l2 must be >= 0, got {self.l2}")
        try:  # the training fields, by TrainConfig's own checks
            self.train_config()
        except ValueError as exc:
            raise ValueError(f"ExperimentConfig.{exc}") from None

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            dropout=self.dropout,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ExperimentResult:
    pair: str
    method: str
    file_names: tuple[str, ...]
    file_accuracies: tuple[float, ...]
    pair_accuracy: float
    file_macro_accuracies: tuple[float, ...]
    pair_macro_accuracy: float
    elapsed_seconds: float
    model_digest: str
    config: dict
    selection: dict | None = None

    def __post_init__(self):
        for name in ("file_accuracies", "pair_accuracy", "file_macro_accuracies", "pair_macro_accuracy"):
            per_file = name.startswith("file")
            values = getattr(self, name) if per_file else (getattr(self, name),)
            if per_file and len(values) != len(self.file_names):
                raise ValueError(f"{name} has {len(values)} entries for {len(self.file_names)} files")
            for a in values:
                if not (0.0 <= a <= 1.0):
                    raise ValueError(f"{name} {a} outside [0, 1]")


def _load_domain(paths: Sequence[str], config: ExperimentConfig) -> list[SequenceDataset]:
    datasets: list[SequenceDataset] = []
    for path in paths:
        datasets.extend(load_dataset(path, config.label_column))
    return [harmonize(ds, config.drop_columns) for ds in datasets]


def _split_targets(files: Sequence[WindowSet], per_class: int, seed: int) -> tuple[WindowSet, list[WindowSet]]:
    """The few-shot split of all target files' windows together: the shots,
    and each file's test pool (empty when all its windows became shots)."""
    split = sample_few_shot(WindowSet.concat(files), per_class=per_class, seed=seed)
    pool = split.test_pool
    return split.shots, [pool[pool.file_id == f] for f in range(len(files))]


def _ingest(config: ExperimentConfig):
    """Load, check, standardize and window both domains and split the
    targets: returns (source windows, shots, per-file test pools, stats,
    target file names).  The loaded and standardized datasets and the
    per-file windows die with this call, before any fit starts."""
    source_sets = _load_domain(config.source, config)
    target_sets = _load_domain(config.target, config)
    first = source_sets[0]
    for ds in source_sets + target_sets:
        if ds.feature_names != first.feature_names:
            raise ValueError(
                f"file {ds.name!r} has feature columns {list(ds.feature_names)}, but file {first.name!r} has"
                f" {list(first.feature_names)}: every source and target file needs the same columns in the same order"
            )

    d = len(first.feature_names)
    stats = fit_standardizer(source_sets) if config.standardize else StandardizationStats.identity(d)
    source_sets = [apply_standardizer(ds, stats) for ds in source_sets]
    target_sets = [apply_standardizer(ds, stats) for ds in target_sets]

    source = WindowSet.concat([make_windows(ds) for ds in source_sets])
    target_files = [make_windows(ds) for ds in target_sets]
    shots, test_pools = _split_targets(target_files, config.per_class, config.seed)
    for ds, windows, pool in zip(target_sets, target_files, test_pools):
        if len(pool) == 0:
            raise ValueError(
                f"target file {ds.name!r} has no test windows: the few-shot split (per_class={config.per_class}) "
                f"took all of its {len(windows)} window(s) as shots"
            )
    return source, shots, test_pools, stats, tuple(ds.name for ds in target_sets)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Ingest both domains, fit the configured method, score each target file.

    Baselines lr/adaboost/dnn/lstm train on source windows plus the few
    labeled target shots; ss trains on the source alone and grows during the
    per-file test stream; ours runs the full selection protocol.  Test-pool
    labels are consumed exclusively by accuracy bookkeeping.
    """
    t0 = time.perf_counter()
    source, shots, test_pools, stats, file_names = _ingest(config)
    model_bytes, file_accs, file_macros, selection = _run_method(config, source, shots, test_pools, stats)

    pair = config.name or f"{'+'.join(Path(p).stem for p in config.source)}-{'+'.join(Path(p).stem for p in config.target)}"
    result = ExperimentResult(
        pair=pair,
        method=config.method,
        file_names=file_names,
        file_accuracies=tuple(file_accs),
        pair_accuracy=float(np.mean(file_accs)),
        file_macro_accuracies=tuple(file_macros),
        pair_macro_accuracy=float(np.mean(file_macros)),
        elapsed_seconds=time.perf_counter() - t0,
        model_digest=hashlib.sha256(model_bytes).hexdigest(),
        config=to_json(config),
        selection=selection,
    )
    if config.output:
        write_atomic(config.output, json.JSONEncoder(indent=2).iterencode(to_json(result)))
    return result


def _train_ours(config, source, shots, pools, stats):
    return pipeline.fit_selected(
        source,
        shots,
        pools,
        k=config.k,
        runs=config.runs,
        evals=config.evals,
        config=config.train_config(),
        stats=stats,
        gate_l2=config.l2,
        eval_mode=config.eval_mode,
    )


def _ss_stream(state: baselines.NnSsState, pool: WindowSet) -> list[int]:
    """Each test file streams through its own copy of the source-only state's dicts (a join replaces pool arrays)."""
    fresh = baselines.NnSsState(dict(state.pools), dict(state.deltas), dict(state.growth))
    return baselines.ss_classify_stream(fresh, pool.flat)


def _pooled(train):
    """A baseline trainer fed the source windows plus the labeled shots."""
    return lambda config, source, shots, pools, stats: (train(config, WindowSet.concat([source, shots])), None)


# method -> (train(config, source, shots, test pools, stats) -> (model, SelectionReport | None),
#            predict(model, window set) -> labels)
_METHODS = {
    "ours": (_train_ours, lambda model, w: pipeline.predict_batch(model, w.X)),
    "lr": (
        _pooled(lambda cfg, w: softmax_train(w.flat, w.y - 1, 4, l2=cfg.l2)),
        lambda model, w: np.argmax(softmax_predict_proba(model, w.flat), axis=1) + 1,
    ),
    "adaboost": (
        _pooled(lambda cfg, w: baselines.adaboost_train(w.flat, w.y, n_estimators=cfg.n_estimators)),
        lambda model, w: baselines.adaboost_predict_many(model, w.flat),
    ),
    "ss": (lambda config, source, *_: (baselines.ss_init(source.flat, source.y), None), _ss_stream),
    "dnn": (
        _pooled(lambda cfg, w: mlp_train(w.flat, w.y, cfg.train_config())),
        lambda model, w: mlp_predict_labels(model, w.flat),
    ),
    "lstm": (
        _pooled(lambda cfg, w: lstm_train(w.X, w.y, cfg.train_config())),
        lambda model, w: lstm_predict(model, w.X),
    ),
}


def _run_method(config, source_windows, shots, test_pools, stats):
    """Returns (model_bytes, per-file accuracies, per-file macro accuracies, selection dict).

    Windows come as WindowSets or WindowSample lists.  ``ours`` takes its
    per-file accuracies from the selection protocol's evaluations; its macro
    accuracies, like every baseline's scores, come from predicting each test
    pool once with the returned model.
    """
    train, predict = _METHODS[config.method]
    pools = [as_window_set(p) for p in test_pools]
    model, report = train(config, as_window_set(source_windows), as_window_set(shots), pools, stats)
    preds = [predict(model, p) for p in pools]
    file_macros = [macro_accuracy(p, pool.y) for p, pool in zip(preds, pools)]
    if report is None:
        file_accs, selection = [accuracy(p, pool.y) for p, pool in zip(preds, pools)], None
    else:
        file_accs = [float(a) for a in np.asarray(report.eval_file_accuracies).mean(axis=0)]
        selection = to_json(report)
    return pipeline.model_to_json_bytes(model), file_accs, file_macros, selection


# ---------------------------------------------------------------------------
# Reporting


def emit_report(results: Sequence[ExperimentResult], out_base) -> tuple[Path, Path]:
    """Write all results as JSON plus a pairs-by-methods accuracy matrix.

    The matrix has one row per source-target pair, one column per method
    (accuracies in percent), and a closing Avg row of unweighted column
    means.
    """
    if not results:
        raise ValueError("no results to report")
    out_base = Path(out_base)
    json_path, table_path = out_base.with_suffix(".json"), out_base.with_suffix(".md")
    write_atomic(json_path, json.JSONEncoder(indent=2).iterencode({"results": [to_json(r) for r in results]}))

    cells = {(r.pair, r.method): r.pair_accuracy for r in results}
    pairs = list(dict.fromkeys(r.pair for r in results))
    methods = [m for m in _REPORT_ORDER if any(r.method == m for r in results)]

    def fmt(v: float | None) -> str:
        return "" if v is None else f"{100.0 * v:.2f}"

    lines = ["| Source-Target | " + " | ".join(_METHOD_DISPLAY[m] for m in methods) + " |"]
    lines.append("|" + "---|" * (len(methods) + 1))
    for pair in pairs:
        lines.append(f"| {pair} | " + " | ".join(fmt(cells.get((pair, m))) for m in methods) + " |")
    avg_cells = [fmt(float(np.mean([cells[p, m] for p in pairs if (p, m) in cells]))) for m in methods]
    lines.append("| Avg | " + " | ".join(avg_cells) + " |")
    write_atomic(table_path, (line + "\n" for line in lines))
    return json_path, table_path


# ---------------------------------------------------------------------------
# Full grid over the three beef datasets (user-supplied)


def beef_pairs(root) -> list[tuple[str, list[str], list[str]]]:
    """The 21 source-target pairs of the full cross-dataset grid."""
    root = Path(root)
    d1 = sorted(str(p) for p in (root / "dataset1").glob("*.csv"))
    d2 = sorted(str(p) for p in (root / "dataset2").glob("*.csv"))
    d3 = sorted(str(p) for p in (root / "dataset3").glob("*.csv"))
    if len(d1) != 5 or len(d2) != 1 or len(d3) != 12:
        raise FileNotFoundError(
            f"expected dataset1=5, dataset2=1, dataset3=12 csv files under {root}; "
            f"found {len(d1)}/{len(d2)}/{len(d3)}"
        )
    pairs = [("1_{1-5}-2", d1, d2)]
    for i, f in enumerate(d1, start=1):
        pairs.append((f"1_{i}-3_{{1-12}}", [f], d3))
    pairs.append(("2-1_{1-5}", d2, d1))
    pairs.append(("2-3_{1-12}", d2, d3))
    for i, f in enumerate(d3, start=1):
        pairs.append((f"3_{i}-1_{{1-5}}", [f], d1))
    pairs.append(("3_{1-12}-2", d3, d2))
    return pairs


def beef_grid(root, out_dir, methods: Sequence[str] = METHODS, seed: int = 0, **overrides) -> list[ExperimentResult]:
    """Run every (pair, method) cell over the user-supplied beef datasets.

    Writes one result JSON per cell plus a combined report under ``out_dir``.
    """
    out_dir = Path(out_dir)
    results = []
    for pair_name, sources, targets in beef_pairs(root):
        for method in methods:
            cfg = ExperimentConfig(
                source=tuple(sources),
                target=tuple(targets),
                method=method,
                name=pair_name,
                seed=seed,
                output=str(out_dir / f"{pair_name.replace('/', '_')}__{method}.json"),
                **overrides,
            )
            log.info("running %s / %s", pair_name, method)
            results.append(run_experiment(cfg))
    emit_report(results, out_dir / "report")
    return results
