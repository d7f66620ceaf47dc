"""The hierarchical few-shot adaptation pipeline.

Stages, in optimization order: cluster the source windows with a GMM; train
one LSTM expert per cluster on that cluster's windows alone; route each
labeled target shot to the expert giving its true label the most probability
(falling back to the cluster whose label histogram favors that label when no
expert predicts it correctly); train a softmax-regression gate from shot
features to the routed cluster ids; retrain a fresh expert per cluster on its
source windows plus its assigned shots.  Inference gates an unseen window to
a cluster and answers with that cluster's retrained expert.

A model-selection protocol wraps the whole fit: ten seeded runs scored on the
shots themselves, then five evaluation refits reporting mean test accuracy.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .gmm import GmmParams, gmm_assign, gmm_fit
from .ingest import StandardizationStats, WindowSample, flatten_windows, stack_windows
from .nets.common import TrainConfig
from .nets.lstm import LstmParams, lstm_loss, lstm_predict, lstm_predict_proba, lstm_train_many
from .nets.softmax_regression import (
    SoftmaxRegressionParams,
    softmax_loss,
    softmax_predict_proba,
    softmax_train,
)
from .serialize import from_json, to_json

log = logging.getLogger(__name__)

_STAGE_IDS = {"gmm": 0, "expert": 1, "adapt": 2, "gate": 3}

_CONSTANT_GATE_LOGIT = -1e3


def stage_seed(base_seed: int, stage: str, index: int = 0) -> int:
    """Deterministic per-stage RNG seed derived from the run seed."""
    ss = np.random.SeedSequence((int(base_seed), _STAGE_IDS[stage], int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ClusterExpert:
    cluster_id: int
    expert_before: LstmParams  # trained on this cluster's source windows alone
    expert_after: LstmParams | None  # fresh net retrained with the assigned shots
    source_label_histogram: np.ndarray  # counts of labels 1..4, shape (4,)


@dataclass(frozen=True)
class GateModel:
    params: SoftmaxRegressionParams
    n_clusters: int

    def predict_proba(self, flats: np.ndarray) -> np.ndarray:
        return softmax_predict_proba(self.params, flats)


@dataclass(frozen=True)
class HierarchicalModel:
    gmm: GmmParams
    experts: tuple[ClusterExpert, ...]
    gate: GateModel
    stats: StandardizationStats
    shot_assignments: tuple[int, ...]  # cluster id per shot, in shot order
    fit_seed: int | None = None

    def __post_init__(self):
        """Every part must describe the same k clusters and the same window
        width, so a hand-edited or mixed-up model file fails at load time."""
        k = self.gmm.k
        if len(self.experts) != k:
            raise ValueError(f"{len(self.experts)} experts for a {k}-component mixture")
        if self.gate.n_clusters != k or self.gate.params.n_classes != k:
            raise ValueError(
                f"gate has n_clusters={self.gate.n_clusters} and {self.gate.params.n_classes} classes"
                f" for a {k}-component mixture"
            )
        ids = [e.cluster_id for e in self.experts]
        if ids != list(range(k)):
            raise ValueError(f"expert cluster ids must be 0..{k - 1} in order, got {ids}")
        p = self.gmm.p
        if self.gate.params.input_dim != p:
            raise ValueError(f"gate input is {self.gate.params.input_dim}-dimensional, mixture is {p}-dimensional")
        for e in self.experts:
            for name, net in (("expert_before", e.expert_before), ("expert_after", e.expert_after)):
                if net is not None and 2 * net.input_dim != p:
                    raise ValueError(
                        f"cluster {e.cluster_id} {name} reads {net.input_dim}-dim frames, mixture windows are {p}-dim"
                    )
        if 2 * self.stats.mean.shape[0] != p or self.stats.std.shape != self.stats.mean.shape:
            raise ValueError(
                f"stats mean {self.stats.mean.shape} and std {self.stats.std.shape} do not fit {p}-dim windows"
            )


@dataclass(frozen=True)
class SelectionReport:
    shot_accuracies: tuple[float, ...]  # one per selection run
    selected_run: int
    eval_accuracies: tuple[float, ...]  # one per evaluation refit (mean over target files)
    mean_test_accuracy: float
    eval_file_accuracies: tuple[tuple[float, ...], ...]  # (evals, files) detail

    def __post_init__(self):
        if self.shot_accuracies and self.selected_run != int(np.argmax(self.shot_accuracies)):
            raise ValueError("selected run must be the shot-accuracy argmax (earliest tie)")


def _histogram(labels: np.ndarray) -> np.ndarray:
    return np.bincount(labels, minlength=5)[1:5]


def _cluster_members(assignment: np.ndarray, k: int) -> list[np.ndarray]:
    """Source-window indices of each cluster; an empty cluster is an error."""
    members = []
    for c in range(k):
        idx = np.flatnonzero(assignment == c)
        if idx.size == 0:
            raise ValueError(f"cluster {c} received no source windows; retry with a different seed")
        members.append(idx)
    return members


def _train_networks(stage: str, jobs: Sequence[tuple[np.ndarray, np.ndarray, TrainConfig, int]]) -> list[LstmParams]:
    """Train (X, y, run config, cluster id) jobs in one lockstep call; each
    network seeds from ``stage_seed(run seed, stage, cluster id)``."""
    return lstm_train_many(
        [X for X, _, _, _ in jobs],
        [y for _, y, _, _ in jobs],
        [replace(cfg, seed=stage_seed(cfg.seed, stage, c)) for _, _, cfg, c in jobs],
    )


def _train_source_experts(
    X: np.ndarray, y: np.ndarray, members_per_run: Sequence[list[np.ndarray]], configs: Sequence[TrainConfig]
) -> list[list[ClusterExpert]]:
    """Stage 2 for many runs: every run's per-cluster experts in one lockstep call."""
    jobs = [(X[idx], y[idx], cfg, c) for members, cfg in zip(members_per_run, configs) for c, idx in enumerate(members)]
    params = iter(_train_networks("expert", jobs))
    return [
        [ClusterExpert(c, next(params), None, _histogram(y[idx])) for c, idx in enumerate(members)]
        for members in members_per_run
    ]


def _train_cluster_experts(
    windows: Sequence[WindowSample], assignment: np.ndarray, k: int, config: TrainConfig
) -> list[ClusterExpert]:
    members = _cluster_members(assignment, k)
    X, y = stack_windows(windows)
    return _train_source_experts(X, y, [members], [config])[0]


def _fit_source_many(source_windows: Sequence[WindowSample], k: int, configs: Sequence[TrainConfig]):
    """Stages 1-2 for several seeds: one GMM per config, then all k experts of
    every config in one lockstep call.  Returns (gmms, members, experts), one
    entry per config, and the stacked source (X, y)."""
    flats = flatten_windows(source_windows)
    if flats.shape[0] < k:
        raise ValueError(f"need at least k={k} source windows, got {flats.shape[0]}")
    gmms, members = [], []
    for cfg in configs:
        gmms.append(gmm_fit(flats, k=k, seed=stage_seed(cfg.seed, "gmm")))
        members.append(_cluster_members(gmm_assign(gmms[-1], flats), k))
    X, y = stack_windows(source_windows)
    return gmms, members, _train_source_experts(X, y, members, configs), (X, y)


def fit_source(source_windows: Sequence[WindowSample], k: int = 2, config: TrainConfig = TrainConfig()):
    """Cluster the source and train the per-cluster experts (pre-adaptation).

    Returns (GmmParams, experts); each expert carries its cluster's label
    histogram for the routing fallback.
    """
    gmms, _, experts, _ = _fit_source_many(source_windows, k, [config])
    return gmms[0], experts[0]


def route_few_shot(experts: Sequence[ClusterExpert], shots: Sequence[WindowSample]) -> tuple[int, ...]:
    """Assign each labeled shot to a cluster.

    Primary rule: the expert giving the shot's true label the highest
    probability, provided at least one expert actually predicts that label.
    Fallback: the cluster whose source label histogram counts that label most
    often.  All ties go to the lower cluster id.
    """
    X, y = stack_windows(shots)
    y_idx = y - 1
    probs = np.stack([lstm_predict_proba(e.expert_before, X) for e in experts])  # (k, n, C)
    p_true = probs[:, np.arange(len(shots)), y_idx]  # (k, n)
    predicts_true = probs.argmax(axis=2) == y_idx[None, :]  # (k, n)
    hist = np.stack([e.source_label_histogram for e in experts])  # (k, 4)

    assignments = []
    for j in range(len(shots)):
        if predicts_true[:, j].any():
            assignments.append(int(np.argmax(p_true[:, j])))
        else:
            assignments.append(int(np.argmax(hist[:, y_idx[j]])))
    return tuple(assignments)


def _train_adapted(
    experts_per_run: Sequence[Sequence[ClusterExpert]],
    sets_per_run: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    configs: Sequence[TrainConfig],
) -> list[list[ClusterExpert]]:
    """Stage 4 for many runs: a fresh expert per cluster on its (X, y) set,
    every run's experts in one lockstep call."""
    jobs = [
        (X, y, cfg, e.cluster_id)
        for experts, sets, cfg in zip(experts_per_run, sets_per_run, configs)
        for e, (X, y) in zip(experts, sets)
    ]
    params = iter(_train_networks("adapt", jobs))
    return [[replace(e, expert_after=next(params)) for e in experts] for experts in experts_per_run]


def adapt_experts(
    experts: Sequence[ClusterExpert],
    source_windows_by_cluster: Sequence[Sequence[WindowSample]],
    shots: Sequence[WindowSample],
    assignments: Sequence[int],
    config: TrainConfig,
) -> list[ClusterExpert]:
    """Retrain a fresh expert per cluster on its source windows plus assigned shots.

    The pre-adaptation experts are kept untouched on the returned objects; a
    cluster with no assigned shots simply retrains on its source windows.
    """
    if len(assignments) != len(shots):
        raise ValueError("assignments must cover all shots")
    sets = [
        stack_windows(
            list(source_windows_by_cluster[e.cluster_id]) + [s for s, a in zip(shots, assignments) if a == e.cluster_id]
        )
        for e in experts
    ]
    return _train_adapted([experts], [sets], [config])[0]


def fit_gate(
    shots: Sequence[WindowSample],
    assignments: Sequence[int],
    n_clusters: int,
    l2: float = 1e-4,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> GateModel:
    """Train the shot-features -> cluster-id router.

    When every shot lands in one cluster the gate degenerates to a constant
    classifier for that cluster.
    """
    if not shots:
        raise ValueError("cannot fit a gate without shots")
    flats = flatten_windows(shots)
    y = np.asarray(assignments, dtype=np.int64)
    distinct = set(y.tolist())
    if len(distinct) == 1:
        c = distinct.pop()
        bias = np.full(n_clusters, _CONSTANT_GATE_LOGIT)
        bias[c] = 0.0
        params = SoftmaxRegressionParams(weights=np.zeros((n_clusters, flats.shape[1])), bias=bias)
        return GateModel(params=params, n_clusters=n_clusters)
    return GateModel(params=softmax_train(flats, y, n_clusters, l2=l2, max_iter=max_iter, tol=tol), n_clusters=n_clusters)


def _fit_many(
    source_windows: Sequence[WindowSample],
    shots: Sequence[WindowSample],
    k: int,
    configs: Sequence[TrainConfig],
    stats: StandardizationStats | None,
    gate_l2: float,
) -> list[HierarchicalModel]:
    """``fit`` once per config, stage by stage across the configs.

    GMM, routing and gate run per config; the source experts of all configs
    train in one ``lstm_train_many`` call, and so do the adapted experts.  Each
    model is bit-identical to what a lone fit with its config would build.
    """
    gmms, members, experts, (X, y) = _fit_source_many(source_windows, k, configs)
    routes, gates = [], []
    for run_experts in experts:
        routes.append(route_few_shot(run_experts, shots))
        gates.append(fit_gate(shots, routes[-1], k, l2=gate_l2))
    shot_X, shot_y = stack_windows(shots)
    sets = []
    for run_members, route in zip(members, routes):
        to = np.asarray(route)  # each cluster trains on its source windows plus its routed shots
        sets.append(
            [
                (np.concatenate([X[idx], shot_X[to == c]]), np.concatenate([y[idx], shot_y[to == c]]))
                for c, idx in enumerate(run_members)
            ]
        )
    experts = _train_adapted(experts, sets, configs)
    if stats is None:
        stats = StandardizationStats.identity(source_windows[0].x.shape[1])
    return [
        HierarchicalModel(
            gmm=gmm, experts=tuple(run_experts), gate=gate, stats=stats, shot_assignments=route, fit_seed=cfg.seed
        )
        for gmm, run_experts, gate, route, cfg in zip(gmms, experts, gates, routes, configs)
    ]


def fit(
    source_windows: Sequence[WindowSample],
    shots: Sequence[WindowSample],
    k: int = 2,
    config: TrainConfig = TrainConfig(),
    stats: StandardizationStats | None = None,
    gate_l2: float = 1e-4,
) -> HierarchicalModel:
    """Run all stages once and assemble the full model."""
    return _fit_many(source_windows, shots, k, [config], stats, gate_l2)[0]


def predict(model: HierarchicalModel, window) -> int:
    """Gate the window to a cluster, answer with that cluster's adapted expert."""
    x = window.x if isinstance(window, WindowSample) else np.asarray(window, dtype=np.float64)
    return int(predict_batch(model, x[None])[0])


def predict_batch(model: HierarchicalModel, windows) -> np.ndarray:
    """Vectorized ``predict`` over (n, 2, d) windows or a WindowSample list."""
    if isinstance(windows, np.ndarray):
        X = windows.astype(np.float64, copy=False)
    else:
        X, _ = stack_windows(windows)
    flats = X.reshape(X.shape[0], -1)
    clusters = np.argmax(model.gate.predict_proba(flats), axis=1)
    out = np.empty(X.shape[0], dtype=np.int64)
    for c in np.unique(clusters):
        idx = np.flatnonzero(clusters == c)
        expert = model.experts[int(c)].expert_after
        if expert is None:
            raise ValueError(f"cluster {c} expert has not been adapted")
        out[idx] = lstm_predict(expert, X[idx])
    return out


def fit_selected(
    source_windows: Sequence[WindowSample],
    shots: Sequence[WindowSample],
    test_pools: Sequence[Sequence[WindowSample]],
    k: int = 2,
    runs: int = 10,
    evals: int = 5,
    config: TrainConfig = TrainConfig(),
    stats: StandardizationStats | None = None,
    gate_l2: float = 1e-4,
    eval_mode: str = "refit",
) -> tuple[HierarchicalModel, SelectionReport]:
    """The full selection protocol around ``fit``.

    Fits ``runs`` times with seeds config.seed + 0..runs-1, scores each run by
    its accuracy on the shots themselves (through its own gate and adapted
    experts), and keeps the argmax run.  Then reports test accuracy from
    ``evals`` further fits with fresh seeds ("refit" mode, the default) or
    from re-evaluating the selected model ("repredict" mode, where a
    deterministic model yields identical entries).  Test labels are touched
    only by the accuracy bookkeeping, never by any fit.

    All the fits (the ``runs`` selection seeds, plus the ``evals`` refit
    seeds in "refit" mode) run together, stage by stage: the source experts
    of every seed train in one lockstep ``lstm_train_many`` call, and so do
    the adapted experts.  The result is bit-identical to calling ``fit`` once
    per seed: the same models, the same report, the same model bytes.
    """
    if eval_mode not in ("refit", "repredict"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    if runs < 1 or evals < 1:
        raise ValueError("need at least one selection run and one evaluation")
    shot_X, shot_y = stack_windows(shots)
    pools = [stack_windows(p) for p in test_pools if len(p) > 0]
    if len(pools) != len(test_pools):
        log.warning("ignoring %d empty test pool(s)", len(test_pools) - len(pools))

    n_fits = runs + evals if eval_mode == "refit" else runs
    models = _fit_many(
        source_windows, shots, k, [replace(config, seed=config.seed + r) for r in range(n_fits)], stats, gate_l2
    )
    shot_accs = [float(np.mean(predict_batch(m, shot_X) == shot_y)) for m in models[:runs]]
    best_model = models[int(np.argmax(shot_accs))]

    eval_accs: list[float] = []
    eval_file_accs: list[tuple[float, ...]] = []
    for j in range(evals):
        m = models[runs + j] if eval_mode == "refit" else best_model
        file_accs = tuple(float(np.mean(predict_batch(m, X) == y)) for X, y in pools)
        eval_file_accs.append(file_accs)
        eval_accs.append(float(np.mean(file_accs)) if file_accs else float("nan"))

    report = SelectionReport(
        shot_accuracies=tuple(shot_accs),
        selected_run=int(np.argmax(shot_accs)),
        eval_accuracies=tuple(eval_accs),
        mean_test_accuracy=float(np.mean(eval_accs)) if eval_accs else float("nan"),
        eval_file_accuracies=tuple(eval_file_accs),
    )
    return best_model, report


@dataclass(frozen=True)
class ObjectiveValues:
    """The three staged training objectives, evaluated on fitted parameters."""

    source_expert_loss: float  # mean CE of pre-adaptation experts on their own clusters
    gate_loss: float  # mean CE of the gate on the routed shots
    adapted_expert_loss: float  # mean CE of adapted experts on source + shots

    @property
    def staged(self) -> tuple[float, float, float]:
        """The composite objective: the three values in stage order."""
        return (self.source_expert_loss, self.gate_loss, self.adapted_expert_loss)


def evaluate_objective(
    model: HierarchicalModel, source_windows: Sequence[WindowSample], shots: Sequence[WindowSample]
) -> ObjectiveValues:
    flats = flatten_windows(source_windows)
    assignment = gmm_assign(model.gmm, flats)
    X, y = stack_windows(source_windows)

    total_before = 0.0
    total_after = 0.0
    n_after = 0
    shot_X, shot_y = (stack_windows(shots) if shots else (None, None))
    shot_assign = np.asarray(model.shot_assignments, dtype=np.int64)
    for e in model.experts:
        idx = np.flatnonzero(assignment == e.cluster_id)
        if idx.size:
            total_before += lstm_loss(e.expert_before, X[idx], y[idx]) * idx.size
        # adapted experts are scored on the same augmented set they trained on
        Xa = [X[idx]] if idx.size else []
        ya = [y[idx]] if idx.size else []
        if shots:
            sel = np.flatnonzero(shot_assign == e.cluster_id)
            if sel.size:
                Xa.append(shot_X[sel])
                ya.append(shot_y[sel])
        if Xa:
            Xc = np.concatenate(Xa)
            yc = np.concatenate(ya)
            total_after += lstm_loss(e.expert_after, Xc, yc) * len(yc)
            n_after += len(yc)

    e1 = total_before / len(source_windows)
    e2 = softmax_loss(model.gate.params, flatten_windows(shots), shot_assign, l2=0.0) if shots else 0.0
    e3 = total_after / n_after
    return ObjectiveValues(source_expert_loss=e1, gate_loss=float(e2), adapted_expert_loss=e3)


def model_to_json_bytes(model) -> bytes:
    """Canonical bytes of a model, or of any dataclass the codec encodes:
    sorted keys, no indentation.  Digests and model files use them."""
    return json.dumps(to_json(model), sort_keys=True).encode("utf-8")


def model_digest(model: HierarchicalModel) -> str:
    return hashlib.sha256(model_to_json_bytes(model)).hexdigest()


def save_model(model: HierarchicalModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_json_bytes(model))


def load_model(path) -> HierarchicalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(HierarchicalModel, json.load(fh))
