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

import functools
import hashlib
import logging
import os
import pickle
import signal
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .gmm import GmmParams, gmm_assign, gmm_fit
from .ingest import StandardizationStats, Windows, WindowSet, as_window_set
from .nets.common import TrainConfig, check_labeled, cpu_count as _cpu_count
from .nets.lstm import LstmParams, lstm_predict, lstm_predict_proba, lstm_train_many
from .nets.softmax_regression import SoftmaxRegressionParams, softmax_predict_proba, softmax_train_many
from .serialize import from_json, json_chunks, read_json, write_atomic

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
class HierarchicalModel:
    gmm: GmmParams
    experts: tuple[ClusterExpert, ...]
    gate: SoftmaxRegressionParams  # flattened window -> cluster id router
    stats: StandardizationStats
    shot_assignments: tuple[int, ...]  # cluster id per shot, in shot order
    fit_seed: int | None = None

    def __post_init__(self):
        """Every part must describe the same k clusters and the same window
        width, so a hand-edited or mixed-up model file fails at load time."""
        k = self.gmm.k
        if len(self.experts) != k:
            raise ValueError(f"{len(self.experts)} experts for a {k}-component mixture")
        if self.gate.n_classes != k:
            raise ValueError(f"gate has {self.gate.n_classes} classes for a {k}-component mixture")
        ids = [e.cluster_id for e in self.experts]
        if ids != list(range(k)):
            raise ValueError(f"expert cluster ids must be 0..{k - 1} in order, got {ids}")
        p = self.gmm.p
        if self.gate.input_dim != p:
            raise ValueError(f"gate input is {self.gate.input_dim}-dimensional, mixture is {p}-dimensional")
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
    # one per evaluation, the mean over target files: of a refit, or in
    # repredict mode of the selected model (so all entries are equal)
    eval_accuracies: tuple[float, ...]
    mean_test_accuracy: float
    eval_file_accuracies: tuple[tuple[float, ...], ...]  # (evals, files) detail

    def __post_init__(self):
        if self.shot_accuracies and self.selected_run != int(np.argmax(self.shot_accuracies)):
            raise ValueError("selected run must be the shot-accuracy argmax (earliest tie)")


def _adaptation_set(members: np.ndarray, n_source: int, routed: Sequence[int], c: int) -> np.ndarray:
    """Cluster ``c``'s adaptation set, as indices into the source windows
    followed by the shots: its source windows ``members`` in source order,
    then the shots routed to it in shot order."""
    return np.concatenate([members, n_source + np.flatnonzero(np.asarray(routed) == c)])


def _train_networks(stage: str, X, y, sets_per_run, config: TrainConfig, seeds) -> list[list[LstmParams]]:
    """Train one network per (cluster id, indices into ``X``) pair of every
    run, all in one lockstep call with ``config``, the network of cluster c
    in the run with seed s seeded by ``stage_seed(s, stage, c)``.  Returns
    the networks per run."""
    jobs = [(stage_seed(seed, stage, c), idx) for sets, seed in zip(sets_per_run, seeds) for c, idx in sets]
    params = iter(lstm_train_many(X, y, [idx for _, idx in jobs], config, [s for s, _ in jobs])[0])
    return [[next(params) for _ in sets] for sets in sets_per_run]


def route_few_shot(experts: Sequence[ClusterExpert], shots: Windows) -> tuple[int, ...]:
    """Assign each labeled shot to a cluster.

    Primary rule: the expert giving the shot's true label the highest
    probability, provided at least one expert actually predicts that label.
    Fallback: the cluster whose source label histogram counts that label most
    often.  All ties go to the lower cluster id.
    """
    shots = as_window_set(shots)
    y_idx = shots.y - 1
    probs = np.stack([lstm_predict_proba(e.expert_before, shots.X) for e in experts])  # (k, n, C)
    p_true = probs[:, np.arange(len(shots)), y_idx]  # (k, n)
    predicts_true = probs.argmax(axis=2) == y_idx[None, :]  # (k, n)
    hist = np.stack([e.source_label_histogram for e in experts])  # (k, 4)
    routed = np.where(predicts_true.any(axis=0), p_true.argmax(axis=0), hist[:, y_idx].argmax(axis=0))
    return tuple(routed.tolist())


def adapt_experts(
    experts: Sequence[ClusterExpert],
    source_windows_by_cluster: Sequence[Windows],
    shots: Windows,
    assignments: Sequence[int],
    config: TrainConfig,
) -> list[ClusterExpert]:
    """Retrain a fresh expert per cluster on its source windows plus assigned shots.

    The pre-adaptation experts are kept untouched on the returned objects; a
    cluster with no assigned shots simply retrains on its source windows.
    """
    if len(assignments) != len(shots):
        raise ValueError("assignments must cover all shots")
    if len(source_windows_by_cluster) != len(experts):
        raise ValueError(f"{len(source_windows_by_cluster)} source window sets for {len(experts)} experts")
    for i, a in enumerate(assignments):
        if not 0 <= a < len(experts):
            raise ValueError(f"shot {i} is assigned to cluster {a}, outside 0..{len(experts) - 1}")
    ends = np.cumsum([len(w) for w in source_windows_by_cluster])
    members = [np.arange(end - len(w), end) for w, end in zip(source_windows_by_cluster, ends)]
    sets = [(c, _adaptation_set(members[c], ends[-1], assignments, c)) for c in (e.cluster_id for e in experts)]
    joined = WindowSet.concat([as_window_set(w) for w in [*source_windows_by_cluster, shots] if len(w)])
    networks = _train_networks("adapt", joined.X, joined.y, [sets], config, [config.seed])[0]
    return [replace(e, expert_after=net) for e, net in zip(experts, networks)]


def _fit_gates(
    shots: WindowSet, routes: Sequence[Sequence[int]], n_clusters: int, l2: float
) -> list[SoftmaxRegressionParams]:
    """One gate per route (cluster ids of the shots, in shot order), each
    checked against the shots first.  A route into a single cluster gets the
    constant gate for that cluster; all other routes train in one
    ``softmax_train_many`` call, each bit-identical to its lone run."""
    flats = shots.flat
    ys = [check_labeled(flats, route, (None,), n_clusters, 0)[1] for route in routes]
    gates: list[SoftmaxRegressionParams | None] = [None] * len(ys)
    trained = []
    for i, y in enumerate(ys):
        if np.any(y != y[0]):
            trained.append(i)
            continue
        bias = np.full(n_clusters, _CONSTANT_GATE_LOGIT)
        bias[y[0]] = 0.0
        gates[i] = SoftmaxRegressionParams(weights=np.zeros((n_clusters, flats.shape[1])), bias=bias)
    if trained:
        params, _ = softmax_train_many(flats, np.stack([ys[i] for i in trained]), n_clusters, l2=l2)
        for i, gate in zip(trained, params):
            gates[i] = gate
    return gates


def fit_gate(shots: Windows, assignments: Sequence[int], n_clusters: int, l2: float = 1e-4) -> SoftmaxRegressionParams:
    """Train the shot-features -> cluster-id router: the one-route case of
    ``_fit_gates``, with ``softmax_train_many``'s default iteration cap and
    the tolerance ``softmax_regression.TOL``.

    The shots and their cluster ids (0..n_clusters - 1) are checked first.
    When every shot lands in one cluster the gate degenerates to a constant
    classifier for that cluster.
    """
    return _fit_gates(as_window_set(shots), [assignments], n_clusters, l2)[0]


def _fit_staged(
    source: WindowSet,
    shots: WindowSet,
    k: int,
    config: TrainConfig,
    seeds: Sequence[int],
    stats: StandardizationStats | None,
    gate_l2: float,
) -> list[HierarchicalModel]:
    """``fit`` once per seed, stage by stage across the seeds.

    GMM and routing run per seed; the source experts of all seeds train in
    one ``lstm_train_many`` call, the gates in one ``softmax_train_many``
    call, and the adapted experts in one more ``lstm_train_many`` call.
    Between the stages a cluster is an index array, never a copy of its
    windows.  Each model is bit-identical to what a lone fit with its seed
    would build.
    """
    flats, n = source.flat, len(source)
    gmms, members = [], []
    for seed in seeds:
        gmms.append(gmm_fit(flats, k=k, seed=stage_seed(seed, "gmm")))
        assignment = gmm_assign(gmms[-1], flats)
        members.append([np.flatnonzero(assignment == c) for c in range(k)])
        sizes = [idx.size for idx in members[-1]]
        if 0 in sizes:
            raise ValueError(f"cluster {sizes.index(0)} received no source windows; retry with a different seed")
    networks = _train_networks("expert", source.X, source.y, [list(enumerate(m)) for m in members], config, seeds)
    experts = [
        [
            ClusterExpert(c, net, None, np.bincount(source.y[idx], minlength=5)[1:5])
            for c, (idx, net) in enumerate(zip(run_members, nets))
        ]
        for run_members, nets in zip(members, networks)
    ]
    routes = [route_few_shot(run_experts, shots) for run_experts in experts]
    gates = _fit_gates(shots, routes, k, gate_l2)
    sets = [
        [(c, _adaptation_set(idx, n, route, c)) for c, idx in enumerate(run_members)]
        for run_members, route in zip(members, routes)
    ]
    del members  # the sets hold them: one index array per cluster lives on through training
    joined = WindowSet.concat([source, shots])
    networks = _train_networks("adapt", joined.X, joined.y, sets, config, seeds)
    if stats is None:
        stats = StandardizationStats.identity(source.X.shape[2])
    return [
        HierarchicalModel(
            gmm=gmm, experts=tuple(replace(e, expert_after=net) for e, net in zip(run_experts, nets)), gate=gate,
            stats=stats, shot_assignments=route, fit_seed=seed,
        )
        for gmm, run_experts, nets, gate, route, seed in zip(gmms, experts, networks, gates, routes, seeds)
    ]


def _worker_count(n_fits: int) -> int:
    return min(_cpu_count(), n_fits)


def _attempt(fn, *args):
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _fork(fn, *args) -> tuple[int, int] | None:
    """Run ``fn(*args)`` in a forked child that sends its pickled outcome back
    through a pipe.  Returns (pid, read end), or None if the fork failed."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child: never return into the caller's stack
        status = 1
        try:
            os.close(read_fd)
            outcome = _attempt(fn, *args)
            try:
                payload = pickle.dumps(outcome)
            except Exception as exc:  # an unpicklable result or exception
                payload = pickle.dumps((False, RuntimeError(f"{outcome[1]!r} (not picklable: {exc})")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join(pid: int, read_fd: int):
    """Read a forked child's outcome, then reap it.  A child exits with
    status 0 only after writing its whole outcome."""
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return False, RuntimeError(f"fit worker {pid} exited with status {code} without a result")
    return pickle.loads(payload)


def _fit_many(
    source: WindowSet,
    shots: WindowSet,
    k: int,
    config: TrainConfig,
    seeds: Sequence[int],
    stats: StandardizationStats | None,
    gate_l2: float,
) -> list[HierarchicalModel]:
    """``_fit_staged`` with the seeds split across the available cores.

    The seeds are cut into ``_worker_count`` contiguous chunks.  This
    process fits the first; each other chunk is fitted in a forked child,
    which inherits the inputs and pipes its pickled models back.  Every model
    is computed exactly as in a single ``_fit_staged`` call over all seeds
    (each slice of a lockstep stack is the lone network's computation), so
    the result is bit-identical for any worker count.  Every child is read
    and reaped even when a chunk fails; the exception of the earliest failing
    chunk, in seed order, is raised.  A chunk whose fork fails is fitted
    here.
    """
    n, n_chunks = len(seeds), _worker_count(len(seeds))
    chunks = [seeds[i * n // n_chunks : (i + 1) * n // n_chunks] for i in range(n_chunks)]
    fit_chunk = functools.partial(_fit_staged, source, shots, k, config, stats=stats, gate_l2=gate_l2)

    children = {}  # chunk index -> (pid, read end)
    try:
        for i in range(1, n_chunks):
            child = _fork(fit_chunk, chunks[i])
            if child is not None:
                children[i] = child
        outcomes = [
            _join(*children.pop(i)) if i in children else _attempt(fit_chunk, chunk) for i, chunk in enumerate(chunks)
        ]
    finally:  # only reached with children left when this process was interrupted
        for pid, read_fd in children.values():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [model for _, models in outcomes for model in models]


def fit(
    source_windows: Windows,
    shots: Windows,
    k: int = 2,
    config: TrainConfig = TrainConfig(),
    stats: StandardizationStats | None = None,
    gate_l2: float = 1e-4,
) -> HierarchicalModel:
    """Run all stages once and assemble the full model."""
    return _fit_many(as_window_set(source_windows), as_window_set(shots), k, config, [config.seed], stats, gate_l2)[0]


def predict_batch(model: HierarchicalModel, X: np.ndarray) -> np.ndarray:
    """Gate each of the (n, 2, d) windows ``X`` to a cluster and answer with
    that cluster's adapted expert.  Zero windows give an empty int64 array."""
    X = X.astype(np.float64, copy=False)
    out = np.empty(X.shape[0], dtype=np.int64)
    if X.shape[0] == 0:
        return out
    clusters = np.argmax(softmax_predict_proba(model.gate, X.reshape(X.shape[0], -1)), axis=1)
    for c in np.unique(clusters):
        idx = np.flatnonzero(clusters == c)
        expert = model.experts[int(c)].expert_after
        if expert is None:
            raise ValueError(f"cluster {c} expert has not been adapted")
        out[idx] = lstm_predict(expert, X[idx])
    return out


def score_table(predict, models: Sequence, pools: Sequence[WindowSet]) -> np.ndarray:
    """Each model's accuracy and macro accuracy on each pool: a (models,
    pools, 2) float64 array, from one ``predict(model, pool)`` call per pair.
    Accuracy is the fraction of predictions equal to ``pool.y``; macro
    accuracy is the mean per-class recall over the classes present in
    ``pool.y``.  An empty pool, or predictions not shaped like its labels,
    is a ``ValueError``."""
    table = np.empty((len(models), len(pools), 2))
    for i, model in enumerate(models):
        for j, pool in enumerate(pools):
            y = pool.y
            if y.size == 0:
                raise ValueError(f"pool {j} is empty")
            p = np.asarray(predict(model, pool))
            if p.shape != y.shape:
                raise ValueError(f"pool {j}: predictions of shape {p.shape} for labels of shape {y.shape}")
            table[i, j] = np.mean(p == y), np.mean([np.mean(p[y == c] == c) for c in np.unique(y)])
    return table


def fit_selected(
    source_windows: Windows,
    shots: Windows,
    test_pools: Sequence[Windows],
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
    deterministic model yields identical entries).  Test labels are read
    only by ``score_table``, never by any fit.  Every test pool
    must hold a window: no pool, or an empty one, is a ``ValueError`` raised
    before any fit.

    All the fits (the ``runs`` selection seeds, plus the ``evals`` refit
    seeds in "refit" mode) run together, stage by stage: the source experts
    of every seed train in one lockstep ``lstm_train_many`` call, and so do
    the adapted experts.  The seeds are split into contiguous chunks, one per
    available core (``os.sched_getaffinity``), and every chunk but the first
    is fitted in a forked worker process.  The result is bit-identical to
    calling ``fit`` once per seed, for any number of cores: the same models,
    the same report, the same model bytes.
    """
    if eval_mode not in ("refit", "repredict"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    if runs < 1 or evals < 1:
        raise ValueError("need at least one selection run and one evaluation")
    if not test_pools:
        raise ValueError("need at least one test pool")
    empty = [i for i, p in enumerate(test_pools) if len(p) == 0]
    if empty:
        raise ValueError(f"test pool {empty[0]} is empty")
    source, shots = as_window_set(source_windows), as_window_set(shots)
    pools = [as_window_set(p) for p in test_pools]

    n_fits = runs + evals if eval_mode == "refit" else runs
    log.info("fit_selected fits=%d workers=%d", n_fits, _worker_count(n_fits))
    models = _fit_many(source, shots, k, config, [config.seed + r for r in range(n_fits)], stats, gate_l2)

    def predict(model: HierarchicalModel, windows: WindowSet) -> np.ndarray:
        return predict_batch(model, windows.X)

    shot_accs = score_table(predict, models[:runs], [shots])[:, 0, 0].tolist()
    selected = int(np.argmax(shot_accs))
    # the selected model is deterministic: in repredict mode its one row stands for every evaluation
    scored = models[runs:] if eval_mode == "refit" else [models[selected]]
    rows = [tuple(row) for row in score_table(predict, scored, pools)[:, :, 0].tolist()]
    eval_file_accs = rows if eval_mode == "refit" else rows * evals
    eval_accs = [float(np.mean(f)) for f in eval_file_accs]

    report = SelectionReport(
        shot_accuracies=tuple(shot_accs),
        selected_run=selected,
        eval_accuracies=tuple(eval_accs),
        mean_test_accuracy=float(np.mean(eval_accs)),
        eval_file_accuracies=tuple(eval_file_accs),
    )
    return models[selected], report


def model_to_json_bytes(model) -> bytes:
    """Canonical bytes of a model, or of any dataclass the codec encodes:
    sorted keys, no indentation.  Digests and model files use them."""
    return b"".join(chunk.encode("utf-8") for chunk in json_chunks(model))


def model_digest(model: HierarchicalModel) -> str:
    return hashlib.sha256(model_to_json_bytes(model)).hexdigest()


def save_model(model: HierarchicalModel, path) -> None:
    """Write ``model_to_json_bytes(model)`` to the file ``path`` names, whole
    or not at all (``write_atomic``), a chunk at a time."""
    write_atomic(path, json_chunks(model))


def load_model(path) -> HierarchicalModel:
    """Read a ``save_model`` file; any error in it is a ``ValueError`` that
    names the file."""
    return read_json(path, functools.partial(from_json, HierarchicalModel))
