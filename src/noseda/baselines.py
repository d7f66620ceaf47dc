"""Non-neural baselines: SAMME AdaBoost over decision stumps and a four-way
self-growing 1-nearest-neighbour classifier.

Both operate on flattened window vectors; callers flatten 2 x d windows
before training (see ``ingest.flatten_windows``).  Every public entry checks
its vectors, and its labels (integers in 1..4), with the two helpers of
``nets.common``, as the networks do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ingest import CLASS_LABELS
from .nets.common import N_CLASSES, check_inputs, check_labeled

log = logging.getLogger(__name__)

_EPS_ERR = 1e-16
_PAIRWISE_BLOCK = 512  # pool rows per distance block in _min_pairwise


@dataclass(frozen=True)
class Stump:
    """Depth-1 split: predict left_class where x[feature] <= threshold, else right_class."""

    feature: int
    threshold: float
    left_class: int
    right_class: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        side = X[:, self.feature] <= self.threshold
        return np.where(side, self.left_class, self.right_class)


@dataclass(frozen=True)
class AdaBoostModel:
    stumps: tuple[Stump, ...]
    alphas: tuple[float, ...]
    classes: tuple[int, ...]
    stump_errors: tuple[float, ...]  # weighted training error of each accepted stump


@dataclass(frozen=True)
class _SortedFeatures:
    """Every feature's stable sort order and candidate splits, computed once
    per training set since boosting only reweights the samples."""

    order: np.ndarray  # (p, n) stable argsort of each feature
    split_index: np.ndarray  # (k, m) flat index of every split in a (k, p, n) array, features ascending
    split_feature: np.ndarray  # (m,) feature of every split
    thresholds: np.ndarray  # (m,) midpoint threshold of every split

    @classmethod
    def build(cls, X: np.ndarray, k: int) -> "_SortedFeatures":
        n, p = X.shape
        order = np.argsort(X, axis=0, kind="stable").T
        rows, feats, thrs = [], [], []
        for f in range(p):
            xs = X[order[f], f]
            splits = np.flatnonzero(xs[:-1] < xs[1:])
            rows.append(f * n + splits)
            feats.append(np.full(splits.size, f))
            thrs.append(0.5 * (xs[splits] + xs[splits + 1]))
        split_index = np.arange(k)[:, None] * (p * n) + np.concatenate(rows)
        return cls(order, split_index, np.concatenate(feats), np.concatenate(thrs))


def _best_stump(sf: _SortedFeatures, class_idx: np.ndarray, w: np.ndarray, classes: tuple[int, ...]):
    """Exhaustive midpoint-threshold search; each side votes its weighted-majority class.

    ``class_idx`` holds each sample's position in ``classes``.  Ties go to the
    lowest feature, then the lowest split.  Returns (stump, weighted_error)
    or None when no feature splits.
    """
    if sf.split_feature.size == 0:
        return None
    n, k = class_idx.shape[0], len(classes)
    wc = np.zeros((n, k))
    wc[np.arange(n), class_idx] = w
    total = wc.sum(axis=0)  # (k,)
    # class-major (k, p, n) running weights, so every class is one contiguous row
    left = np.cumsum(np.take(wc.T.copy(), sf.order, axis=1), axis=2).take(sf.split_index)  # (k, m)
    right = total[:, None] - left
    li, best_left = _first_max(left)
    ri, best_right = _first_max(right)
    err = 1.0 - (best_left + best_right)
    j = int(np.argmin(err))
    stump = Stump(int(sf.split_feature[j]), float(sf.thresholds[j]), classes[li[j]], classes[ri[j]])
    return stump, float(err[j])


def _first_max(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise ``argmax`` over the rows of a (k, m) array (ties to the
    lower row) and the maxima themselves."""
    best = rows.max(axis=0)
    arg = np.full(rows.shape[1], rows.shape[0] - 1)
    for c in range(rows.shape[0] - 2, -1, -1):
        np.copyto(arg, c, where=rows[c] == best)
    return arg, best


def adaboost_train(X: np.ndarray, labels: np.ndarray, n_estimators: int = 100) -> AdaBoostModel:
    """SAMME boosting of decision stumps.

    Stops early when the best stump's weighted error reaches the multi-class
    chance margin 1 - 1/K (weak-learner failure) or hits zero (the sample
    weights would collapse).
    """
    if n_estimators < 1:
        raise ValueError(f"adaboost_train: n_estimators must be >= 1, got {n_estimators}")
    X, y = check_labeled(X, labels, (None,), N_CLASSES, CLASS_LABELS[0])
    y += CLASS_LABELS[0]  # the class indices back to labels
    classes = tuple(sorted(set(y.tolist())))
    k = len(classes)
    if k < 2:
        raise ValueError("AdaBoost needs at least 2 classes in the training data")

    n = X.shape[0]
    sf = _SortedFeatures.build(X, k)
    class_idx = np.searchsorted(classes, y)
    w = np.full(n, 1.0 / n)
    stumps, alphas, errors = [], [], []
    for _ in range(n_estimators):
        found = _best_stump(sf, class_idx, w, classes)
        if found is None:
            log.warning("no splittable feature; stopping at %d stumps", len(stumps))
            break
        stump, err = found
        if err >= 1.0 - 1.0 / k:
            log.debug("stump error %.4f at chance margin; stopping at %d stumps", err, len(stumps))
            break
        alpha = np.log((1.0 - err) / max(err, _EPS_ERR)) + np.log(k - 1.0)
        stumps.append(stump)
        alphas.append(float(alpha))
        errors.append(err)
        if err <= 0.0:
            break  # perfect stump; reweighting would zero out every sample
        w = w * np.exp(alpha * (stump.predict(X) != y))
        w = w / w.sum()
    return AdaBoostModel(stumps=tuple(stumps), alphas=tuple(alphas), classes=classes, stump_errors=tuple(errors))


def adaboost_predict(model: AdaBoostModel, x: np.ndarray) -> int:
    """Predicted class for one vector; vote ties go to the lower class id."""
    return int(adaboost_predict_many(model, [x])[0])


def adaboost_predict_many(model: AdaBoostModel, X: np.ndarray) -> np.ndarray:
    """The class with the most alpha-weighted stump votes for each row of X."""
    X = check_inputs(X, (None,))
    width = max((stump.feature for stump in model.stumps), default=-1) + 1
    if X.shape[1] < width:
        raise ValueError(f"expected windows of shape (n, {width}) or wider, got {X.shape}")
    votes = np.zeros((X.shape[0], len(model.classes)))
    for stump, alpha in zip(model.stumps, model.alphas):
        pred = stump.predict(X)
        votes[np.arange(X.shape[0]), np.searchsorted(model.classes, pred)] += alpha
    return np.asarray(model.classes)[np.argmax(votes, axis=1)]


def nearest_neighbor(pool: np.ndarray, x: np.ndarray) -> tuple[int, float]:
    """Exact Euclidean 1-NN in a (m, p) pool; ties to the lower member index."""
    pool = check_inputs(pool, (None,))
    if len(pool) == 0:
        raise ValueError("empty pool")
    return _nearest(pool, check_inputs([x], pool.shape[1:])[0])


def _nearest(pool: np.ndarray, x: np.ndarray) -> tuple[int, float]:
    """``nearest_neighbor`` on a checked pool and vector."""
    d = np.sqrt(((pool - x) ** 2).sum(axis=1))
    i = int(np.argmin(d))
    return i, float(d[i])


def _min_pairwise(pool: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance; +inf for a singleton pool."""
    m = pool.shape[0]
    if m < 2:
        return float("inf")
    best = float("inf")
    for start in range(0, m, _PAIRWISE_BLOCK):
        chunk = pool[start : start + _PAIRWISE_BLOCK]
        d2 = ((chunk[:, None, :] - pool[None, :, :]) ** 2).sum(axis=2)
        rows = np.arange(chunk.shape[0])
        d2[rows, start + rows] = np.inf  # self distances
        best = min(best, float(np.sqrt(d2.min())))
    return best


@dataclass
class NnSsState:
    """Per-class member pools plus each pool's minimum intra-class distance."""

    pools: dict[int, np.ndarray]
    deltas: dict[int, float]
    growth: dict[int, int]  # joins per class


def ss_init(X: np.ndarray, labels: np.ndarray) -> NnSsState:
    """Group flattened source windows into the four class pools.

    Every class 1..4 must appear; delta_c is the minimum pairwise distance
    within pool c (infinite for singleton pools).
    """
    X, y = check_labeled(X, labels, (None,), N_CLASSES, CLASS_LABELS[0])
    y += CLASS_LABELS[0]  # the class indices back to labels
    missing = [c for c in CLASS_LABELS if not np.any(y == c)]
    if missing:
        raise ValueError(f"source data lacks classes {missing}; all four are required")
    pools = {c: X[y == c].copy() for c in CLASS_LABELS}
    deltas = {c: _min_pairwise(pools[c]) for c in CLASS_LABELS}
    return NnSsState(pools=pools, deltas=deltas, growth={c: 0 for c in CLASS_LABELS})


def ss_classify_stream(state: NnSsState, X_test: np.ndarray) -> list[int]:
    """Classify test vectors in order, growing pools along the way.

    Each vector goes to the class whose nearest pool member is globally
    closest (ties to the lower class id).  When that distance is below the
    winning class's delta, the vector joins the pool and that distance, the
    new member's nearest-neighbour distance, becomes the delta.  Mutates
    ``state``.  The stream is checked once, against the pools' width.
    """
    X_test = check_inputs(X_test, state.pools[CLASS_LABELS[0]].shape[1:])
    preds: list[int] = []
    for x in X_test:
        best_c, best_d = None, None
        for c in CLASS_LABELS:
            _, d = _nearest(state.pools[c], x)
            if best_d is None or d < best_d:
                best_c, best_d = c, d
        preds.append(best_c)
        if best_d < state.deltas[best_c]:
            state.pools[best_c] = np.vstack([state.pools[best_c], x])
            state.deltas[best_c] = best_d
            state.growth[best_c] += 1
    return preds
