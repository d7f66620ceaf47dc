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
        # contiguous: np.take would copy a transposed view's indices every round
        order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        rows, feats, thrs = [], [], []
        for f in range(p):
            xs = X[order[f], f]
            splits = np.flatnonzero(xs[:-1] < xs[1:])
            rows.append(f * n + splits)
            feats.append(np.full(splits.size, f))
            thrs.append(0.5 * (xs[splits] + xs[splits + 1]))
        split_index = np.arange(k)[:, None] * (p * n) + np.concatenate(rows)
        return cls(order, split_index, np.concatenate(feats), np.concatenate(thrs))


@dataclass(frozen=True)
class _StumpBuffers:
    """``_best_stump``'s arrays, allocated once per fit and refilled every
    round: fresh ones of this size would map and fault in new pages each round."""

    positions: np.ndarray  # (n,) flat index of every sample's own class in ``weights``
    weights: np.ndarray  # (k, n) class-major sample weights, zero outside each sample's class
    gathered: np.ndarray  # (k, p, n) the weights in every feature's sort order
    running: np.ndarray  # (k, p, n) their running sums (an in-place cumsum would copy its input)
    splits: np.ndarray  # (k, m) weight left of every split, then right of it
    maxima: np.ndarray  # (2, m) the heaviest class's weight left and right of every split
    argmax: np.ndarray  # (2, m) that class's position in ``classes``

    @classmethod
    def build(cls, sf: _SortedFeatures, class_idx: np.ndarray, k: int) -> "_StumpBuffers":
        p, n = sf.order.shape
        m = sf.split_feature.size
        positions = class_idx * n + np.arange(n)
        cubes = (np.empty((k, p, n)), np.empty((k, p, n)))
        return cls(positions, np.zeros((k, n)), *cubes, np.empty((k, m)), np.empty((2, m)), np.empty((2, m), dtype=np.int64))


def _best_stump(sf: _SortedFeatures, class_idx: np.ndarray, w: np.ndarray, classes: tuple[int, ...], buf: _StumpBuffers):
    """Exhaustive midpoint-threshold search; each side votes its weighted-majority class.

    ``class_idx`` holds each sample's position in ``classes``.  Ties go to the
    lowest feature, then the lowest split.  Returns (stump, weighted_error)
    or None when no feature splits.
    """
    if sf.split_feature.size == 0:
        return None
    total = np.bincount(class_idx, weights=w, minlength=len(classes))  # (k,), summed in sample order
    buf.weights.reshape(-1)[buf.positions] = w
    # class-major (k, p, n) running weights, so every class is one contiguous row
    np.take(buf.weights, sf.order, axis=1, out=buf.gathered, mode="clip")  # "raise" would buffer ``out``
    np.cumsum(buf.gathered, axis=2, out=buf.running)
    left = np.take(buf.running, sf.split_index, out=buf.splits, mode="clip")  # (k, m)
    _first_max(left, buf.maxima[0], buf.argmax[0])
    right = np.subtract(total[:, None], left, out=buf.splits)
    _first_max(right, buf.maxima[1], buf.argmax[1])
    err = np.add(buf.maxima[0], buf.maxima[1], out=buf.maxima[0])
    np.subtract(1.0, err, out=err)  # 1 - (left + right), the weight neither side's vote gets right
    j = int(np.argmin(err))
    li, ri = buf.argmax[:, j]
    stump = Stump(int(sf.split_feature[j]), float(sf.thresholds[j]), classes[li], classes[ri])
    return stump, float(err[j])


def _first_max(rows: np.ndarray, best: np.ndarray, arg: np.ndarray) -> None:
    """Column-wise maxima of a (k, m) array into ``best``, and into ``arg``
    the row of each (ties to the lower row)."""
    rows.max(axis=0, out=best)
    arg.fill(rows.shape[0] - 1)
    for c in range(rows.shape[0] - 2, -1, -1):
        np.copyto(arg, c, where=rows[c] == best)


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
    buf = _StumpBuffers.build(sf, class_idx, k)
    w = np.full(n, 1.0 / n)
    stumps, alphas, errors = [], [], []
    for _ in range(n_estimators):
        found = _best_stump(sf, class_idx, w, classes, buf)
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
    x = check_inputs([x], pool.shape[1:])[0]
    with np.errstate(over="ignore"):
        d = np.sqrt(((pool - x) ** 2).sum(axis=1))
    i = int(np.argmin(d))
    return i, _no_overflow(float(d[i]), pool, x)


def _min_distance(pool: np.ndarray, x: np.ndarray) -> float:
    """Distance from x to the nearest row of pool: the root of the least squared distance (sqrt is monotone)."""
    return float(np.sqrt(((pool - x) ** 2).sum(axis=1).min()))


def _no_overflow(d: float, *arrays: np.ndarray) -> float:
    """``d``, a least distance between rows of the finite ``arrays``, unless it overflowed to inf."""
    if d == np.inf:
        largest = max(float(np.abs(a).max()) for a in arrays)
        raise ValueError(f"squared distances overflow float64 (largest |x| is {largest:.3g}); rescale it")
    return d


def _min_pairwise(pool: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance; +inf for fewer than 2 rows."""
    if len(pool) < 2:
        return np.inf
    with np.errstate(over="ignore"):
        return _no_overflow(min(_min_distance(pool[i + 1 :], pool[i]) for i in range(len(pool) - 1)), pool)


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
    pools = {c: X[y == c] for c in CLASS_LABELS}
    return NnSsState(pools, {c: _min_pairwise(pool) for c, pool in pools.items()}, dict.fromkeys(CLASS_LABELS, 0))


def ss_classify_stream(state: NnSsState, X_test: np.ndarray) -> list[int]:
    """Classify test vectors in order, growing pools along the way.

    Each vector goes to the class whose nearest pool member is globally
    closest (ties to the lower class id).  When that distance is below the
    winning class's delta, the vector joins the pool and that distance, the
    new member's nearest-neighbour distance, becomes the delta.  Mutates
    ``state``, but a join replaces the pool array, so callers may share the
    arrays.  The stream is checked once, against the pools' width.
    """
    X_test = check_inputs(X_test, state.pools[CLASS_LABELS[0]].shape[1:])
    preds: list[int] = []
    with np.errstate(over="ignore"):
        for x in X_test:
            dists = [_min_distance(state.pools[c], x) for c in CLASS_LABELS]
            best_d = _no_overflow(min(dists), x, *state.pools.values())
            best_c = CLASS_LABELS[dists.index(best_d)]
            preds.append(best_c)
            if best_d < state.deltas[best_c]:
                state.pools[best_c] = np.vstack([state.pools[best_c], x])
                state.deltas[best_c] = best_d
                state.growth[best_c] += 1
    return preds
