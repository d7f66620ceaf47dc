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

# The 1-NN shortlist: one (query rows, pool rows) float64 distance block per
# matrix product, 32 query rows against the benchmark's 2015-row pools, and
# the shortlisted pairs' differences in chunks of this many bytes
_BLOCK_BYTES = 1 << 19
_PAIR_BYTES = 1 << 16
_U = 2.0**-53  # unit roundoff
_TINY = 2.0**-1074  # least subnormal


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


def _no_overflow(d: float, *arrays: np.ndarray) -> float:
    """``d``, a least distance between rows of the finite ``arrays``, unless it overflowed to inf."""
    if d == np.inf:
        largest = max(float(np.abs(a).max()) for a in arrays)
        raise ValueError(f"squared distances overflow float64 (largest |x| is {largest:.3g}); rescale it")
    return d


def _block_rows(m: int) -> int:
    """Query rows per ``_least_sq_distances`` call against ``m`` pool rows:
    as many as keep its (rows, m) distance block within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * m))


def _least_sq_distances(Q: np.ndarray, P: np.ndarray, starts, upper: bool = False) -> np.ndarray:
    """(b, G) least squared distances from each row q of Q to each group of
    P's rows, group g being rows ``starts[g]`` up to the next start (every
    group nonempty).  Each value has the bits of
    ``((P[group] - q) ** 2).sum(axis=1).min()``.  With ``upper`` (one
    group, and Q's row r the pool row just before P's row r), row r of Q
    sees only rows r.. of P: a block of a pool's upper triangle.

    One matrix product gives ``A = |q|² + |p|² - 2 q·p`` for the block.  A and
    the row sum each lie within (d + 3)·2⁻⁵³·(|q| + |p|)² of the true
    distance, whatever order BLAS sums in, so the rows with
    ``A <= min A + 2e``, where ``e = 4(d + 4)·(2⁻⁵³·(|q| + max|p|)² + 2⁻¹⁰⁷⁴)``
    (the last term covers gradual underflow), hold every row whose row sum
    is least.  Only those rows are summed, with the expression above.  A
    query whose A or e is not finite keeps every row.
    """
    b, d = Q.shape
    starts = np.asarray(starts)
    below = np.tri(b, b, -1, dtype=bool) if upper else None  # pairs an earlier row of Q covers
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq, p_sq = np.einsum("ij,ij->i", Q, Q), np.einsum("ij,ij->i", P, P)
        A = Q @ P.T
        A *= -2.0
        A += q_sq[:, None]
        A += p_sq
        keep_all = ~np.isfinite(A).all(axis=1)
        if upper:
            A[:, :b][below] = np.inf
        reach = np.sqrt(q_sq)[:, None] + np.sqrt(np.maximum.reduceat(p_sq, starts))  # (b, G) |q| + max|p|
        e = 4 * (d + 4) * (_U * reach**2 + _TINY)
        bounds = np.minimum.reduceat(A, starts, axis=1) + 2 * e
        keep_all |= ~np.isfinite(bounds).all(axis=1)
        ends = [*starts[1:], P.shape[0]]
        shortlist = np.empty(A.shape, dtype=bool)
        for g, (lo, hi) in enumerate(zip(starts, ends)):
            np.less_equal(A[:, lo:hi], bounds[:, g, None], out=shortlist[:, lo:hi])
        shortlist[keep_all] = True
        if upper:
            shortlist[:, :b][below] = False
        qi, pj = np.divmod(np.flatnonzero(shortlist), P.shape[0])  # np.nonzero is ~10x slower on 2-D
        sq = np.empty(qi.size)
        step = max(1, _PAIR_BYTES // (8 * d))
        for s in range(0, qi.size, step):
            sq[s : s + step] = ((P[pj[s : s + step]] - Q[qi[s : s + step]]) ** 2).sum(axis=1)
    # pairs come query-major and, within a query, in pool order, so each
    # (query, group) is one run of keys, and none is empty
    key = qi * len(starts) + np.searchsorted(starts, pj, side="right") - 1
    firsts = np.flatnonzero(np.diff(key, prepend=-1))
    return np.minimum.reduceat(sq, firsts).reshape(b, len(starts))


def _min_pairwise(pool: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance; +inf for fewer than 2 rows.
    Row i's partners are rows i + 1.. (the upper triangle), shortlisted in
    blocks of rows by ``_least_sq_distances``."""
    m = len(pool)
    if m < 2:
        return np.inf
    rows = _block_rows(m - 1)
    least = min(
        float(_least_sq_distances(pool[i : min(i + rows, m - 1)], pool[i + 1 :], (0,), upper=True).min())
        for i in range(0, m - 1, rows)
    )
    return _no_overflow(float(np.sqrt(least)), pool)


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

    Every vector's least squared distance to each pool as it starts comes
    from ``_least_sq_distances`` in blocks.  A join then lowers the later
    vectors' distances to its class by their distances to the new member,
    the same row sum, which is symmetric because negation is exact.
    """
    X_test = check_inputs(X_test, state.pools[CLASS_LABELS[0]].shape[1:])
    pools = [state.pools[c] for c in CLASS_LABELS]
    empty = [c for c, pool in zip(CLASS_LABELS, pools) if len(pool) == 0]
    if empty:
        raise ValueError(f"empty pool for classes {empty}")
    P = np.concatenate(pools)
    starts = np.cumsum([0] + [len(pool) for pool in pools[:-1]])
    rows = _block_rows(len(P))
    sq = np.empty((len(X_test), len(pools)))
    for i in range(0, len(X_test), rows):
        sq[i : i + rows] = _least_sq_distances(X_test[i : i + rows], P, starts)
    dist = np.sqrt(sq)
    best = dist.argmin(axis=1)  # ties to the lower class
    t = 0
    with np.errstate(over="ignore"):
        while True:
            # the next vector that joins its class, or whose distance overflowed
            near = dist[np.arange(t, len(dist)), best[t:]]
            deltas = np.array([state.deltas[c] for c in CLASS_LABELS])
            events = np.flatnonzero((near < deltas[best[t:]]) | (near == np.inf))
            if events.size == 0:
                break
            t += int(events[0])
            i = int(best[t])
            c, d, x = CLASS_LABELS[i], float(dist[t, i]), X_test[t]
            _no_overflow(d, x, *state.pools.values())
            state.pools[c] = np.vstack([state.pools[c], x])
            state.deltas[c] = d
            state.growth[c] += 1
            t += 1
            later = sq[t:, i]
            np.minimum(later, ((X_test[t:] - x) ** 2).sum(axis=1), out=later)
            dist[t:, i] = np.sqrt(later)
            best[t:] = dist[t:].argmin(axis=1)
    return [CLASS_LABELS[i] for i in best.tolist()]
