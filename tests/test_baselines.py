import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noseda import baselines
from noseda.baselines import (
    AdaBoostModel,
    Stump,
    _best_stump,
    _min_pairwise,
    _SortedFeatures,
    _StumpBuffers,
    adaboost_predict,
    adaboost_predict_many,
    adaboost_train,
    nearest_neighbor,
    ss_classify_stream,
    ss_init,
)
from noseda.serialize import from_json, to_json


def skewed_checkerboard(rng, heavy=180, light=20):
    # diagonal tiles are heavy so an additive vote function can reach 0.9+;
    # a balanced checkerboard caps axis-aligned stump ensembles at 0.75
    Xs, ys = [], []
    for n, x0, y0, cls in [(heavy, 0, 0, 1), (heavy, 1, 1, 1), (light, 0, 1, 2), (light, 1, 0, 2)]:
        Xs.append(rng.uniform([x0, y0], [x0 + 1, y0 + 1], size=(n, 2)))
        ys.append(np.full(n, cls))
    return np.vstack(Xs), np.concatenate(ys)


class TestAdaBoostTrain:
    def test_sign_split_needs_one_stump(self, rng):
        x = rng.uniform(-1, 1, size=(100, 1))
        x = x[np.abs(x[:, 0]) > 0.05]
        y = np.where(x[:, 0] > 0, 2, 1)
        model = adaboost_train(x, y, n_estimators=100)
        assert len(model.stumps) == 1
        assert (adaboost_predict_many(model, x) == y).all()

    def test_accepted_errors_below_chance_margin(self, rng):
        X = rng.normal(size=(120, 3))
        y = rng.integers(1, 5, size=120)
        X[:, 0] += y  # some signal
        model = adaboost_train(X, y, n_estimators=50)
        k = len(model.classes)
        assert all(err < 1 - 1 / k for err in model.stump_errors)

    def test_checkerboard(self, rng):
        X, y = skewed_checkerboard(rng)
        model = adaboost_train(X, y, n_estimators=100)
        acc = (adaboost_predict_many(model, X) == y).mean()
        assert acc >= 0.9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            adaboost_train(np.zeros((5, 1)), np.ones(5, dtype=int))

    @pytest.mark.parametrize("n_estimators", [0, -3])
    def test_no_estimators_rejected(self, rng, n_estimators):
        X, y = rng.normal(size=(8, 2)), 1 + np.arange(8) % 4
        with pytest.raises(ValueError, match=re.escape(f"n_estimators must be >= 1, got {n_estimators}")):
            adaboost_train(X, y, n_estimators=n_estimators)

    def test_accuracy_monotone_in_estimators(self, rng):
        X, y = skewed_checkerboard(rng)
        accs = []
        for n in (1, 10, 100):
            m = adaboost_train(X, y, n_estimators=n)
            accs.append((adaboost_predict_many(m, X) == y).mean())
        assert accs[-1] >= accs[0]


def resorting_adaboost(X, y, n_estimators):
    """Reference SAMME loop that re-sorts every feature in every round and
    keeps the first strictly better (feature, split)."""
    classes = tuple(sorted(set(y.tolist())))
    k, n = len(classes), len(y)
    w = np.full(n, 1.0 / n)
    stumps, alphas, errors = [], [], []
    for _ in range(n_estimators):
        wc = np.zeros((n, k))
        wc[np.arange(n), np.searchsorted(classes, y)] = w
        total = wc.sum(axis=0)
        best = None
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            splits = np.flatnonzero(xs[:-1] < xs[1:])
            if splits.size == 0:
                continue
            left = np.cumsum(wc[order], axis=0)[splits]
            right = total - left
            li, ri = np.argmax(left, axis=1), np.argmax(right, axis=1)
            rows = np.arange(len(splits))
            err = 1.0 - (left[rows, li] + right[rows, ri])
            j = int(np.argmin(err))
            if best is None or err[j] < best[0]:
                thr = 0.5 * (xs[splits[j]] + xs[splits[j] + 1])
                best = (float(err[j]), Stump(f, float(thr), classes[li[j]], classes[ri[j]]))
        if best is None:
            break
        err, stump = best
        if err >= 1.0 - 1.0 / k:
            break
        alpha = np.log((1.0 - err) / max(err, 1e-16)) + np.log(k - 1.0)
        stumps.append(stump)
        alphas.append(float(alpha))
        errors.append(err)
        if err <= 0.0:
            break
        w = w * np.exp(alpha * (stump.predict(X) != y))
        w = w / w.sum()
    return stumps, alphas, errors


class TestAdaBoostMatchesResortingReference:
    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_bit_identical(self, rng, n_classes):
        # coarse rounding makes many tied values, and column 2 never splits
        X = np.round(rng.normal(size=(150, 5)), 1)
        X[:, 2] = 0.5
        y = rng.integers(1, n_classes + 1, size=150)
        X[:, 0] += 0.3 * y
        model = adaboost_train(X, y, n_estimators=40)
        stumps, alphas, errors = resorting_adaboost(X, y, 40)
        assert len(model.stumps) == len(stumps) > 1
        assert model.stumps == tuple(stumps)
        assert np.array_equal([s.threshold for s in model.stumps], [s.threshold for s in stumps])
        assert np.array_equal(model.alphas, alphas)
        assert np.array_equal(model.stump_errors, errors)

    def test_tied_side_vote_goes_to_lower_class(self):
        # the left side holds one window of class 2 and one of class 1
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([2, 1, 3, 3])
        model = adaboost_train(X, y, n_estimators=5)
        stumps, alphas, _ = resorting_adaboost(X, y, 5)
        assert (model.stumps[0].left_class, model.stumps[0].right_class) == (1, 3)
        assert model.stumps == tuple(stumps)
        assert np.array_equal(model.alphas, alphas)


def per_round_best_stump(sf, class_idx, w, classes):
    """Reference stump search that allocates every array afresh each round:
    the search the per-fit buffers must reproduce bit for bit."""
    if sf.split_feature.size == 0:
        return None
    n, k = class_idx.shape[0], len(classes)
    wc = np.zeros((n, k))
    wc[np.arange(n), class_idx] = w
    total = wc.sum(axis=0)
    left = np.cumsum(np.take(wc.T.copy(), sf.order, axis=1), axis=2).take(sf.split_index)
    right = total[:, None] - left
    li, ri = np.argmax(left, axis=0), np.argmax(right, axis=0)  # ties to the lower class
    splits = np.arange(left.shape[1])
    err = 1.0 - (left[li, splits] + right[ri, splits])
    j = int(np.argmin(err))
    stump = Stump(int(sf.split_feature[j]), float(sf.thresholds[j]), classes[li[j]], classes[ri[j]])
    return stump, float(err[j])


class TestStumpSearchMatchesPerRoundReference:
    def rounds(self, rng, X, y, n_rounds=6):
        """Both searches over rounds of fresh weights spread over many
        magnitudes, the buffers reused from round to round."""
        classes = tuple(sorted(set(y.tolist())))
        class_idx = np.searchsorted(classes, y)
        sf = _SortedFeatures.build(X, len(classes))
        buf = _StumpBuffers.build(sf, class_idx, len(classes))
        for _ in range(n_rounds):
            w = np.exp(rng.normal(size=len(y)) * 8)
            w /= w.sum()
            yield _best_stump(sf, class_idx, w, classes, buf), per_round_best_stump(sf, class_idx, w, classes)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.integers(1, 4),
        n_classes=st.integers(2, 4),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, n, p, n_classes, levels, seed):
        # few distinct levels per feature: tied values, and features that never split
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, p)).astype(float)
        y = 1 + np.arange(n) % n_classes
        rng.shuffle(y)
        for got, want in self.rounds(rng, X, y):
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0] and got[1].hex() == want[1].hex()

    def test_one_feature(self, rng):
        X = rng.normal(size=(40, 1))
        y = rng.integers(1, 5, size=40)
        assert all(got == want for got, want in self.rounds(rng, X, y))

    def test_tied_errors_go_to_the_first_split(self):
        # two identical features: every split of feature 1 ties its twin in feature 0
        X = np.repeat(np.arange(6.0)[:, None], 2, axis=1)
        y = np.array([1, 1, 2, 2, 1, 2])
        classes = (1, 2)
        class_idx = np.searchsorted(classes, y)
        sf = _SortedFeatures.build(X, 2)
        w = np.full(6, 1 / 6)
        got = _best_stump(sf, class_idx, w, classes, _StumpBuffers.build(sf, class_idx, 2))
        assert got == per_round_best_stump(sf, class_idx, w, classes)
        assert got[0].feature == 0 and got[0].threshold == 1.5

    def test_no_split(self):
        X = np.ones((5, 3))
        y = np.array([1, 2, 1, 2, 2])
        classes = (1, 2)
        sf = _SortedFeatures.build(X, 2)
        buf = _StumpBuffers.build(sf, np.searchsorted(classes, y), 2)
        assert _best_stump(sf, np.searchsorted(classes, y), np.full(5, 0.2), classes, buf) is None

    def test_a_round_allocates_no_weight_cube(self, rng):
        # the per-round search built its (k, p, n) weights and their running
        # sums, the (k, m) split sums and the (m,) maxima afresh every round
        X = rng.normal(size=(2000, 12))
        y = rng.integers(1, 5, size=2000)
        classes = (1, 2, 3, 4)
        class_idx = np.searchsorted(classes, y)
        sf = _SortedFeatures.build(X, 4)
        buf = _StumpBuffers.build(sf, class_idx, 4)
        w = np.full(2000, 1 / 2000)
        tracemalloc.start()
        try:
            _best_stump(sf, class_idx, w, classes, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * buf.gathered.nbytes, f"peak {peak / buf.gathered.nbytes:.2f}x one (k, p, n) array"


class TestAdaBoostPredict:
    def hand_model(self):
        stumps = (
            Stump(feature=0, threshold=0.0, left_class=1, right_class=3),
            Stump(feature=1, threshold=0.5, left_class=2, right_class=3),
            Stump(feature=0, threshold=-1.0, left_class=4, right_class=2),
            Stump(feature=1, threshold=0.2, left_class=1, right_class=4),
        )
        alphas = (0.9, 0.4, 1.1, 0.35)
        return AdaBoostModel(stumps=stumps, alphas=alphas, classes=(1, 2, 3, 4), stump_errors=(0,) * 4)

    def test_single_stump_side_vote(self):
        model = AdaBoostModel(
            stumps=(Stump(feature=0, threshold=1.0, left_class=2, right_class=4),),
            alphas=(1.0,), classes=(2, 4), stump_errors=(0.1,),
        )
        assert adaboost_predict(model, np.array([0.0])) == 2
        assert adaboost_predict(model, np.array([2.0])) == 4

    def test_equal_votes_tie_to_lower_class(self):
        model = AdaBoostModel(
            stumps=(
                Stump(feature=0, threshold=0.0, left_class=1, right_class=3),
                Stump(feature=0, threshold=0.0, left_class=3, right_class=1),
            ),
            alphas=(0.7, 0.7), classes=(1, 3), stump_errors=(0.2, 0.2),
        )
        assert adaboost_predict(model, np.array([-1.0])) == 1
        assert adaboost_predict(model, np.array([1.0])) == 1

    def test_matches_hand_summed_vote_table(self, rng):
        model = self.hand_model()
        for _ in range(5):
            x = rng.normal(size=2)
            votes = {c: 0.0 for c in model.classes}
            for stump, alpha in zip(model.stumps, model.alphas):
                side = x[stump.feature] <= stump.threshold
                votes[stump.left_class if side else stump.right_class] += alpha
            best = max(votes.values())
            expected = min(c for c, v in votes.items() if v == best)
            assert adaboost_predict(model, x) == expected

    def test_invariant_to_stump_order(self, rng):
        model = self.hand_model()
        order = rng.permutation(len(model.stumps))
        shuffled = AdaBoostModel(
            stumps=tuple(model.stumps[i] for i in order),
            alphas=tuple(model.alphas[i] for i in order),
            classes=model.classes,
            stump_errors=model.stump_errors,
        )
        X = rng.normal(size=(40, 2))
        assert np.array_equal(adaboost_predict_many(model, X), adaboost_predict_many(shuffled, X))

    def test_one_vector_matches_many_row_by_row(self):
        model = self.hand_model()
        # every pair of coordinates drawn from the thresholds and around them
        grid = [-1.5, -1.0, -0.5, 0.0, 0.2, 0.35, 0.5, 1.0]
        X = np.array([[a, b] for a in grid for b in grid])
        many = adaboost_predict_many(model, X)
        assert [adaboost_predict(model, x) for x in X] == many.tolist()

    def test_json_round_trip(self, rng):
        X, y = skewed_checkerboard(rng, heavy=40, light=10)
        model = adaboost_train(X, y, n_estimators=10)
        clone = from_json(AdaBoostModel, to_json(model))
        probe = rng.normal(size=(20, 2))
        assert np.array_equal(adaboost_predict_many(model, probe), adaboost_predict_many(clone, probe))


class TestNearestNeighbor:
    def test_two_member_pool(self):
        idx, dist = nearest_neighbor(np.array([[3.0], [7.0]]), np.array([4.0]))
        assert (idx, dist) == (0, 1.0)

    def test_tie_goes_to_lower_index(self):
        idx, _ = nearest_neighbor(np.array([[-1.0], [1.0]]), np.array([0.0]))
        assert idx == 0

    def test_matches_linear_scan(self, rng):
        pool = rng.normal(size=(60, 4))
        for _ in range(1000):
            x = rng.normal(size=4)
            best_i, best_d = None, None
            for i, m in enumerate(pool):
                d = math.sqrt(float(((m - x) ** 2).sum()))
                if best_d is None or d < best_d:
                    best_i, best_d = i, d
            got_i, got_d = nearest_neighbor(pool, x)
            assert got_i == best_i
            assert got_d == best_d

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            nearest_neighbor(np.zeros((0, 2)), np.zeros(2))


def four_class_init(extra_class1):
    """Class 1 carries the interesting pool; 2-4 are far-away singletons."""
    X = np.vstack([extra_class1, [[100.0]], [[200.0]], [[300.0]]])
    y = np.array([1] * len(extra_class1) + [2, 3, 4])
    return ss_init(X, y)


def brute_min_pairwise(pool):
    m = len(pool)
    if m < 2:
        return float("inf")
    best = float("inf")
    for i in range(m):
        for j in range(i + 1, m):
            best = min(best, math.sqrt(float(((pool[i] - pool[j]) ** 2).sum())))
    return best


class TestSsInit:
    def test_two_point_pool_delta(self):
        state = four_class_init([[0.0], [2.0]])
        assert state.deltas[1] == 2.0

    def test_singleton_delta_infinite(self):
        state = four_class_init([[0.0], [2.0]])
        assert state.deltas[2] == float("inf")
        assert state.deltas[3] == float("inf")

    @pytest.mark.parametrize("n_labels", [5, 7])
    def test_label_count_must_match_vectors(self, n_labels):
        X = np.arange(12.0).reshape(6, 2)
        y = np.tile([1, 2, 3, 4], 2)[:n_labels]
        with pytest.raises(ValueError, match=f"6 inputs but {n_labels} labels"):
            ss_init(X, y)

    def test_missing_classes_listed(self):
        with pytest.raises(ValueError, match=r"\[2, 4\]"):
            ss_init(np.zeros((2, 1)), np.array([1, 3]))

    def test_delta_matches_brute_force(self, rng):
        inputs = [[rng.normal(size=(int(rng.integers(1, 12)), 3)) for _ in range(4)] for _ in range(10)]
        # a pool of over 512 rows, with rows repeated on both sides of row 512
        big = rng.normal(size=(530, 3))
        big[[40, 520, 529]] = big[[7, 300, 515]]
        inputs.append([big, *inputs[0][1:]])
        for pools in inputs:
            X = np.vstack(pools)
            y = np.concatenate([np.full(len(p), c + 1) for c, p in enumerate(pools)])
            state = ss_init(X, y)
            for c in (1, 2, 3, 4):
                assert state.deltas[c] == brute_min_pairwise(state.pools[c])

    def test_pool_delta_needs_no_pairwise_blocks(self, rng):
        pool = rng.normal(size=(1500, 12))
        tracemalloc.start()
        try:
            _min_pairwise(pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@pytest.mark.filterwarnings("error")
class TestDistanceOverflow:
    """Finite vectors whose least squared distance overflows float64 are
    rejected; an overflowed distance that is not the least changes nothing."""

    OVERFLOW = r"squared distances overflow float64 \(largest \|x\| is 1e\+15[45]\); rescale it"

    def test_ss_init_rejects_a_pool_whose_pairs_all_overflow(self):
        with pytest.raises(ValueError, match=self.OVERFLOW):
            four_class_init([[1e154], [-1e154]])

    def test_ss_init_keeps_a_delta_beside_an_overflowing_pair(self):
        state = four_class_init([[1e154], [-1e154], [-1e154 + 2**460]])
        assert state.deltas[1] == 2.0**460

    def test_singleton_pool_keeps_an_infinite_delta(self):
        X = np.array([[1e154], [-1e154], [0.0], [1.0]])
        state = ss_init(X, np.array([1, 2, 3, 4]))
        assert all(state.deltas[c] == float("inf") for c in (1, 2, 3, 4))

    def test_stream_rejects_a_window_far_from_every_pool(self):
        state = four_class_init([[0.0], [2.0]])
        with pytest.raises(ValueError, match=self.OVERFLOW):
            ss_classify_stream(state, np.array([[1e155]]))

    def test_stream_ignores_an_overflow_that_is_not_the_least(self):
        X = np.array([[-1e154], [1e154], [0.0], [5.0]])
        state = ss_init(X, np.array([1, 2, 3, 4]))
        assert ss_classify_stream(state, np.array([[1.5e154]])) == [2]

    def test_nearest_neighbor_checks_only_the_least_distance(self):
        with pytest.raises(ValueError, match=self.OVERFLOW):
            nearest_neighbor(np.array([[1e154]]), np.array([-1e154]))
        assert nearest_neighbor(np.array([[-1e154], [1e154]]), np.array([1e154])) == (1, 0.0)


class TestSsStream:
    def test_coincident_point_grows_pool(self):
        state = four_class_init([[0.0], [2.0]])
        preds = ss_classify_stream(state, np.array([[0.0]]))
        assert preds == [1]
        assert len(state.pools[1]) == 3
        assert state.deltas[1] == 0.0

    def test_far_outlier_not_added(self):
        state = four_class_init([[0.0], [2.0]])
        sizes = {c: len(state.pools[c]) for c in state.pools}
        preds = ss_classify_stream(state, np.array([[40.0]]))
        assert preds == [1]  # still nearest to the class-1 pool
        assert all(len(state.pools[c]) == sizes[c] for c in state.pools)

    def test_pool_class_tie_goes_to_lower_class(self):
        X = np.array([[-1.0], [1.0], [100.0], [200.0]])
        y = np.array([1, 2, 3, 4])
        state = ss_init(X, y)
        preds = ss_classify_stream(state, np.array([[0.0]]))
        assert preds == [1]

    def test_stream_matches_brute_force_replay(self, rng):
        pools = {c: [rng.normal(scale=2.0, size=3) for _ in range(int(rng.integers(1, 6)))] for c in (1, 2, 3, 4)}
        X = np.vstack([np.stack(pools[c]) for c in (1, 2, 3, 4)])
        y = np.concatenate([np.full(len(pools[c]), c) for c in (1, 2, 3, 4)])
        state = ss_init(X, y)
        stream = rng.normal(scale=2.0, size=(50, 3))

        # independent replay recomputing every delta from scratch
        replay = {c: [m.copy() for m in pools[c]] for c in (1, 2, 3, 4)}
        expected = []
        for x in stream:
            best_c, best_d = None, None
            for c in (1, 2, 3, 4):
                for m in replay[c]:
                    d = math.sqrt(float(((m - x) ** 2).sum()))
                    if best_d is None or d < best_d:
                        best_c, best_d = c, d
            expected.append(best_c)
            if best_d < brute_min_pairwise(replay[best_c]):
                replay[best_c].append(x.copy())

        got = ss_classify_stream(state, stream)
        assert got == expected
        for c in (1, 2, 3, 4):
            assert len(state.pools[c]) == len(replay[c])
            assert np.array_equal(state.pools[c], np.stack(replay[c]))
            assert state.deltas[c] == brute_min_pairwise(replay[c])

    def test_empty_pool_rejected(self):
        state = four_class_init([[0.0], [2.0]])
        state.pools[3] = np.zeros((0, 1))
        with pytest.raises(ValueError, match=r"empty pool for classes \[3\]"):
            ss_classify_stream(state, np.array([[1.0]]))

    def test_pools_never_shrink(self, rng):
        X = rng.normal(size=(20, 2))
        y = np.concatenate([np.full(5, c) for c in (1, 2, 3, 4)])
        state = ss_init(X, y)
        sizes = {c: len(state.pools[c]) for c in state.pools}
        ss_classify_stream(state, rng.normal(size=(30, 2)))
        assert all(len(state.pools[c]) >= sizes[c] for c in state.pools)


def reference_ss_stream(state, X_test):
    """The self-growing stream as first written: a join recomputes the distances
    to the winning pool and shrinks delta by their minimum."""
    preds = []
    for x in np.asarray(X_test, dtype=np.float64):
        best_c, best_d = None, None
        for c in (1, 2, 3, 4):
            _, d = nearest_neighbor(state.pools[c], x)
            if best_d is None or d < best_d:
                best_c, best_d = c, d
        preds.append(best_c)
        if best_d < state.deltas[best_c]:
            pool = state.pools[best_c]
            new_min = float(np.sqrt(((pool - x) ** 2).sum(axis=1).min()))
            state.pools[best_c] = np.vstack([pool, x])
            state.deltas[best_c] = min(state.deltas[best_c], new_min)
            state.growth[best_c] = state.growth.get(best_c, 0) + 1
    return preds


class TestSsStreamProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference_and_docstring_invariants(self, data):
        # coordinates on a 0.1 grid, so that distances tie and stream points join pools
        p = data.draw(st.integers(1, 3), label="p")
        vector = st.lists(st.integers(-10, 10).map(lambda i: i / 10), min_size=p, max_size=p)
        pools = [data.draw(st.lists(vector, min_size=1, max_size=5), label=f"class {c}") for c in (1, 2, 3, 4)]
        X = np.array([v for pool in pools for v in pool])
        y = np.repeat([1, 2, 3, 4], [len(pool) for pool in pools])
        stream = np.array(data.draw(st.lists(vector, min_size=1, max_size=25), label="stream"))

        ref = ss_init(X, y)
        ref_preds = reference_ss_stream(ref, stream)
        state = ss_init(X, y)
        initial = {c: len(state.pools[c]) for c in (1, 2, 3, 4)}
        preds = []
        for x in stream:
            pools, deltas, growth = dict(state.pools), dict(state.deltas), dict(state.growth)
            (c,) = ss_classify_stream(state, x[None])
            preds.append(c)
            _, d = nearest_neighbor(pools[c], x)
            joined = d < deltas[c]
            # pools only grow, and only the winning class's, by this vector on a join
            for other in (1, 2, 3, 4):
                grew = other == c and joined
                assert len(state.pools[other]) == len(pools[other]) + grew
                assert np.array_equal(state.pools[other][: len(pools[other])], pools[other])
                assert state.growth[other] == growth[other] + grew
                assert state.deltas[other] == (d if grew else deltas[other])
            if joined:
                assert np.array_equal(state.pools[c][-1], x)
        # growth counts joins
        assert all(state.growth[c] == len(state.pools[c]) - initial[c] for c in (1, 2, 3, 4))

        assert preds == ref_preds
        for c in (1, 2, 3, 4):
            assert np.array_equal(state.pools[c], ref.pools[c])
            assert state.deltas[c] == ref.deltas[c]
            assert state.growth[c] == ref.growth[c]


def reference_min_pairwise(pool):
    """The pool delta row by row: each row's least distance to the rows after it."""
    if len(pool) < 2:
        return float("inf")
    return min(float(np.sqrt(((pool[i + 1 :] - pool[i]) ** 2).sum(axis=1).min())) for i in range(len(pool) - 1))


@st.composite
def hard_rows(draw, n, d, seen):
    """``n`` rows of width ``d`` where 1-NN shortlists go wrong: small-grid
    points at one scale (ties), copies of earlier rows (duplicates, also
    across classes) and copies nudged by 1 ulp, all shifted by a common
    offset that makes |q|² + |p|² - 2 q·p cancel badly.  ``seen`` is a dict
    holding the scale, offset and every row drawn so far."""
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["grid", "copy", "ulp"])) if seen["rows"] else "grid"
        if kind == "grid":
            cells = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
            row = np.array(cells, dtype=np.float64) * seen["scale"] + seen["offset"]
        else:
            row = seen["rows"][draw(st.integers(0, len(seen["rows"]) - 1))].copy()
            if kind == "ulp":
                j = draw(st.integers(0, d - 1))
                row[j] = np.nextafter(row[j], draw(st.sampled_from([-np.inf, np.inf])))
        seen["rows"].append(row)
        rows.append(row)
    return np.array(rows).reshape(n, d)


def draw_geometry(data):
    d = data.draw(st.sampled_from([1, 2, 3, 5, 8, 12]), label="d")
    # below 1e-158 the squares are subnormal, and below ~1e-162 some round to zero
    scale = 10.0 ** data.draw(st.one_of(st.integers(-5, 5), st.floats(-163, -158)), label="log10 scale")
    offset = data.draw(st.sampled_from([0.0, 1e8]), label="offset")
    return d, {"scale": scale, "offset": offset, "rows": []}


class TestShortlistProperties:
    """``_least_sq_distances`` and the two 1-NN entries built on it equal the
    row-by-row expression bit for bit, whatever the block and chunk sizes."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_group_minima_are_the_row_sums(self, data):
        d, seen = draw_geometry(data)
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4), label="group sizes")
        P = data.draw(hard_rows(sum(sizes), d, seen), label="pool")
        Q = data.draw(hard_rows(data.draw(st.integers(1, 6), label="queries"), d, seen), label="queries")
        starts = np.cumsum([0, *sizes[:-1]])
        ends = np.cumsum(sizes)
        expected = [[((P[lo:hi] - q) ** 2).sum(axis=1).min() for lo, hi in zip(starts, ends)] for q in Q]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "_PAIR_BYTES", data.draw(st.sampled_from([8, 1 << 16]), label="pair bytes"))
            got = baselines._least_sq_distances(Q, P, starts)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_subnormal_squares_keep_their_bits(self):
        # squares in the subnormal range each carry an absolute rounding error
        # that no bound relative to |q| + |p| covers
        s = 4.816339268193002e-163
        P = np.array([[2.0, -4.0], [-2.0, -4.0], [2.0, -1.0], [4.0, -2.0]]) * s
        q = np.array([-2.0, -2.0]) * s
        got = baselines._least_sq_distances(q[None], P, (0,))
        assert got[0, 0] == ((P - q) ** 2).sum(axis=1).min() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ss_init_and_stream_match_the_reference(self, data):
        d, seen = draw_geometry(data)
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=4, max_size=4), label="pool sizes")
        X = data.draw(hard_rows(sum(sizes), d, seen), label="source")
        y = np.repeat([1, 2, 3, 4], sizes)
        stream = data.draw(hard_rows(data.draw(st.integers(1, 20), label="stream"), d, seen), label="stream")
        with pytest.MonkeyPatch.context() as mp:
            for name, choices in (("_BLOCK_BYTES", [64, 1 << 19]), ("_PAIR_BYTES", [8, 1 << 16])):
                mp.setattr(baselines, name, data.draw(st.sampled_from(choices), label=name))
            state = ss_init(X, y)
            for c in (1, 2, 3, 4):
                assert state.deltas[c] == reference_min_pairwise(X[y == c])
            preds = ss_classify_stream(state, stream)
        ref = ss_init(X, y)
        assert preds == reference_ss_stream(ref, stream)
        for c in (1, 2, 3, 4):
            assert state.pools[c].tobytes() == ref.pools[c].tobytes()
            assert state.deltas[c] == ref.deltas[c]
            assert state.growth[c] == ref.growth[c]
