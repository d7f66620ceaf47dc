import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import noseda.gmm as gmm_mod
from noseda.gmm import GmmParams, gmm_assign, gmm_fit, gmm_log_likelihood
from noseda.nets import TrainConfig
from noseda.pipeline import fit, load_model, save_model
from noseda.serialize import from_json, to_json

from conftest import windows_from_arrays


def two_blob_data(rng, n=200, centers=(-5.0, 5.0), d=2):
    half = n // 2
    X = np.concatenate([rng.normal(c, 1.0, size=(half, d)) for c in centers])
    true = np.repeat(np.arange(len(centers)), half)
    return X, true


class TestFit:
    def test_recovers_separated_means(self, rng):
        X, _ = two_blob_data(rng)
        params = gmm_fit(X, k=2, seed=0)
        got = np.sort(params.means[:, 0])
        assert abs(got[0] - (-5.0)) < 0.3
        assert abs(got[1] - 5.0) < 0.3

    def test_single_component_closed_form(self, rng):
        X = rng.normal(2.0, 3.0, size=(150, 4))
        params = gmm_fit(X, k=1, seed=0)
        assert np.allclose(params.means[0], X.mean(axis=0))
        assert np.allclose(params.variances[0], np.maximum(X.var(axis=0), 1e-6))
        assert params.weights[0] == 1.0

    def test_identical_points_hit_variance_floor(self):
        X = np.ones((20, 3))
        params = gmm_fit(X, k=2, seed=0)
        assert np.all(params.variances == 1e-6)
        assert np.all(np.isfinite(params.means))
        assert np.isfinite(gmm_log_likelihood(params, X))

    def test_deterministic(self, rng):
        X, _ = two_blob_data(rng)
        a = gmm_fit(X, k=2, seed=5)
        b = gmm_fit(X, k=2, seed=5)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gmm_fit(np.zeros((1, 2)), k=2)

    def test_non_finite_rejected(self):
        X = np.zeros((10, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError):
            gmm_fit(X, k=2)

    def test_overflowing_variance_rejected_at_entry(self, rng):
        # finite values whose squares overflow; an overflow RuntimeWarning
        # would fail the test (pyproject's filterwarnings)
        X = rng.normal(size=(50, 3)) * 1e160
        with pytest.raises(ValueError, match=r"variance overflows float64 \(largest \|x\| is 2\.\d+e\+160\)"):
            gmm_fit(X, k=2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_distances_rejected_at_entry(self, rng, monkeypatch, k):
        # wide input: every feature's variance is finite, but the squared
        # distances summed over 200 features overflow; no EM step may run
        X = rng.normal(size=(4, 200)) * 1e153
        assert np.all(np.isfinite(X.var(axis=0)))
        monkeypatch.setattr(gmm_mod, "_log_joint", lambda *args: pytest.fail("EM ran"))
        message = r"squared distances overflow float64 \(largest \|x\| is \d\.\d+e\+153\); rescale it"
        with pytest.raises(ValueError, match=message):
            gmm_fit(X, k=k)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_squares_rejected_at_entry(self, rng, monkeypatch, k):
        # a large common offset: the variance and the squared distances are
        # those of the N(0, 1) noise, but the M-step's squares overflow
        X = 1.5e154 + rng.normal(size=(50, 3))
        assert np.all(np.isfinite(X.var(axis=0)))
        monkeypatch.setattr(gmm_mod, "_log_joint", lambda *args: pytest.fail("EM ran"))
        message = r"squared inputs overflow float64 \(largest \|x\| is 1\.5e\+154\); rescale it"
        with pytest.raises(ValueError, match=message):
            gmm_fit(X, k=k)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_square_sums_rejected_at_entry(self, monkeypatch):
        # every square is finite, but a column's sum over the points is not
        X = np.tile([[1e154], [1.1e154]], (10, 1))
        assert np.all(np.isfinite(X**2))
        monkeypatch.setattr(gmm_mod, "_log_joint", lambda *args: pytest.fail("EM ran"))
        with pytest.raises(ValueError, match=r"squared inputs overflow float64 .*; rescale it"):
            gmm_fit(X, k=2)

    @pytest.mark.parametrize("seed", range(20))
    def test_loglik_trace_nondecreasing(self, seed):
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 4))
        X = np.concatenate(
            [r.normal(r.uniform(-6, 6), r.uniform(0.5, 2.0), size=(40, 3)) for _ in range(k + 1)]
        )
        _, trace = gmm_fit(X, k=k, seed=seed, return_trace=True)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_fit_invariants(self, rng):
        X = rng.normal(size=(100, 5))
        params = gmm_fit(X, k=3, seed=1)
        assert abs(params.weights.sum() - 1.0) < 1e-9
        assert np.all(params.weights > 0)
        assert np.all(params.variances >= 1e-6)


class TestPosterior:
    """The posterior p(component | x) as the batched calls expose it: its
    argmax is ``gmm_assign`` and its normalizer, the mixture density, is
    ``gmm_log_likelihood``."""

    def symmetric_params(self):
        return GmmParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
            variances=np.ones((2, 2)),
        )

    @staticmethod
    def components(params):
        return [
            GmmParams(weights=np.ones(1), means=params.means[c : c + 1], variances=params.variances[c : c + 1])
            for c in range(params.k)
        ]

    def test_matches_scipy_densities(self):
        params = GmmParams(
            weights=np.array([0.3, 0.7]),
            means=np.array([[-1.0, 2.0], [3.0, -0.5]]),
            variances=np.array([[0.5, 1.5], [2.0, 0.25]]),
        )
        x = np.array([0.7, 0.9])
        joint = np.array(
            [
                w * scipy_stats.multivariate_normal.pdf(x, mean=m, cov=np.diag(v))
                for w, m, v in zip(params.weights, params.means, params.variances)
            ]
        )
        assert gmm_log_likelihood(params, x[None]) == pytest.approx(np.log(joint.sum()), abs=1e-12)
        assert gmm_assign(params, x[None]).tolist() == [int(np.argmax(joint))]

    def test_concentrates_at_separated_mean(self):
        params = GmmParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-5.0], [5.0]]),
            variances=np.ones((2, 1)),
        )
        assert gmm_assign(params, np.array([[-5.0], [5.0]])).tolist() == [0, 1]

    def test_midpoint_is_half(self):
        # equal posteriors: the tie goes to the lower component id, and the
        # mixture density equals either component's
        params = self.symmetric_params()
        x = np.array([[0.0, 0.0]])
        assert gmm_assign(params, x).tolist() == [0]
        ll = gmm_log_likelihood(params, x)
        assert [gmm_log_likelihood(c, x) for c in self.components(params)] == pytest.approx([ll, ll], abs=1e-12)

    def test_single_component(self):
        params = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
        assert gmm_assign(params, np.zeros((3, 2))).tolist() == [0, 0, 0]
        assert gmm_log_likelihood(params, np.zeros((1, 2))) == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_sums_to_one(self, rng):
        # the posterior's normalizer: weighted component densities add up to
        # the mixture density, and the argmax is the heaviest of them
        params = gmm_fit(rng.normal(size=(60, 3)), k=3, seed=0)
        X = rng.normal(size=(10, 3))
        pairs = list(zip(params.weights, self.components(params)))
        weighted = np.array([[w * np.exp(gmm_log_likelihood(c, x[None])) for w, c in pairs] for x in X])
        mixture = [gmm_log_likelihood(params, x[None]) for x in X]
        assert mixture == pytest.approx(np.log(weighted.sum(axis=1)), abs=1e-12)
        assert np.array_equal(gmm_assign(params, X), np.argmax(weighted, axis=1))

    def test_permutation_equivariant(self, rng):
        params = gmm_fit(rng.normal(size=(80, 2)), k=3, seed=2)
        flipped = GmmParams(
            weights=params.weights[::-1].copy(),
            means=params.means[::-1].copy(),
            variances=params.variances[::-1].copy(),
        )
        X = rng.normal(size=(20, 2))
        assert np.array_equal(2 - gmm_assign(params, X), gmm_assign(flipped, X))
        assert gmm_log_likelihood(flipped, X) == pytest.approx(gmm_log_likelihood(params, X), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 5),
        p=st.integers(1, 20),
        scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log_joint_equals_the_broadcast_expression(self, n, k, p, scale, seed):
        # the E-step scales one component's squares at a time; the oracle is
        # the textbook expression over all (n, k, p) of them at once
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p)) * 10.0**scale
        weights = rng.random(k) + 0.1
        params = GmmParams(
            weights=weights / weights.sum(),
            means=rng.normal(size=(k, p)) * 10.0**scale,
            variances=10.0 ** rng.uniform(-6.0, 6.0, size=(k, p)) + 1e-6,
        )
        const = -0.5 * np.log(2.0 * np.pi * params.variances).sum(axis=1)
        quad = -0.5 * ((X[:, None, :] - params.means) ** 2 / params.variances).sum(axis=2)
        expected = np.log(params.weights) + const + quad
        got = gmm_mod._log_joint(params, X)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"expected windows of shape \(n, 2\), got \(1, 3\)"):
            gmm_assign(self.symmetric_params(), np.zeros((1, 3)))


class TestAssign:
    def test_matches_generating_component(self, rng):
        X, true = two_blob_data(rng, n=400)
        params = gmm_fit(X, k=2, seed=0)
        assign = gmm_assign(params, X)
        agree = max((assign == true).mean(), (assign != true).mean())
        assert agree > 0.95

    def test_single_point_single_component(self):
        params = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
        assert gmm_assign(params, np.zeros((1, 2))).tolist() == [0]

    def test_exact_tie_goes_to_lower_id(self):
        params = GmmParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.ones((2, 1)),
        )
        assert gmm_assign(params, np.array([[0.0]]))[0] == 0


class TestLogLikelihood:
    def test_closed_form_at_mean(self):
        p = 3
        params = GmmParams(weights=np.array([1.0]), means=np.zeros((1, p)), variances=np.ones((1, p)))
        expected = -(p / 2) * np.log(2 * np.pi)
        assert gmm_log_likelihood(params, np.zeros((1, p))) == pytest.approx(expected, abs=1e-12)

    def test_outlier_lowers_per_point_average(self, rng):
        X = rng.normal(size=(50, 2))
        params = gmm_fit(X, k=1, seed=0)
        base = gmm_log_likelihood(params, X) / 50
        X_out = np.vstack([X, [50.0, 50.0]])
        assert gmm_log_likelihood(params, X_out) / 51 < base


class TestSerialization:
    def test_json_round_trip(self, rng):
        params = gmm_fit(rng.normal(size=(50, 4)), k=2, seed=3)
        clone = from_json(GmmParams, to_json(params))
        assert np.array_equal(clone.weights, params.weights)
        assert np.array_equal(clone.means, params.means)
        assert np.array_equal(clone.variances, params.variances)
        assert clone.k == 2
        assert set(to_json(clone)) == {"weights", "means", "variances"}  # k is derived, not stored


class TestParamsChecks:
    """``GmmParams`` rejects arrays that do not describe one mixture of k
    p-dimensional components, and non-finite values, when it is built."""

    @pytest.mark.parametrize(
        "weights, means, variances",
        [
            pytest.param(np.full((1, 2), 0.5), np.zeros((2, 4)), np.ones((2, 4)), id="2-D weights"),
            pytest.param(np.array(1.0), np.zeros((1, 4)), np.ones((1, 4)), id="0-D weights"),
            pytest.param(np.full(2, 0.5), np.zeros(4), np.ones(4), id="1-D means and variances"),
            pytest.param(np.full(2, 0.5), np.zeros((3, 4)), np.ones((3, 4)), id="k means for other weights"),
            pytest.param(np.full(2, 0.5), np.zeros((2, 4)), np.ones((2, 5)), id="variances wider than means"),
            pytest.param(np.full(2, 0.5), np.zeros((2, 4)), np.ones((3, 4)), id="more variances than means"),
            pytest.param(np.full(2, 0.5), np.zeros((3, 4)), np.ones((2, 5)), id="all three disagree"),
        ],
    )
    def test_shapes_named(self, weights, means, variances):
        names = f"weights {weights.shape}, means {means.shape} and variances {variances.shape}"
        with pytest.raises(ValueError, match=re.escape(names)):
            GmmParams(weights=weights, means=means, variances=variances)

    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        arrays = {"weights": np.full(2, 0.5), "means": np.zeros((2, 3)), "variances": np.ones((2, 3))}
        arrays[field][-1] = value
        with pytest.raises(ValueError, match="non-finite mixture weights, means or variances"):
            GmmParams(**arrays)

    def test_lists_build_the_array_model(self):
        lists = {"weights": [0.25, 0.75], "means": [[0, 1], [2, 3]], "variances": [[1, 2], [3, 4]]}
        from_lists = GmmParams(**lists)
        from_arrays = GmmParams(**{name: np.array(value, dtype=np.float64) for name, value in lists.items()})
        for name in lists:
            a, b = getattr(from_lists, name), getattr(from_arrays, name)
            assert a.dtype == np.float64 and np.array_equal(a, b)
        assert to_json(from_lists) == to_json(from_arrays)

    def test_float64_arrays_pass_through(self):
        arrays = {"weights": np.full(2, 0.5), "means": np.zeros((2, 3)), "variances": np.ones((2, 3))}
        params = GmmParams(**arrays)
        assert all(getattr(params, name) is arrays[name] for name in arrays)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            GmmParams(weights=["half", "half"], means=np.zeros((2, 3)), variances=np.ones((2, 3)))

    def test_saved_model_with_wrong_width_means_fails_to_load(self, rng, tmp_path):
        windows = windows_from_arrays(rng.normal(size=(12, 2, 2)), 1 + np.arange(12) % 4)
        path = tmp_path / "model.json"
        save_model(fit(windows, windows[:4], k=1, config=TrainConfig(epochs=1, batch_size=8)), path)
        obj = json.loads(path.read_text())
        obj["gmm"]["means"] = [row + [0.0] for row in obj["gmm"]["means"]]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=re.escape("means (1, 5) and variances (1, 4)")):
            load_model(path)
