"""Diagonal-covariance Gaussian mixture fitted by EM.

Clusters flattened 2-frame windows of the source domain; each cluster later
gets its own recurrent expert.  Diagonal covariances because the flattened
window dimension (2d, typically 18) is large relative to the few thousand
available points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets.common import check_inputs, row_max

VAR_FLOOR = 1e-6
_WEIGHT_FLOOR = 1e-12
MAX_ITER = 200
TOL = 1e-6


@dataclass(frozen=True)
class GmmParams:
    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, p)
    variances: np.ndarray  # (k, p)

    def __post_init__(self):
        """O(k p) checks, since ``gmm_fit`` builds one per EM iteration.
        The fields become float64 arrays; a float64 array passes through as is."""
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        w, m, v = self.weights, self.means, self.variances
        if w.ndim != 1 or m.ndim != 2 or m.shape[0] != w.shape[0] or v.shape != m.shape:
            raise ValueError(
                f"mixture weights {w.shape}, means {m.shape} and variances {v.shape} are not (k,), (k, p) and (k, p)"
            )
        if not all(np.isfinite(a).all() for a in (w, m, v)):
            raise ValueError("non-finite mixture weights, means or variances")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if np.any(v < VAR_FLOOR):
            raise ValueError(f"variances below floor {VAR_FLOOR}")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]


def _log_joint(params: GmmParams, X: np.ndarray) -> np.ndarray:
    """(n, k) matrix of log(pi_k) + log N(x_i ; mu_k, diag(var_k))."""
    const = -0.5 * np.log(2.0 * np.pi * params.variances).sum(axis=1)  # (k,)
    quad = np.empty((X.shape[0], params.k))
    d = np.empty_like(X)  # one component's scaled squares at a time, in place
    for j in range(params.k):
        np.subtract(X, params.means[j], out=d)
        np.square(d, out=d)
        d /= params.variances[j]
        np.add.reduce(d, axis=1, out=quad[:, j])
    quad *= -0.5
    return np.log(params.weights) + const + quad


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = row_max(a)
    return m[:, 0] + np.log(np.exp(a - m).sum(axis=1))


def gmm_assign(params: GmmParams, X: np.ndarray) -> np.ndarray:
    """Hard cluster ids: argmax posterior, ties to the lower component id."""
    X = check_inputs(X, (params.p,))
    lj = _log_joint(params, X)
    return np.argmax(lj, axis=1)


def gmm_log_likelihood(params: GmmParams, X: np.ndarray) -> float:
    X = check_inputs(X, (params.p,))
    return float(_logsumexp_rows(_log_joint(params, X)).sum())


def _squared_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance of every row of X to x.  On wide input the sum over
    the features can overflow while each feature's variance is finite."""
    with np.errstate(over="ignore"):
        d2 = ((X - x) ** 2).sum(axis=1)
    if not np.all(np.isfinite(d2)):
        raise ValueError(f"squared distances overflow float64 (largest |x| is {np.abs(X).max():.3g}); rescale it")
    return d2


def _farthest_point_means(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # First center random, each next one maximizes min distance to the chosen set.
    first = int(rng.integers(X.shape[0]))
    chosen = [first]
    d2 = _squared_distances(X, X[first])
    for _ in range(1, k):
        j = int(np.argmax(d2))
        chosen.append(j)
        d2 = np.minimum(d2, _squared_distances(X, X[j]))
    return X[chosen].copy()


def gmm_fit(X: np.ndarray, k: int = 2, seed: int = 0, return_trace: bool = False):
    """Fit a k-component diagonal GMM with EM.

    Seeding is farthest-point from a seeded RNG (single restart), so the fit
    is deterministic given (X, k, seed).  Stops when the log-likelihood
    improves by less than ``TOL`` or after ``MAX_ITER`` iterations; variances
    are floored at 1e-6 every M-step.

    Returns GmmParams, or (GmmParams, trace) with the per-iteration
    log-likelihood trace when ``return_trace`` is set.
    """
    X = check_inputs(X, (None,))
    n, p = X.shape
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        var = X.var(axis=0)
    if not np.all(np.isfinite(var)):
        raise ValueError(f"input variance overflows float64 (largest |x| is {np.abs(X).max():.3g}); rescale it")
    # the M-step's second moments weigh these squares: a large common offset
    # overflows them while the variance stays finite
    with np.errstate(over="ignore"):
        X2 = X**2
        finite = np.all(np.isfinite(X2.sum(axis=0)))
    if not finite:
        raise ValueError(f"squared inputs overflow float64 (largest |x| is {np.abs(X).max():.3g}); rescale it")
    rng = np.random.default_rng(seed)

    means = _farthest_point_means(X, k, rng)
    variances = np.tile(np.maximum(var, VAR_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev_ll = -np.inf
    for _ in range(MAX_ITER):
        params = GmmParams(weights=weights, means=means, variances=variances)
        lj = _log_joint(params, X)
        per_point = _logsumexp_rows(lj)
        ll = float(per_point.sum())
        trace.append(ll)
        if ll - prev_ll < TOL:
            break
        prev_ll = ll
        resp = np.exp(lj - per_point[:, None])  # E-step

        # M-step
        nk = resp.sum(axis=0)
        alive = nk > _WEIGHT_FLOOR
        new_means = means.copy()
        new_vars = variances.copy()
        new_means[alive] = (resp.T @ X)[alive] / nk[alive, None]
        ex2 = (resp.T @ X2)[alive] / nk[alive, None]
        new_vars[alive] = np.maximum(ex2 - new_means[alive] ** 2, VAR_FLOOR)
        weights = np.maximum(nk / n, _WEIGHT_FLOOR)
        weights = weights / weights.sum()
        means, variances = new_means, new_vars

    params = GmmParams(weights=weights, means=means, variances=variances)
    if return_trace:
        return params, trace
    return params
