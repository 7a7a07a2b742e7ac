"""Exact zero-mean GP marginal likelihood and posterior prediction.

The prior mean is zero: preprocessing standardises readings against the
tuning set, which makes that the only consistent choice. Factorisation
is Cholesky with a jitter ladder (1e-10, 1e-8, 1e-6); if all rungs fail
a :class:`~airbo.errors.NumericalError` is raised, never masked,
because downstream evaluation treats readings as ground truth.

:class:`GpSolve` is one fit under one theta. :class:`GpBatch` holds the
fits of M thetas at a fixed set of points and grows them one
observation at a time; it is what the placement loop uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import InputError, NumericalError
from .kernels import (
    NOISE_VARIANCE,
    CovarianceBuilder,
    KernelSpec,
    ThetaVector,
    _composite_terms,
    _kernel_args,
    cross_covariance,
)

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_LOG_2PI = math.log(2.0 * math.pi)
#: A new Cholesky pivot below this fraction of its diagonal entry is
#: within reach of round-off, so its sign is left to LAPACK: the sample
#: is refactorised from scratch instead of extended.
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class Posterior:
    """GP posterior at one point; variance is clamped to be nonnegative."""

    mean: float
    variance: float


def _stable_cholesky(K: np.ndarray) -> np.ndarray:
    for jitter in _JITTER_LADDER:
        try:
            if jitter:
                return cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return cholesky(K, lower=True)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"Cholesky failed for a {K.shape[0]}x{K.shape[0]} covariance even "
        f"after jitter up to {_JITTER_LADDER[-1]}"
    )


def _factorise(K: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky factor ``L``, ``alpha = K^-1 y`` and the log marginal likelihood."""
    L = _stable_cholesky(K)
    alpha = cho_solve((L, True), y)
    loglik = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * len(y) * _LOG_2PI)
    return L, alpha, loglik


class GpSolve:
    """One factorised GP fit: shared by likelihood and prediction.

    Built once per (theta, observations) pair; ``loglik`` and
    ``posterior`` then reuse the same Cholesky factor, which is what the
    BO loop needs (importance weight and acquisition from one solve).
    """

    def __init__(self, spec: KernelSpec, theta: ThetaVector, X, y) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise InputError(f"need at least one observation, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise InputError(f"values shape {y.shape} does not match {X.shape[0]} locations")
        self.spec = spec
        self.theta = theta
        self.X = X
        self.y = y
        K = CovarianceBuilder(spec, X).gram(theta, include_noise=True)
        self._L, self._alpha, self.loglik = _factorise(K, y)
        self._k0 = float(
            _composite_terms(spec, _kernel_args(spec, theta), 0.0, 0.0, 0.0)
        )  # prior variance at zero lag

    def posterior(self, X_star) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at a batch of points."""
        X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
        K_star = cross_covariance(self.spec, self.theta, self.X, X_star)
        means = K_star.T @ self._alpha
        v = solve_triangular(self._L, K_star, lower=True)
        variances = self._k0 - np.einsum("ij,ij->j", v, v)
        np.clip(variances, 0.0, None, out=variances)
        return means, variances


def log_marginal_likelihood(
    spec: KernelSpec, theta: ThetaVector, observed_locations, observed_values
) -> float:
    """Log density of the observations under the zero-mean GP + noise."""
    return GpSolve(spec, theta, observed_locations, observed_values).loglik


def posterior_at(
    spec: KernelSpec, theta: ThetaVector, observed_locations, observed_values, x_star
) -> Posterior:
    """Exact GP posterior at a single query point."""
    solve = GpSolve(spec, theta, observed_locations, observed_values)
    means, variances = solve.posterior(np.asarray(x_star, dtype=float).reshape(1, 2))
    return Posterior(mean=float(means[0]), variance=float(variances[0]))


class CachedMarginal:
    """Marginal likelihood for one fixed data set, fast in theta.

    Displacements are differenced once; each call only rebuilds the Gram
    matrix and factorises. This is the MCMC hot path.
    """

    def __init__(self, spec: KernelSpec, X, y) -> None:
        self._builder = CovarianceBuilder(spec, X)
        self._y = np.asarray(y, dtype=float)
        if self._y.shape != (self._builder.n,):
            raise InputError(
                f"values shape {self._y.shape} does not match {self._builder.n} locations"
            )

    def __call__(self, theta: ThetaVector | np.ndarray) -> float:
        return _factorise(self._builder.gram(theta, include_noise=True), self._y)[2]


class GpBatch:
    """GP fits of M thetas at a fixed set of columns, grown one noise-free
    observation at a time; every observation is one of the columns.

    Per sample it keeps ``V = L^-1 K(X_obs, cols)``, ``z = L^-1 y``, the
    running posterior mean ``sum z_i v_i`` and explained variance
    ``sum v_i^2`` at every column, and the log marginal likelihood.
    Adding the observation at column ``c`` extends each Cholesky factor
    by one row with no solve: its off-diagonal part is ``l = V[:, :n, c]``,
    its pivot ``d^2 = k0 + noise - sum(v^2)[c]``, and the new row of
    ``V`` is ``(k(x_c, cols) - l^T V) / d``. That is O(M n C) flops and
    M C kernel evaluations per observation.

    A sample whose pivot is not safely positive is refactorised from
    scratch through the jitter ladder; if every rung fails it is flagged
    ``failed`` and retried on the next observation, like a fresh
    per-sample fit would be. Later rows do not carry a rung's jitter: a
    rung is only needed once the noise variance is lost to round-off in
    ``k0``, and then the jitter (at most 1e-6) is lost with it.
    """

    def __init__(self, spec: KernelSpec, thetas, cols, n_max: int) -> None:
        self.spec = spec
        self.theta = np.array([spec.pack(t) for t in thetas])  # (M, p)
        self._args = _kernel_args(spec, self.theta)
        self.cols = np.asarray(cols, dtype=float).reshape(-1, 2)
        M, C = len(self.theta), len(self.cols)
        self.n = 0
        self.obs = np.zeros(n_max, dtype=int)
        self.y = np.zeros(n_max)
        self.V = np.zeros((M, n_max, C))
        self.z = np.zeros((M, n_max))
        self.mean = np.zeros((M, C))
        self.explained = np.zeros((M, C))
        self.loglik = np.zeros(M)
        self.failed = np.zeros(M, dtype=bool)
        self.k0 = _composite_terms(spec, self._args, 0.0, 0.0, 0.0)  # (M, 1)

    def add(self, col: int, value: float) -> None:
        """Observe ``value`` at column ``col``."""
        n = self.n
        tx = self.cols[col, 0] - self.cols[:, 0]
        ty = self.cols[col, 1] - self.cols[:, 1]
        k = _composite_terms(self.spec, self._args, tx * tx + ty * ty, tx, ty)
        V, z = self.V[:, :n], self.z[:, :n]
        l = V[:, :, col]
        diag = k[:, col] + NOISE_VARIANCE
        pivot = diag - self.explained[:, col]
        ok = pivot > _PIVOT_RTOL * diag
        d = np.sqrt(np.where(ok, pivot, 1.0))
        row = (k - (l[:, None, :] @ V)[:, 0]) / d[:, None]
        z_new = (value - np.einsum("mn,mn->m", l, z)) / d
        self.V[:, n] = row
        self.z[:, n] = z_new
        self.mean += z_new[:, None] * row
        self.explained += row * row
        self.loglik -= 0.5 * z_new * z_new + np.log(d) + 0.5 * _LOG_2PI
        self.obs[n], self.y[n], self.n = col, value, n + 1
        for i in np.flatnonzero(~ok | self.failed):
            self._refactorise(i)

    def _refactorise(self, i: int) -> None:
        n, theta = self.n, self.theta[i]
        X, y = self.cols[self.obs[:n]], self.y[:n]
        try:
            L = _stable_cholesky(CovarianceBuilder(self.spec, X).gram(theta))
        except NumericalError:
            self.failed[i] = True
            for state in (self.V, self.z, self.mean, self.explained, self.loglik):
                state[i] = 0.0
            return
        self.failed[i] = False
        V = solve_triangular(L, cross_covariance(self.spec, theta, X, self.cols), lower=True)
        z = solve_triangular(L, y, lower=True)
        self.V[i, :n], self.z[i, :n] = V, z
        self.mean[i] = z @ V
        self.explained[i] = np.einsum("nc,nc->c", V, V)
        self.loglik[i] = -0.5 * z @ z - np.log(np.diag(L)).sum() - 0.5 * n * _LOG_2PI

    def posterior(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample posterior means and variances at ``cols``, ``(M, len)``."""
        variances = self.k0 - self.explained[:, cols]
        np.clip(variances, 0.0, None, out=variances)
        return self.mean[:, cols], variances
