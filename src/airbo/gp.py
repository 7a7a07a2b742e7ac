"""Exact zero-mean GP marginal likelihood and posterior prediction.

The prior mean is zero: preprocessing standardises readings against the
tuning set, which makes that the only consistent choice. Factorisation
is Cholesky with a jitter ladder (1e-10, 1e-8, 1e-6); if all rungs fail
a :class:`~airbo.errors.NumericalError` is raised, never masked,
because downstream evaluation treats readings as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import InputError, NumericalError
from .kernels import CovarianceBuilder, KernelSpec, ThetaVector, _composite_terms, cross_covariance

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_LOG_2PI = math.log(2.0 * math.pi)


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
            _composite_terms(spec, theta, 0.0, 0.0, 0.0)
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

    def __call__(self, theta: ThetaVector) -> float:
        return _factorise(self._builder.gram(theta, include_noise=True), self._y)[2]
