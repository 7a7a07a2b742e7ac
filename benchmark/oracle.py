"""Reference computations the benchmark checks the program against.

Written from the model's formulas with numpy and the standard library
only, and deliberately by other routes than the program takes: dense
inverses instead of Cholesky solves, ``math.erf`` instead of scipy's
``ndtr``, explicit loops over runs instead of the program's grouping.
"""

from __future__ import annotations

import math

import numpy as np

NOISE_VARIANCE = 1e-6
#: posterior variance at or below the noise clamp counts as zero
VARIANCE_FLOOR = NOISE_VARIANCE * (1.0 + 1e-6)

SLOTS = {
    "rbf_rbf": ("sigma_r1", "l_r1", "sigma_r2", "l_r2"),
    "sum": ("sigma_r1", "l_r1", "sigma_w2", "l_w2"),
}


def rbf(tau, sigma: float, l: float) -> float:
    """``sigma^2 exp(-|tau|^2 / l^2)`` at one displacement."""
    tx, ty = tau
    return sigma * sigma * math.exp(-(tx * tx + ty * ty) / (l * l))


def directed(tau, sigma: float, l: float, gamma: float) -> float:
    """RBF of the displacement's component across the direction ``gamma``."""
    tx, ty = tau
    across = tx * math.sin(gamma) - ty * math.cos(gamma)
    return sigma * sigma * math.exp(-across * across / (l * l))


def covariance(family: str, theta: dict, gamma, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Noise-free composite covariance between point sets A (n, 2) and B (m, 2)."""
    tx = A[:, 0][:, None] - B[:, 0][None, :]
    ty = A[:, 1][:, None] - B[:, 1][None, :]
    d2 = tx * tx + ty * ty
    first = theta["sigma_r1"] ** 2 * np.exp(-d2 / theta["l_r1"] ** 2)
    if family == "rbf_rbf":
        return first + theta["sigma_r2"] ** 2 * np.exp(-d2 / theta["l_r2"] ** 2)
    if family == "sum":
        across = tx * math.sin(gamma) - ty * math.cos(gamma)
        return first + theta["sigma_w2"] ** 2 * np.exp(-across * across / theta["l_w2"] ** 2)
    raise ValueError(f"no reference formula for kernel {family!r}")


def log_standardise(tuning: list[np.ndarray], every: list[np.ndarray]):
    """Log readings standardised by the tuning set's mean and sample sd.

    Blank (nan) readings stay nan and are left out of the statistics.
    """
    logs = np.log(np.concatenate([r[np.isfinite(r)] for r in tuning]))
    mean = float(np.sum(logs) / logs.size)
    sd = math.sqrt(float(np.sum((logs - mean) ** 2)) / (logs.size - 1))
    return mean, sd, [(np.log(r) - mean) / sd for r in every]


def expected_improvement(mean: float, variance: float, f_best: float) -> float:
    """Closed-form EI of a Gaussian over ``f_best``; noise-level variance is zero."""
    delta = mean - f_best
    if variance <= VARIANCE_FLOOR:
        return max(0.0, delta)
    sd = math.sqrt(variance)
    z = delta / sd
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return max(0.0, delta * cdf + sd * pdf)


_erf = np.frompyfunc(math.erf, 1, 1)


def _ei_array(means: np.ndarray, variances: np.ndarray, f_best: float) -> np.ndarray:
    """``expected_improvement`` over arrays, with the same floor and formula."""
    delta = means - f_best
    live = variances > VARIANCE_FLOOR
    sd = np.sqrt(np.where(live, variances, 1.0))
    z = delta / sd
    cdf = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.maximum(np.where(live, delta * cdf + sd * pdf, delta), 0.0)


def weighted_ei(family: str, samples: list[tuple[dict, float | None]],
                X: np.ndarray, y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Importance-weighted EI at candidates C given observations (X, y).

    Each prior sample is weighted by its Gaussian marginal likelihood of
    y, computed with a dense inverse and log-determinant.
    """
    f_best = float(np.max(y))
    logs, eis = [], []
    for theta, gamma in samples:
        K = covariance(family, theta, gamma, X, X) + NOISE_VARIANCE * np.eye(len(X))
        K_inv = np.linalg.inv(K)
        sign, logdet = np.linalg.slogdet(K)
        if sign <= 0:
            continue
        logs.append(-0.5 * y @ K_inv @ y - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi))
        k = covariance(family, theta, gamma, X, C)
        k0 = float(covariance(family, theta, gamma, C[:1], C[:1])[0, 0])
        means = k.T @ (K_inv @ y)
        variances = np.maximum(k0 - np.einsum("ij,ij->j", k, K_inv @ k), 0.0)
        eis.append(_ei_array(means, variances, f_best))
    logs = np.array(logs)
    w = np.exp(logs - logs.max())
    return (w / w.sum()) @ np.array(eis)


def best_so_far_curves(values: np.ndarray, points: np.ndarray,
                       y_star: float, x_star: np.ndarray):
    """Ratio to the true maximum and distance to the true maximiser of
    the running best (first occurrence kept on ties), per step."""
    best = 0
    ratio, distance = [], []
    for i in range(len(values)):
        if values[i] > values[best]:
            best = i
        ratio.append(values[best] / y_star)
        distance.append(math.hypot(*(points[best] - x_star)))
    return np.array(ratio), np.array(distance)
