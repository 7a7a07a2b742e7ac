"""Importance-weighted expected improvement and the placement loop.

Instead of refitting hyperparameters at every iteration, the loop keeps
a fixed set of prior theta samples and reweights them by their marginal
likelihood on the observations collected so far. The acquisition at a
candidate is then the weighted average of per-sample expected
improvements. Observed locations are removed from the candidate set:
readings are noise-free ground truth, so resampling is information-free
(and their EI is 0 anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import Snapshot
from .errors import InputError
from .gp import GpBatch, Posterior
from .kernels import NOISE_VARIANCE, KernelSpec
from .mcmc import PriorSampleSet
from .rng import stream
from .traces import BoTrace

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Posterior variance at or below the observation-noise clamp carries no
#: epistemic mass: readings are ground truth, so what remains at an
#: observed point is the stability clamp, not real uncertainty. The
#: small headroom absorbs round-off.
_VARIANCE_FLOOR = NOISE_VARIANCE * (1.0 + 1e-6)


@dataclass(frozen=True)
class BoConfig:
    """Settings for one placement run."""

    n_init: int
    n_iter: int
    prior: PriorSampleSet
    seed: int = 13

    def __post_init__(self) -> None:
        if self.n_init < 1:
            raise InputError(f"n_init must be >= 1, got {self.n_init}")
        if self.n_iter < self.n_init:
            raise InputError(f"n_iter={self.n_iter} must be >= n_init={self.n_init}")
        if len(self.prior) < 1:
            raise InputError("prior sample set is empty")


def expected_improvement(post: Posterior, f_best: float) -> float:
    """Closed-form Gaussian expected improvement over ``f_best``.

    Variances at or below the observation-noise clamp are treated as
    zero, so the acquisition vanishes at already-observed points.
    """
    if post.variance < 0:
        raise InputError(f"variance must be >= 0, got {post.variance}")
    return float(_ei_batch(np.array([post.mean]), np.array([post.variance]), f_best)[0])


def _ei_batch(means: np.ndarray, variances: np.ndarray, f_best: float) -> np.ndarray:
    delta = means - f_best
    live = variances > _VARIANCE_FLOOR
    sigma = np.sqrt(np.where(live, variances, 1.0))
    z = delta / sigma
    out = np.where(
        live,
        delta * ndtr(z) + sigma * np.exp(-0.5 * z * z) / _SQRT_2PI,
        delta,
    )
    return np.maximum(out, 0.0)


@dataclass
class ImportanceWeights:
    """Normalised weights over prior samples plus degeneracy diagnostics."""

    weights: np.ndarray
    ess: float
    failed: np.ndarray  # per-sample numerical-failure flags
    fallback_uniform: bool = False


def _normalise_weights(logs: np.ndarray, failed: np.ndarray) -> ImportanceWeights:
    """Max-subtraction normalisation; uniform fallback if all failed."""
    M = len(logs)
    if failed.all():
        return ImportanceWeights(
            np.full(M, 1.0 / M), ess=float(M), failed=failed, fallback_uniform=True
        )
    shifted = logs - logs[~failed].max()
    weights = np.where(failed, 0.0, np.exp(shifted))
    weights /= weights.sum()
    return ImportanceWeights(weights, ess=float(1.0 / np.sum(weights**2)), failed=failed)


def log_importance_weights(
    spec: KernelSpec, prior: PriorSampleSet, observed_locations, observed_values
) -> ImportanceWeights:
    """Weights proportional to each sample's marginal likelihood.

    Normalisation happens in log space by max-subtraction. Samples whose
    likelihood evaluation fails get weight zero; if every sample fails
    the weights fall back to uniform and the result is flagged.
    """
    return _one_shot(spec, prior, observed_locations, observed_values, np.empty((0, 2)))[1]


def weighted_acquisition(
    spec: KernelSpec, prior: PriorSampleSet, observed_locations, observed_values, x_star
) -> float:
    """Importance-weighted EI at a single candidate point."""
    acq = _one_shot(
        spec, prior, observed_locations, observed_values,
        np.asarray(x_star, dtype=float).reshape(1, 2),
    )[0]
    return float(acq[0])


def _one_shot(spec: KernelSpec, prior: PriorSampleSet, observed_locations, observed_values,
              X_star: np.ndarray):
    """Weighted EI at ``X_star`` from a batch whose columns are the
    observed locations followed by ``X_star``."""
    X = np.asarray(observed_locations, dtype=float)
    y = np.asarray(observed_values, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InputError(f"need at least one observation, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise InputError(f"values shape {y.shape} does not match {X.shape[0]} locations")
    gp = GpBatch(spec, prior.samples, np.vstack([X, X_star]), len(y))
    for col, value in enumerate(y):
        gp.add(col, value)
    return _weighted_acquisition_batch(gp, np.arange(len(y), len(gp.cols)))


def _weighted_acquisition_batch(gp: GpBatch, open_cols):
    """Weighted EI at the columns ``open_cols`` of ``gp`` (an index or
    boolean mask), with the importance weights it used."""
    failed = gp.failed.copy()
    iw = _normalise_weights(gp.loglik, failed)
    means, variances = gp.posterior(open_cols)
    ei = _ei_batch(means, variances, float(gp.y[: gp.n].max()))
    acq = iw.weights @ np.where(failed[:, None], 0.0, ei)
    return acq, iw


def run_bo(snapshot: Snapshot, spec: KernelSpec, config: BoConfig) -> BoTrace:
    """Sequentially place ``n_iter`` sensors on one snapshot.

    The first ``n_init`` locations are distinct uniform draws over the
    available candidates; each later iteration evaluates the weighted
    acquisition at every unvisited candidate and takes the argmax
    (first index on ties). Observations are the snapshot's pre-processed
    values, treated as noise-free ground truth.
    """
    if snapshot.values_pre is None:
        raise InputError(f"snapshot {snapshot.id} is not preprocessed")
    candidates = snapshot.candidate_indices
    if len(candidates) < config.n_iter:
        raise InputError(
            f"snapshot {snapshot.id} has {len(candidates)} candidates, "
            f"fewer than n_iter={config.n_iter}"
        )
    rng = stream(config.seed, "bo-init", snapshot.id)
    trace = BoTrace(snapshot_id=snapshot.id)
    gp = GpBatch(spec, config.prior.samples, snapshot.locations[candidates], config.n_iter)
    open_cols = np.ones(len(candidates), dtype=bool)

    def observe(col: int, iteration: int, ess: float = math.nan) -> None:
        open_cols[col] = False
        idx = candidates[col]
        gp.add(col, snapshot.values_pre[idx])
        x, y = snapshot.locations[idx]
        trace.append_observation(
            iteration, float(x), float(y),
            float(snapshot.values_raw[idx]), float(snapshot.values_pre[idx]), ess,
        )

    # positions into ``candidates``: the same draws as choosing from it
    for i, col in enumerate(rng.choice(len(candidates), size=config.n_init, replace=False)):
        observe(int(col), i + 1)

    for iteration in range(config.n_init + 1, config.n_iter + 1):
        acq, iw = _weighted_acquisition_batch(gp, open_cols)
        if iw.fallback_uniform:
            trace.flagged_iterations.append(iteration)
        observe(int(np.flatnonzero(open_cols)[np.argmax(acq)]), iteration, ess=iw.ess)
    return trace
