"""Sensor placement by Bayesian optimisation with a hierarchical GP prior.

Workflow: ingest (or synthesise) pollution snapshots, pre-train gamma
hyperpriors over GP hyperparameters on a tuning set by MCMC, then place
sensors on unseen snapshots with importance-weighted expected
improvement, and score against random baselines.

BLAS runs on one thread unless the environment says otherwise: the bits
of a Cholesky factor or a matrix product depend on the thread count, and
every output is meant to be a pure function of its inputs. This must run
before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .acquisition import (
    BoConfig,
    expected_improvement,
    log_importance_weights,
    run_bo,
    weighted_acquisition,
)
from .baselines import BaselineKind, BaselinePolicy, run_baseline
from .data import (
    Dataset,
    Snapshot,
    generate_synthetic,
    load_dataset,
    load_grid_csv,
    load_station_csv,
    preprocess,
    project_latlon,
    save_dataset,
)
from .gp import Posterior, log_marginal_likelihood, posterior_at
from .kernels import (
    NOISE_VARIANCE,
    KernelFamily,
    KernelSpec,
    ThetaVector,
    composite_eval,
    correlation_at_distance,
    covariance_matrix,
    directed_eval,
    get_spec,
    rbf_eval,
)
from .mcmc import (
    PriorSampleSet,
    ProposalWidths,
    draw_prior_samples,
    gamma_logpdf,
    load_prior,
    run_chain,
    save_prior,
)
from .metrics import (
    MetricCurve,
    exploration_curve,
    maximiser_distance_curve,
    maximum_ratio_curve,
    summarize_interval,
)
from .traces import BoTrace, load_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "BaselineKind",
    "BaselinePolicy",
    "BoConfig",
    "BoTrace",
    "Dataset",
    "KernelFamily",
    "KernelSpec",
    "MetricCurve",
    "NOISE_VARIANCE",
    "Posterior",
    "PriorSampleSet",
    "ProposalWidths",
    "Snapshot",
    "ThetaVector",
    "composite_eval",
    "correlation_at_distance",
    "covariance_matrix",
    "directed_eval",
    "draw_prior_samples",
    "expected_improvement",
    "exploration_curve",
    "gamma_logpdf",
    "generate_synthetic",
    "get_spec",
    "load_dataset",
    "load_grid_csv",
    "load_prior",
    "load_station_csv",
    "load_trace",
    "log_importance_weights",
    "log_marginal_likelihood",
    "maximiser_distance_curve",
    "maximum_ratio_curve",
    "posterior_at",
    "preprocess",
    "project_latlon",
    "rbf_eval",
    "run_baseline",
    "run_bo",
    "run_chain",
    "save_dataset",
    "save_prior",
    "save_trace",
    "summarize_interval",
    "weighted_acquisition",
]
