"""Metropolis-Hastings training of the hierarchical hyperparameter prior.

The model has two latent layers: per-snapshot GP hyperparameters (the
theta layer) and the gamma shape/scale pairs tying them together across
snapshots (the eta layer). The chain alternates a sweep of slot-wise
theta updates with ``B`` sweeps of eta updates:

* theta moves propose from the conditional prior given eta (an
  independence sampler), so the prior terms cancel and the acceptance
  ratio is a plain likelihood ratio;
* eta moves are Gaussian random walks with slot-kind-specific widths,
  accepted on the product of gamma densities of the current thetas,
  with a flat positivity prior.

The direction angle has no eta parameters: its prior and proposal are
both Uniform(0, pi). Noise is clamped and never updated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .data import Snapshot, atomic_write_text, require_fields
from .errors import InputError, NumericalError, ParseError, SpecMismatchError
from .gp import CachedMarginal
from .kernels import NOISE_VARIANCE, KernelSpec, SlotKind, ThetaVector, get_spec
from .rng import ChainRngs, stream

#: Floor for gamma draws; guards against underflow to an exact zero.
_POSITIVE_FLOOR = 1e-12


@dataclass
class ProposalWidths:
    """Random-walk widths for the eta moves, by slot kind and parameter."""

    shape_lengthscale: float = 1.5
    scale_lengthscale: float = 0.5
    shape_amplitude: float = 0.3
    scale_amplitude: float = 0.1

    def array(self, spec: KernelSpec) -> np.ndarray:
        """``(S, 2)`` shape and scale widths of the spec's sampled slots."""
        by_kind = {
            SlotKind.AMPLITUDE: (self.shape_amplitude, self.scale_amplitude),
            SlotKind.LENGTHSCALE: (self.shape_lengthscale, self.scale_lengthscale),
        }
        return np.array([by_kind[s.kind] for s in spec.sampled_slots])


@dataclass
class ChainSample:
    """Joint state stored after one chain iteration: ``eta`` is ``(S, 2)``
    gamma shapes and scales of the sampled slots, ``theta`` the ``(N, p)``
    packed thetas of the N snapshots (see :attr:`KernelSpec.layout`)."""

    iteration: int
    spec: KernelSpec
    eta: np.ndarray
    theta: np.ndarray

    @property
    def theta_all(self) -> tuple[ThetaVector, ...]:
        return tuple(self.spec.unpack(t) for t in self.theta)


@dataclass
class PriorSampleSet:
    """Thetas drawn from the trained prior, reused across all BO runs."""

    samples: list[ThetaVector]
    provenance: dict

    def __len__(self) -> int:
        return len(self.samples)


def gamma_logpdf(x, shape: float, scale: float):
    """Log gamma density, shape-scale parameterisation. Vectorised in x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not (shape > 0 and scale > 0):
        raise InputError("gamma_logpdf requires x, shape and scale all > 0")
    out = (shape - 1.0) * np.log(x) - x / scale - gammaln(shape) - shape * math.log(scale)
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


def _draw_gamma(rng: np.random.Generator, shape: float, scale: float) -> float:
    return max(float(rng.gamma(shape, scale)), _POSITIVE_FLOOR)


def sample_theta_from_eta(
    spec: KernelSpec, eta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One packed theta drawn from the prior implied by eta."""
    values = [_draw_gamma(rng, shape, scale) for shape, scale in eta.tolist()]
    if spec.has_direction:
        values.append(float(rng.uniform(0.0, math.pi)))
    return np.array(values)


def _mh_accept(log_ratio: float, rng: np.random.Generator) -> bool:
    if math.isnan(log_ratio):
        return False
    if log_ratio >= 0:
        return True
    u = float(rng.uniform())
    return u == 0.0 or math.log(u) < log_ratio


def theta_update(
    theta: np.ndarray,
    j: int,
    eta: np.ndarray,
    loglik: Callable[[np.ndarray], float],
    rngs: ChainRngs,
    cur_loglik: float,
) -> tuple[float, bool, float, bool]:
    """One move of entry ``j`` of the packed ``theta``.

    The proposal comes from the conditional prior (gamma for amplitudes
    and lengthscales, Uniform(0, pi) for the direction angle, the entry
    past the ``S`` rows of ``eta``), so acceptance reduces to the data
    likelihood ratio. A proposal whose likelihood evaluation fails
    numerically is auto-rejected and flagged. Returns ``(value,
    accepted, loglik, failed)``.
    """
    if j >= len(eta):
        value = float(rngs.theta_proposals.uniform(0.0, math.pi))
    else:
        value = _draw_gamma(rngs.theta_proposals, *eta[j].tolist())
    proposal = theta.copy()
    proposal[j] = value
    try:
        prop_loglik = loglik(proposal)
    except NumericalError:
        return float(theta[j]), False, cur_loglik, True
    if _mh_accept(prop_loglik - cur_loglik, rngs.accept):
        return value, True, prop_loglik, False
    return float(theta[j]), False, cur_loglik, False


def eta_update(
    eta: np.ndarray,
    i: int,
    w: int,
    values: np.ndarray,
    rngs: ChainRngs,
    width: float,
) -> tuple[float, bool]:
    """One random-walk move of ``eta[i, w]`` (``w`` 0: shape, 1: scale).

    ``values`` holds slot ``i`` of every snapshot's theta. The positivity
    prior zeroes out non-positive proposals; otherwise the symmetric
    proposal cancels and acceptance is the ratio of the products of
    gamma densities of ``values``. With no snapshots this degenerates to
    a positive-constrained random walk. Returns ``(value, accepted)``.
    """
    cur = eta[i].tolist()
    proposal = cur[w] + float(rngs.eta_proposals.normal(0.0, width))
    if proposal <= 0:
        return cur[w], False
    if len(values) == 0:
        log_ratio = 0.0
    else:
        new = list(cur)
        new[w] = proposal
        log_ratio = float(
            np.sum(gamma_logpdf(values, *new)) - np.sum(gamma_logpdf(values, *cur))
        )
    if _mh_accept(log_ratio, rngs.accept):
        return proposal, True
    return cur[w], False


@dataclass
class ChainResult:
    """All stored samples plus acceptance diagnostics.

    The ``(H, ·)`` arrays hold, per iteration, accepted moves (out of N
    snapshots for theta, B sweeps for eta), the theta means over
    snapshots and the eta values, one column per ``theta_slots`` or
    ``eta_names`` entry."""

    spec: KernelSpec
    samples: list[ChainSample]
    burn_in: int
    B: int
    seed: int
    theta_acceptance: dict[str, float]
    eta_acceptance: dict[str, float]
    n_numerical_failures: int
    theta_slots: tuple[str, ...]
    eta_names: tuple[str, ...]
    theta_accepted: np.ndarray
    theta_means: np.ndarray
    eta_accepted: np.ndarray
    eta_values: np.ndarray

    def draw_prior(self, M: int, seed: int, provenance_extra: dict | None = None) -> PriorSampleSet:
        provenance = {
            "kernel": self.spec.family.value,
            "H": len(self.samples),
            "burn_in": self.burn_in,
            "B": self.B,
            "seed": self.seed,
            **(provenance_extra or {}),
        }
        return draw_prior_samples(self.spec, self.samples, self.burn_in, M, seed, provenance)


def run_chain(
    spec: KernelSpec,
    tuning_snapshots: Sequence[Snapshot],
    H: int,
    burn_in: int,
    B: int = 5,
    seed: int = 13,
    widths: ProposalWidths | None = None,
    loglik_fn: Callable[[int, np.ndarray], float] | None = None,
    freeze_eta: bool = False,
) -> ChainResult:
    """Collect H joint (eta, theta) samples over the tuning snapshots.

    Eta starts at all ones and theta by sampling from it. Each iteration
    sweeps every (snapshot, slot) theta move using the freshest slots,
    then runs ``B`` sweeps of all eta shape/scale moves. All H samples
    are stored; discard ``burn_in`` downstream.

    ``loglik_fn(n, t)`` overrides the GP marginal likelihood (used by
    stationarity diagnostics); it receives snapshot ``n``'s packed theta
    ``t`` in :attr:`KernelSpec.layout` order. ``freeze_eta`` pins eta at
    its initial value, which makes the theta moves' stationary law a
    fixed gamma.
    """
    if len(tuning_snapshots) < 1:
        raise InputError("need at least one tuning snapshot")
    if not (H > burn_in >= 0):
        raise InputError(f"need H > burn_in >= 0, got H={H} burn_in={burn_in}")
    if B < 1:
        raise InputError(f"need B >= 1, got B={B}")
    width = (widths or ProposalWidths()).array(spec)

    if loglik_fn is None:
        cached = []
        for snap in tuning_snapshots:
            if snap.n_candidates < 1:
                raise InputError(f"snapshot {snap.id} has no available observations")
            if snap.values_pre is None:
                raise InputError(f"snapshot {snap.id} is not preprocessed")
            cached.append(
                CachedMarginal(spec, snap.locations[snap.mask], snap.values_pre[snap.mask])
            )
        loglik_fn = lambda n, t: cached[n](t)  # noqa: E731

    rngs = ChainRngs(seed)
    N, S, p = len(tuning_snapshots), len(spec.sampled_slots), len(spec.layout)

    eta = np.ones((S, 2))
    theta = np.array([sample_theta_from_eta(spec, eta, rngs.theta_proposals) for _ in range(N)])
    cur_logliks = []
    for n in range(N):
        try:
            cur_logliks.append(loglik_fn(n, theta[n]))
        except NumericalError:
            cur_logliks.append(-math.inf)

    samples: list[ChainSample] = []
    theta_accepted = np.zeros((H, p), dtype=int)
    theta_means = np.zeros((H, p))
    eta_accepted = np.zeros((H, 2 * S), dtype=int)
    eta_values = np.zeros((H, 2 * S))
    n_failures = 0

    for h in range(H):
        for n in range(N):
            for j in range(p):
                value, accepted, cur_logliks[n], failed = theta_update(
                    theta[n], j, eta, lambda t, _n=n: loglik_fn(_n, t), rngs, cur_logliks[n]
                )
                n_failures += failed
                if accepted:
                    theta[n, j] = value
                    theta_accepted[h, j] += 1

        columns = theta.T.copy()  # (p, N); the eta moves see fixed thetas
        if not freeze_eta:
            for _ in range(B):
                for k in range(2 * S):
                    i, w = divmod(k, 2)
                    value, accepted = eta_update(eta, i, w, columns[i], rngs, width[i, w])
                    if accepted:
                        eta[i, w] = value
                        eta_accepted[h, k] += 1

        samples.append(ChainSample(h + 1, spec, eta.copy(), theta.copy()))
        theta_means[h] = [np.mean(column) for column in columns]
        eta_values[h] = eta.ravel()

    theta_slots = spec.layout
    eta_names = tuple(f"{s.name}.{w}" for s in spec.sampled_slots for w in ("shape", "scale"))
    return ChainResult(
        spec=spec,
        samples=samples,
        burn_in=burn_in,
        B=B,
        seed=seed,
        theta_acceptance=dict(zip(theta_slots, (theta_accepted.sum(axis=0) / (H * N)).tolist())),
        eta_acceptance=dict(zip(eta_names, (eta_accepted.sum(axis=0) / (H * B)).tolist())),
        n_numerical_failures=n_failures,
        theta_slots=theta_slots,
        eta_names=eta_names,
        theta_accepted=theta_accepted,
        theta_means=theta_means,
        eta_accepted=eta_accepted,
        eta_values=eta_values,
    )


def draw_prior_samples(
    spec: KernelSpec,
    chain: Sequence[ChainSample],
    burn_in: int,
    M: int,
    seed: int,
    provenance: dict | None = None,
) -> PriorSampleSet:
    """Draw M independent thetas from the trained prior.

    Each draw picks a post-burn-in chain state uniformly at random and
    samples every slot from that state's gamma distribution (direction
    from Uniform(0, pi), noise clamped).
    """
    if M <= 0:
        raise InputError(f"M must be positive, got {M}")
    if len(chain) <= burn_in:
        raise InputError(f"chain length {len(chain)} does not exceed burn-in {burn_in}")
    rng = stream(seed, "prior-draw")
    samples = []
    for _ in range(M):
        h = int(rng.integers(burn_in, len(chain)))
        samples.append(spec.unpack(sample_theta_from_eta(spec, chain[h].eta, rng)))
    return PriorSampleSet(samples=samples, provenance=dict(provenance or {}))


# ---------------------------------------------------------------------------
# serialisation


def save_prior(prior: PriorSampleSet, path) -> None:
    """Write a prior sample set as JSON-lines: header record then samples."""
    lines = [json.dumps({"record": "header", **prior.provenance}, sort_keys=True)]
    for theta in prior.samples:
        lines.append(
            json.dumps(
                {
                    "record": "sample",
                    "values": dict(sorted(theta.values.items())),
                    "gamma": theta.gamma,
                    "noise_variance": theta.noise_variance,
                },
                sort_keys=True,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_prior(path, expected_spec: KernelSpec | None = None) -> PriorSampleSet:
    path = Path(path)
    if not path.exists():
        raise InputError(f"prior artifact not found: {path}")
    provenance: dict = {}
    samples: list[ThetaVector] = []
    spec: KernelSpec | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            require_fields(rec, (), f"{path}:{lineno}")
            if rec.get("record") == "header":
                require_fields(rec, ("kernel",), f"{path}:{lineno}")
                provenance = {k: v for k, v in rec.items() if k != "record"}
                spec = get_spec(provenance["kernel"])
            elif rec.get("record") == "sample":
                if spec is None:
                    raise ParseError(f"{path}:{lineno}: sample before header")
                require_fields(rec, ("values",), f"{path}:{lineno}")
                theta = ThetaVector(
                    values=rec["values"],
                    gamma=rec.get("gamma"),
                    noise_variance=rec.get("noise_variance", NOISE_VARIANCE),
                )
                try:
                    theta.validate(spec)
                except InputError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                samples.append(theta)
            else:
                raise ParseError(f"{path}:{lineno}: unknown record type")
    if spec is None:
        raise ParseError(f"{path}: missing header record")
    if expected_spec is not None and spec.family is not expected_spec.family:
        raise SpecMismatchError(
            f"prior artifact was trained for kernel {spec.family.value!r} "
            f"but {expected_spec.family.value!r} was requested"
        )
    return PriorSampleSet(samples=samples, provenance=provenance)


def diagnostics_csv(result: ChainResult) -> str:
    """Per-iteration (iteration, slot, acceptance-rate, value) rows.

    Each iteration lists its eta parameters sorted by ``slot.which``,
    then its theta slots sorted by name; rates are accepted moves over
    B sweeps (eta) or over N snapshots (theta).
    """
    N = len(result.samples[0].theta)
    eta_rates = (result.eta_accepted / result.B).tolist()
    theta_rates = (result.theta_accepted / N).tolist()
    eta_values, theta_means = result.eta_values.tolist(), result.theta_means.tolist()
    eta_order = sorted(range(len(result.eta_names)), key=result.eta_names.__getitem__)
    theta_order = sorted(range(len(result.theta_slots)), key=result.theta_slots.__getitem__)
    lines = ["iteration,slot,acceptance_rate,value"]
    for h in range(len(result.samples)):
        for k in eta_order:
            name = result.eta_names[k]
            lines.append(f"{h + 1},eta.{name},{eta_rates[h][k]!r},{eta_values[h][k]!r}")
        for j in theta_order:
            slot = result.theta_slots[j]
            lines.append(f"{h + 1},{slot},{theta_rates[h][j]!r},{theta_means[h][j]!r}")
    return "\n".join(lines) + "\n"
