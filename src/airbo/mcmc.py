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

    def get(self, kind: SlotKind, which: str) -> float:
        if kind is SlotKind.LENGTHSCALE:
            return self.shape_lengthscale if which == "shape" else self.scale_lengthscale
        if kind is SlotKind.AMPLITUDE:
            return self.shape_amplitude if which == "shape" else self.scale_amplitude
        raise InputError(f"slot kind {kind} has no proposal width")


@dataclass
class EtaParams:
    """Gamma shape/scale per sampled hyperparameter slot."""

    shapes: dict[str, float]
    scales: dict[str, float]

    @classmethod
    def ones(cls, spec: KernelSpec) -> "EtaParams":
        names = [s.name for s in spec.sampled_slots]
        return cls(shapes={n: 1.0 for n in names}, scales={n: 1.0 for n in names})

    def copy(self) -> "EtaParams":
        return EtaParams(shapes=dict(self.shapes), scales=dict(self.scales))

    def validate(self) -> None:
        for name in self.shapes:
            if not (self.shapes[name] > 0 and self.scales[name] > 0):
                raise InputError(
                    f"eta for slot {name} must be positive, got "
                    f"shape={self.shapes[name]!r} scale={self.scales[name]!r}"
                )


@dataclass
class ChainSample:
    """Joint state stored after one chain iteration."""

    iteration: int
    eta: EtaParams
    theta_all: tuple[ThetaVector, ...]


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
    spec: KernelSpec, eta: EtaParams, rng: np.random.Generator
) -> ThetaVector:
    """One theta draw from the prior implied by eta."""
    values = {name: _draw_gamma(rng, eta.shapes[name], eta.scales[name]) for name in
              (s.name for s in spec.sampled_slots)}
    gamma_angle = float(rng.uniform(0.0, math.pi)) if spec.has_direction else None
    return ThetaVector(values=values, gamma=gamma_angle, noise_variance=NOISE_VARIANCE)


def _mh_accept(log_ratio: float, rng: np.random.Generator) -> bool:
    if math.isnan(log_ratio):
        return False
    if log_ratio >= 0:
        return True
    u = float(rng.uniform())
    return u == 0.0 or math.log(u) < log_ratio


@dataclass
class ThetaUpdate:
    value: float
    accepted: bool
    loglik: float
    failed: bool = False


def theta_update(
    spec: KernelSpec,
    theta: ThetaVector,
    slot: str,
    eta: EtaParams,
    loglik: Callable[[ThetaVector], float],
    rngs: ChainRngs,
    cur_loglik: float | None = None,
) -> ThetaUpdate:
    """One slot-wise theta move.

    The proposal comes from the conditional prior (gamma for amplitudes
    and lengthscales, Uniform(0, pi) for the direction), so acceptance
    reduces to the data likelihood ratio. A proposal whose likelihood
    evaluation fails numerically is auto-rejected and flagged.
    """
    if slot == "gamma":
        proposal = float(rngs.theta_proposals.uniform(0.0, math.pi))
    else:
        proposal = _draw_gamma(rngs.theta_proposals, eta.shapes[slot], eta.scales[slot])
    if cur_loglik is None:
        try:
            cur_loglik = loglik(theta)
        except NumericalError:
            cur_loglik = -math.inf
    try:
        prop_loglik = loglik(theta.with_value(slot, proposal))
    except NumericalError:
        return ThetaUpdate(theta.slot(slot), accepted=False, loglik=cur_loglik, failed=True)
    if _mh_accept(prop_loglik - cur_loglik, rngs.accept):
        return ThetaUpdate(proposal, accepted=True, loglik=prop_loglik)
    return ThetaUpdate(theta.slot(slot), accepted=False, loglik=cur_loglik)


@dataclass
class EtaUpdate:
    value: float
    accepted: bool


def eta_update(
    spec: KernelSpec,
    slot: str,
    which: str,
    eta: EtaParams,
    theta_all: Sequence[ThetaVector],
    rngs: ChainRngs,
    widths: ProposalWidths | None = None,
) -> EtaUpdate:
    """One random-walk move of a single eta parameter.

    The positivity prior zeroes out non-positive proposals; otherwise
    the symmetric proposal cancels and acceptance is the ratio of the
    products of gamma densities of the current theta slot values. With
    no snapshots this degenerates to a positive-constrained random walk.
    """
    kind = next(s.kind for s in spec.sampled_slots if s.name == slot)
    widths = widths or ProposalWidths()
    cur = eta.shapes[slot] if which == "shape" else eta.scales[slot]
    proposal = cur + float(rngs.eta_proposals.normal(0.0, widths.get(kind, which)))
    if proposal <= 0:
        return EtaUpdate(cur, accepted=False)
    values = np.array([t.values[slot] for t in theta_all], dtype=float)
    if values.size == 0:
        log_ratio = 0.0
    else:
        shape_new = proposal if which == "shape" else eta.shapes[slot]
        scale_new = proposal if which == "scale" else eta.scales[slot]
        log_ratio = float(
            np.sum(gamma_logpdf(values, shape_new, scale_new))
            - np.sum(gamma_logpdf(values, eta.shapes[slot], eta.scales[slot]))
        )
    if _mh_accept(log_ratio, rngs.accept):
        return EtaUpdate(proposal, accepted=True)
    return EtaUpdate(cur, accepted=False)


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
    loglik_fn: Callable[[int, ThetaVector], float] | None = None,
    freeze_eta: bool = False,
) -> ChainResult:
    """Collect H joint (eta, theta) samples over the tuning snapshots.

    Eta starts at all ones and theta by sampling from it. Each iteration
    sweeps every (snapshot, slot) theta move using the freshest slots,
    then runs ``B`` sweeps of all eta shape/scale moves. All H samples
    are stored; discard ``burn_in`` downstream.

    ``loglik_fn(n, theta)`` overrides the GP marginal likelihood (used
    by stationarity diagnostics); ``freeze_eta`` pins eta at its initial
    value, which makes the theta moves' stationary law a fixed gamma.
    """
    if len(tuning_snapshots) < 1:
        raise InputError("need at least one tuning snapshot")
    if not (H > burn_in >= 0):
        raise InputError(f"need H > burn_in >= 0, got H={H} burn_in={burn_in}")
    if B < 1:
        raise InputError(f"need B >= 1, got B={B}")
    widths = widths or ProposalWidths()

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
        loglik_fn = lambda n, theta: cached[n](theta)  # noqa: E731

    rngs = ChainRngs(seed)
    N = len(tuning_snapshots)
    sweep_slots = [s.name for s in spec.sampled_slots]
    if spec.has_direction:
        sweep_slots.append("gamma")
    eta_params = [(s.name, w) for s in spec.sampled_slots for w in ("shape", "scale")]

    eta = EtaParams.ones(spec)
    thetas = [sample_theta_from_eta(spec, eta, rngs.theta_proposals) for _ in range(N)]
    cur_logliks = []
    for n, theta in enumerate(thetas):
        try:
            cur_logliks.append(loglik_fn(n, theta))
        except NumericalError:
            cur_logliks.append(-math.inf)

    samples: list[ChainSample] = []
    theta_accepted = np.zeros((H, len(sweep_slots)), dtype=int)
    theta_means = np.zeros((H, len(sweep_slots)))
    eta_accepted = np.zeros((H, len(eta_params)), dtype=int)
    eta_values = np.zeros((H, len(eta_params)))
    n_failures = 0

    for h in range(H):
        for n in range(N):
            for j, slot in enumerate(sweep_slots):
                upd = theta_update(
                    spec,
                    thetas[n],
                    slot,
                    eta,
                    lambda t, _n=n: loglik_fn(_n, t),
                    rngs,
                    cur_loglik=cur_logliks[n],
                )
                if upd.failed:
                    n_failures += 1
                if upd.accepted:
                    thetas[n] = thetas[n].with_value(slot, upd.value)
                    theta_accepted[h, j] += 1
                cur_logliks[n] = upd.loglik

        if not freeze_eta:
            for _ in range(B):
                for k, (slot, which) in enumerate(eta_params):
                    upd = eta_update(spec, slot, which, eta, thetas, rngs, widths)
                    if upd.accepted:
                        (eta.shapes if which == "shape" else eta.scales)[slot] = upd.value
                        eta_accepted[h, k] += 1

        samples.append(ChainSample(iteration=h + 1, eta=eta.copy(), theta_all=tuple(thetas)))
        theta_means[h] = [np.mean([t.slot(slot) for t in thetas]) for slot in sweep_slots]
        eta_values[h] = [(eta.shapes if w == "shape" else eta.scales)[s] for s, w in eta_params]

    eta_names = tuple(f"{s}.{w}" for s, w in eta_params)
    return ChainResult(
        spec=spec,
        samples=samples,
        burn_in=burn_in,
        B=B,
        seed=seed,
        theta_acceptance=dict(zip(sweep_slots, (theta_accepted.sum(axis=0) / (H * N)).tolist())),
        eta_acceptance=dict(zip(eta_names, (eta_accepted.sum(axis=0) / (H * B)).tolist())),
        n_numerical_failures=n_failures,
        theta_slots=tuple(sweep_slots),
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
        samples.append(sample_theta_from_eta(spec, chain[h].eta, rng))
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
                theta.validate(spec)
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
    N = len(result.samples[0].theta_all)
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
