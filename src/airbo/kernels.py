"""Covariance functions for the spatial pollution model.

Two base kernels are combined into three composite families. The
isotropic RBF term decays with the full displacement; the directed term
only sees displacement orthogonal to a reference angle ``gamma``
(conceptually the wind direction), so fields stay correlated along
elongated plumes. Each composite is a sum of a slowly-varying and a
faster-varying component:

* ``rbf_rbf``      : RBF + RBF                      (5 hyperparameters)
* ``sum``          : RBF + directed                 (6 hyperparameters)
* ``rbf_product``  : RBF + RBF * directed           (7 hyperparameters)

Hyperparameter counts include the (clamped) observation-noise variance.
The product family's directed factor has its amplitude fixed to 1;
otherwise it would be redundant with the second RBF amplitude.

Lengthscales follow the ``exp(-tau^T tau / l^2)`` convention, no factor
of 2. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

#: Observation-noise variance of the GP likelihood. Readings are treated
#: as ground truth for evaluation, so this is clamped and never sampled.
NOISE_VARIANCE = 1e-6


class SlotKind(enum.Enum):
    AMPLITUDE = "amplitude"
    LENGTHSCALE = "lengthscale"
    DIRECTION = "direction"
    NOISE = "noise"


class KernelFamily(enum.Enum):
    RBF_RBF = "rbf_rbf"
    SUM = "sum"
    RBF_PRODUCT = "rbf_product"


@dataclass(frozen=True)
class Slot:
    name: str
    kind: SlotKind


_LAYOUTS: dict[KernelFamily, tuple[Slot, ...]] = {
    KernelFamily.RBF_RBF: (
        Slot("sigma_r1", SlotKind.AMPLITUDE),
        Slot("l_r1", SlotKind.LENGTHSCALE),
        Slot("sigma_r2", SlotKind.AMPLITUDE),
        Slot("l_r2", SlotKind.LENGTHSCALE),
        Slot("noise", SlotKind.NOISE),
    ),
    KernelFamily.SUM: (
        Slot("sigma_r1", SlotKind.AMPLITUDE),
        Slot("l_r1", SlotKind.LENGTHSCALE),
        Slot("sigma_w2", SlotKind.AMPLITUDE),
        Slot("l_w2", SlotKind.LENGTHSCALE),
        Slot("gamma", SlotKind.DIRECTION),
        Slot("noise", SlotKind.NOISE),
    ),
    KernelFamily.RBF_PRODUCT: (
        Slot("sigma_r1", SlotKind.AMPLITUDE),
        Slot("l_r1", SlotKind.LENGTHSCALE),
        Slot("sigma_r2", SlotKind.AMPLITUDE),
        Slot("l_r2", SlotKind.LENGTHSCALE),
        Slot("l_w3", SlotKind.LENGTHSCALE),
        Slot("gamma", SlotKind.DIRECTION),
        Slot("noise", SlotKind.NOISE),
    ),
}


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its ordered hyperparameter layout."""

    family: KernelFamily
    slots: tuple[Slot, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", _LAYOUTS[self.family])

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    @property
    def sampled_slots(self) -> tuple[Slot, ...]:
        """Slots with a gamma hyperprior (amplitudes and lengthscales)."""
        return tuple(
            s for s in self.slots if s.kind in (SlotKind.AMPLITUDE, SlotKind.LENGTHSCALE)
        )

    @property
    def has_direction(self) -> bool:
        return any(s.kind is SlotKind.DIRECTION for s in self.slots)

    @property
    def n_hyperparameters(self) -> int:
        return len(self.slots)


def get_spec(family: KernelFamily | str) -> KernelSpec:
    """Look up a :class:`KernelSpec` by family or by its config name."""
    if isinstance(family, str):
        name = family.strip().lower().replace("-", "_")
        try:
            family = KernelFamily(name)
        except ValueError:
            valid = ", ".join(f.value for f in KernelFamily)
            raise InputError(f"unknown kernel family {family!r}; valid: {valid}")
    return KernelSpec(family)


@dataclass(frozen=True)
class ThetaVector:
    """One concrete hyperparameter setting for a kernel spec.

    ``values`` maps amplitude/lengthscale slot names to strictly positive
    reals (km for lengthscales, dimensionless amplitudes in standardised
    space). ``gamma`` is the reference angle in [0, pi), present only for
    the directed families. The noise variance is clamped, never fitted.
    """

    values: Mapping[str, float]
    gamma: float | None = None
    noise_variance: float = NOISE_VARIANCE

    def validate(self, spec: KernelSpec) -> None:
        expected = {s.name for s in spec.sampled_slots}
        got = set(self.values)
        if got != expected:
            raise InputError(
                f"theta slots {sorted(got)} do not match "
                f"{spec.family.value} layout {sorted(expected)}"
            )
        _check_positive(**self.values)
        if spec.has_direction:
            if self.gamma is None or not (0.0 <= self.gamma < math.pi):
                raise InputError(f"gamma={self.gamma!r} must lie in [0, pi)")
        elif self.gamma is not None:
            raise InputError(f"{spec.family.value} takes no direction angle")
        if self.noise_variance != NOISE_VARIANCE:
            raise InputError(f"noise variance is clamped to {NOISE_VARIANCE}")

    @property
    def direction(self) -> tuple[float, float]:
        """``(sin gamma, cos gamma)`` of the reference angle."""
        return math.sin(self.gamma), math.cos(self.gamma)

    def with_value(self, name: str, value: float) -> "ThetaVector":
        if name == "gamma":
            return replace(self, gamma=value)
        values = dict(self.values)
        values[name] = value
        return replace(self, values=values)

    def slot(self, name: str) -> float:
        if name == "gamma":
            if self.gamma is None:
                raise InputError("theta has no gamma slot")
            return self.gamma
        return self.values[name]


@dataclass(frozen=True)
class ThetaBatch:
    """Thetas of one spec, validated once, with every slot stacked as an
    ``(M, 1)`` column so that one kernel evaluation broadcasts over the
    M samples."""

    values: dict[str, np.ndarray]
    direction: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def stack(cls, spec: KernelSpec, thetas: Sequence[ThetaVector]) -> "ThetaBatch":
        for theta in thetas:
            theta.validate(spec)
        values = {
            s.name: np.array([[t.values[s.name]] for t in thetas]) for s in spec.sampled_slots
        }
        direction = None
        if spec.has_direction:
            sin_cos = np.array([t.direction for t in thetas])
            direction = (sin_cos[:, :1], sin_cos[:, 1:])
        return cls(values, direction)


def _check_positive(**params: float) -> None:
    for name, v in params.items():
        if not (v > 0) or not math.isfinite(v):
            raise InputError(f"hyperparameter {name}={v!r} must be finite and > 0")


def rbf_eval(tau, sigma: float, l: float) -> float:
    """Isotropic RBF term ``sigma^2 * exp(-tau.tau / l^2)`` at one lag."""
    _check_positive(sigma=sigma, l=l)
    tau = np.asarray(tau, dtype=float)
    return float(sigma * sigma * np.exp(-(tau @ tau) / (l * l)))


def directed_eval(tau, sigma: float, l: float, gamma: float) -> float:
    """Directed term: identical to RBF but blind to displacement along
    the direction ``(cos gamma, sin gamma)``.

    The quadratic form uses the projection onto the orthogonal unit
    vector ``(sin gamma, -cos gamma)``; squaring the projection is
    algebraically the paper-standard ``tau^T A tau`` with ``A = v v^T``
    and avoids cancellation error.
    """
    _check_positive(sigma=sigma, l=l)
    if not (0.0 <= gamma < math.pi):
        raise InputError(f"gamma={gamma!r} must lie in [0, pi)")
    tau = np.asarray(tau, dtype=float)
    proj = math.sin(gamma) * tau[0] - math.cos(gamma) * tau[1]
    return float(sigma * sigma * math.exp(-(proj * proj) / (l * l)))


def _composite_terms(spec: KernelSpec, theta: ThetaVector | ThetaBatch, d2, tx, ty):
    """Composite kernel on precomputed displacement components.

    ``d2 = tx**2 + ty**2`` is passed in so callers can cache it. Works
    elementwise on arrays of any shape; a :class:`ThetaBatch` broadcasts
    its ``(M, 1)`` slots against them.
    """
    v = theta.values
    first = v["sigma_r1"] ** 2 * np.exp(-d2 / v["l_r1"] ** 2)
    if spec.family is KernelFamily.RBF_RBF:
        return first + v["sigma_r2"] ** 2 * np.exp(-d2 / v["l_r2"] ** 2)
    sin_g, cos_g = theta.direction
    proj = sin_g * tx - cos_g * ty
    if spec.family is KernelFamily.SUM:
        return first + v["sigma_w2"] ** 2 * np.exp(-(proj * proj) / v["l_w2"] ** 2)
    # rbf_product: directed factor amplitude fixed to 1
    second = v["sigma_r2"] ** 2 * np.exp(-d2 / v["l_r2"] ** 2)
    return first + second * np.exp(-(proj * proj) / v["l_w3"] ** 2)


def composite_eval(spec: KernelSpec, theta: ThetaVector, tau) -> float:
    """Evaluate the composite covariance at a single displacement."""
    theta.validate(spec)
    tau = np.asarray(tau, dtype=float)
    tx, ty = float(tau[0]), float(tau[1])
    return float(_composite_terms(spec, theta, tx * tx + ty * ty, tx, ty))


class CovarianceBuilder:
    """Gram-matrix factory for a fixed point set.

    Caches the pairwise displacement components once so repeated
    evaluation under different thetas (the MCMC hot path) costs only
    exponentials and no re-differencing.
    """

    def __init__(self, spec: KernelSpec, X) -> None:
        self.spec = spec
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2 or X.shape[0] < 1:
            raise InputError(f"locations must have shape (n, 2), got {X.shape}")
        self.n = X.shape[0]
        self._tx = X[:, None, 0] - X[None, :, 0]
        self._ty = X[:, None, 1] - X[None, :, 1]
        self._d2 = self._tx**2 + self._ty**2

    def gram(self, theta: ThetaVector, include_noise: bool = True) -> np.ndarray:
        theta.validate(self.spec)
        # exactly symmetric: tx and ty negate exactly under transposition,
        # and every family sees them only through d2 or a squared projection
        K = _composite_terms(self.spec, theta, self._d2, self._tx, self._ty)
        if include_noise:
            K[np.diag_indices_from(K)] += theta.noise_variance
        return K


def covariance_matrix(
    spec: KernelSpec, theta: ThetaVector, X, include_noise: bool = True
) -> np.ndarray:
    """Symmetric covariance matrix of a point set, optionally + noise."""
    return CovarianceBuilder(spec, X).gram(theta, include_noise)


def cross_covariance(spec: KernelSpec, theta: ThetaVector, X1, X2) -> np.ndarray:
    """Covariance between two point sets, shape (n1, n2), noise-free."""
    theta.validate(spec)
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    tx = X1[:, None, 0] - X2[None, :, 0]
    ty = X1[:, None, 1] - X2[None, :, 1]
    return _composite_terms(spec, theta, tx**2 + ty**2, tx, ty)


def correlation_at_distance(
    spec: KernelSpec, theta: ThetaVector, d: float, direction: float = 0.0
) -> float:
    """Prior correlation between two points ``d`` km apart.

    ``direction`` is the angle of the separation axis; it matters only
    for the directed families (pass ``gamma + pi/2`` for the cross-wind
    profile).
    """
    if d < 0:
        raise InputError(f"distance must be >= 0, got {d}")
    tau = (d * math.cos(direction), d * math.sin(direction))
    return composite_eval(spec, theta, tau) / composite_eval(spec, theta, (0.0, 0.0))
