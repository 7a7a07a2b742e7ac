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
from functools import cached_property
from typing import Mapping

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

    @cached_property
    def sampled_slots(self) -> tuple[Slot, ...]:
        """Slots with a gamma hyperprior (amplitudes and lengthscales)."""
        return tuple(
            s for s in self.slots if s.kind in (SlotKind.AMPLITUDE, SlotKind.LENGTHSCALE)
        )

    @cached_property
    def has_direction(self) -> bool:
        return any(s.kind is SlotKind.DIRECTION for s in self.slots)

    @property
    def n_hyperparameters(self) -> int:
        return len(self.slots)

    @cached_property
    def layout(self) -> tuple[str, ...]:
        """Entry names of a packed theta: the sampled slots in order, then
        ``gamma`` for the directed families. Noise is clamped, not packed."""
        names = tuple(s.name for s in self.sampled_slots)
        return names + ("gamma",) if self.has_direction else names

    def pack(self, theta: "ThetaVector") -> np.ndarray:
        """Validate ``theta`` and lay it out as a float array in :attr:`layout` order."""
        theta.validate(self)
        return np.array([theta.slot(name) for name in self.layout], dtype=float)

    def unpack(self, t) -> "ThetaVector":
        """The :class:`ThetaVector` of a packed theta."""
        values = {s.name: float(v) for s, v in zip(self.sampled_slots, t)}
        return ThetaVector(values, float(t[-1]) if self.has_direction else None)


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
        if not isinstance(self.values, Mapping):
            raise InputError(f"theta values must be a mapping, got {self.values!r}")
        expected = {s.name for s in spec.sampled_slots}
        got = set(self.values)
        if got != expected:
            raise InputError(
                f"theta slots {sorted(got)} do not match "
                f"{spec.family.value} layout {sorted(expected)}"
            )
        _check_positive(**self.values)
        if spec.has_direction:
            if not _is_real(self.gamma) or not (0.0 <= self.gamma < math.pi):
                raise InputError(f"gamma={self.gamma!r} must lie in [0, pi)")
        elif self.gamma is not None:
            raise InputError(f"{spec.family.value} takes no direction angle")
        if self.noise_variance != NOISE_VARIANCE:
            raise InputError(f"noise variance is clamped to {NOISE_VARIANCE}")

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


def _is_real(v) -> bool:
    """A real number; JSON booleans, strings and null are not."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _check_positive(**params: float) -> None:
    for name, v in params.items():
        if not _is_real(v) or not (v > 0) or not math.isfinite(v):
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


def _kernel_args(spec: KernelSpec, theta) -> list:
    """Inputs of :func:`_composite_terms`: the entries of a packed theta
    ``(p,)`` as floats, or of a stack ``(M, p)`` as ``(M, 1)`` columns, with
    ``gamma`` replaced by its sine and cosine. A :class:`ThetaVector` is
    validated and packed first."""
    t = spec.pack(theta) if isinstance(theta, ThetaVector) else theta
    v = list(t.T[..., None]) if t.ndim == 2 else t.tolist()
    if spec.has_direction:
        gamma = v.pop()
        v += [np.sin(gamma), np.cos(gamma)]
    return v


def _composite_terms(spec: KernelSpec, v: list, d2, tx, ty):
    """Composite kernel on precomputed displacement components.

    ``d2 = tx**2 + ty**2`` is passed in so callers can cache it. Works
    elementwise on arrays of any shape; ``v`` comes from
    :func:`_kernel_args`, and a stack's ``(M, 1)`` columns broadcast
    against the displacements.
    """
    first = v[0] ** 2 * np.exp(-d2 / v[1] ** 2)
    if spec.family is KernelFamily.RBF_RBF:
        return first + v[2] ** 2 * np.exp(-d2 / v[3] ** 2)
    proj = v[-2] * tx - v[-1] * ty
    if spec.family is KernelFamily.SUM:
        return first + v[2] ** 2 * np.exp(-(proj * proj) / v[3] ** 2)
    # rbf_product: directed factor amplitude fixed to 1
    second = v[2] ** 2 * np.exp(-d2 / v[3] ** 2)
    return first + second * np.exp(-(proj * proj) / v[4] ** 2)


def composite_eval(spec: KernelSpec, theta, tau) -> float:
    """Evaluate the composite covariance at a single displacement."""
    tau = np.asarray(tau, dtype=float)
    tx, ty = float(tau[0]), float(tau[1])
    return float(_composite_terms(spec, _kernel_args(spec, theta), tx * tx + ty * ty, tx, ty))


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

    def gram(self, theta, include_noise: bool = True) -> np.ndarray:
        """Gram matrix under a :class:`ThetaVector` or a packed theta."""
        # exactly symmetric: tx and ty negate exactly under transposition,
        # and every family sees them only through d2 or a squared projection
        v = _kernel_args(self.spec, theta)
        K = _composite_terms(self.spec, v, self._d2, self._tx, self._ty)
        if include_noise:
            K[np.diag_indices_from(K)] += NOISE_VARIANCE
        return K


def covariance_matrix(spec: KernelSpec, theta, X, include_noise: bool = True) -> np.ndarray:
    """Symmetric covariance matrix of a point set, optionally + noise."""
    return CovarianceBuilder(spec, X).gram(theta, include_noise)


def cross_covariance(spec: KernelSpec, theta, X1, X2) -> np.ndarray:
    """Covariance between two point sets, shape (n1, n2), noise-free."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    tx = X1[:, None, 0] - X2[None, :, 0]
    ty = X1[:, None, 1] - X2[None, :, 1]
    return _composite_terms(spec, _kernel_args(spec, theta), tx**2 + ty**2, tx, ty)


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
