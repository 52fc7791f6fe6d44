"""The four bivariate models: sampling, the conditional law of the pivot
given the contrast statistic, and the density of the contrast itself.

Each model is an immutable spec. Location models use the contrast
D = X2 - X1 with gap parameter lam = theta2 - theta1 >= 0; scale models use
D = X2 / X1 with lam = theta2 / theta1 >= 1. ProblemKind owns every rule that
differs between the two groups: the identity gap, the contrast, its domain
and its inverse, the parameter and gap checks, the equivariant estimate
X_i - psi(D) or psi(D) * X_i and the clamp band of a kernel. The engines
call each model's unchecked element-wise bodies _median, _cdf and _pdf; the
pure cond_median, cond_cdf and d_density check their arguments (scalars or
ndarrays) first. Sampling draws arrays only: size draws of each component
from a caller-owned numpy Generator, returned as the pair (x1, x2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, wraps
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, DomainError
from .specfun import gamma_median, gammaln, normal_cdf, regularized_gamma_p

__all__ = [
    "ProblemKind",
    "RestrictedParams",
    "QuadSegment",
    "BivariateNormal",
    "ExponentialLocation",
    "GammaScale",
    "PowerScale",
    "ModelSpec",
    "model_from_config",
]

_LN2 = math.log(2.0)

# Draws per block wherever a pass over the draws works block by block: a
# block's float64 temporaries (128 KiB each) stay in cache.
_BLOCK = 1 << 14

# Largest supported gamma shape sum alpha1 + alpha2. The pooled median and
# the conditional CDF evaluate the incomplete gamma at that shape, and its
# series stops converging within the iteration budget near 550.
GAMMA_MAX_SHAPE_SUM = 500.0


class ProblemKind(Enum):
    """The group of a model's parameters. Location models compare by
    difference, scale models by ratio.
    """

    LOCATION = "location"
    SCALE = "scale"

    @property
    def identity(self) -> float:
        """The gap of equal parameters: the smallest gap, and theta1 of each
        gap's pinned point.
        """
        return 0.0 if self is ProblemKind.LOCATION else 1.0

    def contrast(self, b, a):
        """b - a for location, b / a for scale."""
        return b - a if self is ProblemKind.LOCATION else b / a

    def move(self, x, theta, out=None):
        """The inverse of contrast: x + theta for location, x * theta for
        scale. It moves draws made at the identity parameter to theta with
        the operation each model's sample applies last, so the moved draws
        equal those sample draws at theta from the same generator state.
        """
        if self is ProblemKind.LOCATION:
            return np.add(x, theta, out=out)
        return np.multiply(x, theta, out=out)

    def in_domain(self, t):
        """Where the contrast t is finite, and for scale positive."""
        ok = np.isfinite(t)
        if self is ProblemKind.SCALE:
            ok &= t > 0.0
        return ok

    def check_contrast(self, t) -> None:
        """Every contrast value must lie where in_domain holds."""
        if not np.all(self.in_domain(np.asarray(t, dtype=float))):
            rule = ("t must be" if self is ProblemKind.LOCATION
                    else "ratio t must be positive and")
            raise DomainError(f"contrast {rule} finite for {self.value} models")

    def check_params(self, params: "RestrictedParams") -> None:
        """Scale parameters must be positive."""
        if self is ProblemKind.SCALE and not params.theta1 > 0.0:
            raise DomainError(f"scale parameters must be positive, got {params.theta1}")

    def estimate(self, x, psi):
        """The equivariant estimate from the observation x and the kernel
        value psi: x - psi for location, psi * x for scale.
        """
        return x - psi if self is ProblemKind.LOCATION else psi * x

    def kernel_band(self, near, far):
        """The band (l, u) of a kernel whose conditional median runs from the
        array near to the scalar far: each end maps to kernel space, as it is
        for location and as 1/x for scale (1/0 = inf, 1/inf = 0), and the
        band is (fmin, fmax) of the two. A NaN far leaves both ends at near.
        """
        if self is ProblemKind.SCALE:
            # np.divide, since a Python float far of 0.0 would raise
            with np.errstate(divide="ignore"):
                near, far = np.divide(1.0, near), np.divide(1.0, far)
        return np.fmin(near, far), np.fmax(near, far)

    def check_gap(self, gap: float) -> None:
        """The gap domain: a location gap is >= 0 and a scale gap >= 1."""
        if not gap >= self.identity:
            raise DomainError(f"{self.value} gaps must be >= {self.identity:g}, got {gap}")

    def pinned_params(self, gap: float) -> "RestrictedParams":
        """The parameter point (identity, gap), whose gap is gap. GPN of
        equivariant pairs depends on the parameters only through the gap,
        so one point per gap suffices.
        """
        self.check_gap(gap)
        return RestrictedParams(self.identity, gap)


@dataclass(frozen=True)
class RestrictedParams:
    """An ordered parameter pair theta1 <= theta2."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not self.theta1 <= self.theta2:
            raise DomainError(
                f"requires theta1 <= theta2, got ({self.theta1}, {self.theta2})"
            )

    def gap(self, kind: ProblemKind) -> float:
        kind.check_params(self)
        return kind.contrast(self.theta2, self.theta1)

    def component(self, index: int) -> float:
        if index == 1:
            return self.theta1
        if index == 2:
            return self.theta2
        raise DomainError(f"component must be 1 or 2, got {index}")


@dataclass(frozen=True)
class QuadSegment:
    """One finite piece of the contrast support under a change of variable.

    Maps s in (lo, hi) to t = to_t(s) with dt = jacobian(s) ds; from_t places
    t-space breakpoints inside the segment.
    """

    lo: float
    hi: float
    to_t: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    from_t: Callable[[float], float]


def _identity_segment(lo: float, hi: float) -> QuadSegment:
    return QuadSegment(lo, hi, lambda s: s, lambda s: np.ones_like(s), lambda t: t)


# Keeps compactified endpoints off exact 0; at this floor the upper-branch
# jacobian lam/v^2 stays finite (~1e240). The discarded tail mass is about
# floor^min(alpha1, alpha2): below 1e-10 only for shapes above 1/12, and
# 0.4% at shape 0.02.
_SEG_FLOOR = 1e-120


def _ratio_segments(lam: float) -> list[QuadSegment]:
    """Full-support segments for a ratio contrast D > 0, split at t = lam."""

    def to_t_lower(s):
        return lam * np.clip(s, _SEG_FLOOR, None)

    # Near v = 0 the jacobian is inf above lam = 1.8e68 and t above 1.8e188;
    # the oracle's contrast or finite-sum check fails such a node instead.
    def to_t_upper(v):
        with np.errstate(over="ignore"):
            return lam / np.clip(v, _SEG_FLOOR, None)

    def jac_upper(v):
        with np.errstate(over="ignore"):
            return lam / np.clip(v, _SEG_FLOOR, None) ** 2

    return [
        QuadSegment(0.0, 1.0, to_t_lower, lambda s: lam * np.ones_like(s),
                    lambda t: t / lam),
        QuadSegment(0.0, 1.0, to_t_upper, jac_upper, lambda t: lam / t),
    ]


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _conditional(method):
    """cond_median(component, lam, t) or cond_cdf(component, lam, t, s) of
    the unchecked body _median or _cdf: checks the component, gap and
    contrast, passes t (and s) on as float64 arrays, and returns a 0-d
    result as a float. _median also takes an infinite gap.
    """

    @wraps(method)
    def wrapper(self, component, lam, t, *s):
        if component not in (1, 2):
            raise DomainError(f"component must be 1 or 2, got {component}")
        self.kind.check_gap(lam)
        self.kind.check_contrast(t)
        arrays = (np.asarray(x, dtype=float) for x in (t, *s))
        return _float_or_array(method(self, component, lam, *arrays))

    return wrapper


def _density(method):
    """d_density(lam, t) of the unchecked body _pdf, as for _conditional."""

    @wraps(method)
    def wrapper(self, lam, t):
        self.kind.check_gap(lam)
        self.kind.check_contrast(t)
        return _float_or_array(method(self, lam, np.asarray(t, dtype=float)))

    return wrapper


# ---------------------------------------------------------------------------
# bivariate normal (location)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariateNormal:
    """Correlated normal pair with known scales and correlation; the two
    means are the restricted parameters.
    """

    sigma1: float
    sigma2: float
    rho: float

    kind = ProblemKind.LOCATION
    # The contrast values where the median at the identity gap has a kink;
    # clamp lists them among a clamped kernel's breakpoints.
    median_kinks = ()

    def __post_init__(self):
        if not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise DomainError("sigma1 and sigma2 must be positive")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")
        if not self.tau2 > 0.0:
            raise DomainError("degenerate contrast variance")

    @property
    def tau2(self) -> float:
        return (
            self.sigma1 ** 2
            + self.sigma2 ** 2
            - 2.0 * self.rho * self.sigma1 * self.sigma2
        )

    @property
    def alpha(self) -> float:
        return self.sigma2 * (self.sigma2 - self.rho * self.sigma1) / self.tau2

    @property
    def cond_sd(self) -> float:
        # conditional variance of either pivot given D is (1-rho^2) s1^2 s2^2 / tau^2
        return math.sqrt(
            (1.0 - self.rho ** 2) * self.sigma1 ** 2 * self.sigma2 ** 2 / self.tau2
        )

    def sample(self, params: RestrictedParams, rng: np.random.Generator, size: int):
        self.kind.check_params(params)
        z1 = rng.standard_normal(size)
        z2 = rng.standard_normal(size)
        # Cholesky factor of the 2x2 covariance applied to (z1, z2), in place:
        # x2 = theta2 + sigma2 (rho z1 + sqrt(1 - rho^2) z2), then
        # x1 = theta1 + sigma1 z1. The rho z1 term is added block by block,
        # so no third full-length array is live.
        z2 *= math.sqrt(1.0 - self.rho ** 2)
        for i in range(0, size, _BLOCK):
            z2[i:i + _BLOCK] += self.rho * z1[i:i + _BLOCK]
        z2 *= self.sigma2
        z2 += params.theta2
        z1 *= self.sigma1
        z1 += params.theta1
        return z1, z2

    def _median(self, component: int, lam: float, t):
        if component == 1:
            return (self.alpha - 1.0) * (t - lam)
        return self.alpha * (t - lam)

    def _cdf(self, component: int, lam: float, t, s):
        m = self._median(component, lam, t)
        return normal_cdf((s - m) / self.cond_sd)

    def _pdf(self, lam: float, t):
        return np.exp(-0.5 * (t - lam) ** 2 / self.tau2) / math.sqrt(
            2.0 * math.pi * self.tau2
        )

    cond_median = _conditional(_median)
    cond_cdf = _conditional(_cdf)
    d_density = _density(_pdf)

    def d_quadrature_segments(self, lam: float) -> list[QuadSegment]:
        tau = math.sqrt(self.tau2)
        return [_identity_segment(lam - 12.0 * tau, lam + 12.0 * tau)]


# ---------------------------------------------------------------------------
# independent shifted exponentials (location)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialLocation:
    """Independent exponentials with known scales; the two shifts are the
    restricted parameters.
    """

    sigma1: float
    sigma2: float

    kind = ProblemKind.LOCATION
    median_kinks = (0.0,)

    def __post_init__(self):
        if not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise DomainError("sigma1 and sigma2 must be positive")

    @property
    def rate(self) -> float:
        return 1.0 / self.sigma1 + 1.0 / self.sigma2

    @property
    def pooled_scale(self) -> float:
        # sigma1 sigma2 / (sigma1 + sigma2), the conditional pivot scale
        return self.sigma1 * self.sigma2 / (self.sigma1 + self.sigma2)

    def sample(self, params: RestrictedParams, rng: np.random.Generator, size: int):
        self.kind.check_params(params)
        u1 = rng.random(size)
        u2 = rng.random(size)
        # x = theta - sigma log1p(-u), in place
        for u, theta, sigma in ((u1, params.theta1, self.sigma1),
                                (u2, params.theta2, self.sigma2)):
            np.negative(u, out=u)
            np.log1p(u, out=u)
            u *= sigma
            np.subtract(theta, u, out=u)
        return u1, u2

    def _shift(self, component: int, lam: float, t):
        if component == 1:
            return np.maximum(lam - t, 0.0)
        return np.maximum(t - lam, 0.0)

    def _median(self, component: int, lam: float, t):
        return self._shift(component, lam, t) + self.pooled_scale * _LN2

    def _cdf(self, component: int, lam: float, t, s):
        shift = self._shift(component, lam, t)
        return -np.expm1(-self.rate * np.maximum(s - shift, 0.0))

    def _pdf(self, lam: float, t):
        norm = 1.0 / (self.sigma1 + self.sigma2)
        sigma = np.where(t >= lam, self.sigma2, self.sigma1)
        return norm * np.exp(-np.abs(t - lam) / sigma)

    cond_median = _conditional(_median)
    cond_cdf = _conditional(_cdf)
    d_density = _density(_pdf)

    def d_quadrature_segments(self, lam: float) -> list[QuadSegment]:
        return [
            _identity_segment(lam - 45.0 * self.sigma1, lam),
            _identity_segment(lam, lam + 45.0 * self.sigma2),
        ]


# ---------------------------------------------------------------------------
# independent gammas (scale)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaScale:
    """Independent gammas with known shapes; the two scales are the
    restricted parameters.
    """

    alpha1: float
    alpha2: float

    kind = ProblemKind.SCALE
    median_kinks = ()

    def __post_init__(self):
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise DomainError("alpha1 and alpha2 must be positive")
        if not self.alpha1 + self.alpha2 <= GAMMA_MAX_SHAPE_SUM:
            raise DomainError(
                f"alpha1 + alpha2 must be at most {GAMMA_MAX_SHAPE_SUM:g}, "
                f"got {self.alpha1 + self.alpha2:g}"
            )

    @cached_property
    def pooled_median(self) -> float:
        return gamma_median(self.alpha1 + self.alpha2)

    @cached_property
    def _log_beta(self) -> float:
        return (
            gammaln(self.alpha1)
            + gammaln(self.alpha2)
            - gammaln(self.alpha1 + self.alpha2)
        )

    def sample(self, params: RestrictedParams, rng: np.random.Generator, size: int):
        self.kind.check_params(params)
        z1 = rng.standard_gamma(self.alpha1, size)
        z2 = rng.standard_gamma(self.alpha2, size)
        z1 *= params.theta1
        z2 *= params.theta2
        return z1, z2

    def _median(self, component: int, lam: float, t):
        nu = self.pooled_median
        if component == 1:
            return nu / (1.0 + t / lam)
        return t * nu / (lam + t)

    def _cdf(self, component: int, lam: float, t, s):
        rate = 1.0 + t / lam if component == 1 else 1.0 + lam / t
        return regularized_gamma_p(self.alpha1 + self.alpha2, np.maximum(rate * s, 0.0))

    def _pdf(self, lam: float, t):
        a1, a2, u = self.alpha1, self.alpha2, t / lam
        log_density = (a2 - 1.0) * np.log(u) - (a1 + a2) * np.log1p(u) - self._log_beta
        return np.exp(log_density) / lam

    cond_median = _conditional(_median)
    cond_cdf = _conditional(_cdf)
    d_density = _density(_pdf)

    def d_quadrature_segments(self, lam: float) -> list[QuadSegment]:
        # Ratio tails are power laws, so both ends are compactified toward 0
        # (where binary64 has dynamic range): t = lam*s below lam, t = lam/v
        # above. Density-threshold truncation would lose ~1e-3 of mass for
        # shapes as small as 0.2.
        return _ratio_segments(lam)


# ---------------------------------------------------------------------------
# independent power-family variables on (0, theta) (scale)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerScale:
    """Independent power-law variables with known shapes on (0, 1) cores;
    the two scales are the restricted parameters.
    """

    alpha1: float
    alpha2: float

    kind = ProblemKind.SCALE
    median_kinks = (1.0,)

    def __post_init__(self):
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise DomainError("alpha1 and alpha2 must be positive")

    @property
    def shape_sum(self) -> float:
        return self.alpha1 + self.alpha2

    def sample(self, params: RestrictedParams, rng: np.random.Generator, size: int):
        self.kind.check_params(params)
        u1 = rng.random(size)
        u2 = rng.random(size)
        e1, e2 = 1.0 / self.alpha1, 1.0 / self.alpha2
        # x = theta u^(1/alpha), in place; **= keeps numpy's fast paths for
        # the exponents 0.5, 1 and 2 that ** takes.
        u1 **= e1
        u2 **= e2
        u1 *= params.theta1
        u2 *= params.theta2
        return u1, u2

    def _s_max(self, component: int, lam: float, t):
        # lam / t overflows to inf below t = lam / DBL_MAX, where the
        # minimum is 1 all the same
        with np.errstate(over="ignore"):
            ratio = lam / t if component == 1 else t / lam
        return np.minimum(1.0, ratio)

    def _median(self, component: int, lam: float, t):
        return 2.0 ** (-1.0 / self.shape_sum) * self._s_max(component, lam, t)

    def _cdf(self, component: int, lam: float, t, s):
        frac = np.clip(s / self._s_max(component, lam, t), 0.0, 1.0)
        return frac ** self.shape_sum

    def _pdf(self, lam: float, t):
        a1, a2, u = self.alpha1, self.alpha2, t / lam
        coef = a1 * a2 / (a1 + a2)
        with np.errstate(over="ignore"):
            return coef * np.where(u <= 1.0, u ** (a2 - 1.0), u ** (-a1 - 1.0)) / lam

    cond_median = _conditional(_median)
    cond_cdf = _conditional(_cdf)
    d_density = _density(_pdf)

    def d_quadrature_segments(self, lam: float) -> list[QuadSegment]:
        return _ratio_segments(lam)


ModelSpec = Union[BivariateNormal, ExponentialLocation, GammaScale, PowerScale]

_MODELS = {
    "normal": BivariateNormal,
    "exponential": ExponentialLocation,
    "gamma": GammaScale,
    "power": PowerScale,
}


def finite_number(value, what: str) -> float:
    """A JSON number as a finite float; strings, bools, NaN, infinities and
    integers beyond binary64 are config errors.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def model_from_config(spec: dict) -> ModelSpec:
    """Build a model from a config mapping: {"name": ..., <spec fields>}.
    Every failure, a value outside the model's domain included, is a
    ConfigError.
    """
    if not isinstance(spec, dict):
        raise ConfigError("model must be an object with a 'name' field")
    data = dict(spec)
    name = data.pop("name", None)
    if not isinstance(name, str) or name not in _MODELS:
        raise ConfigError(
            f"unknown model name {name!r}; valid: {', '.join(sorted(_MODELS))}"
        )
    cls = _MODELS[name]
    names = [f.name for f in fields(cls)]
    missing = [f for f in names if f not in data]
    if missing:
        raise ConfigError(f"model {name!r} missing field(s): {', '.join(missing)}")
    unknown = [f for f in data if f not in names]
    if unknown:
        raise ConfigError(f"model {name!r} has unknown field(s): {', '.join(unknown)}")
    values = {f: finite_number(data[f], f"model field {f!r}") for f in names}
    try:
        return cls(**values)
    except DomainError as e:
        raise ConfigError(f"model {name!r}: {e}") from None
