"""Estimator catalog for the four models plus the generic clamp-improvement
constructor.

Location estimators have the equivariant form X_i - psi(D) with D = X2 - X1;
scale estimators the form psi(D) * X_i with D = X2 / X1 and psi > 0. The
clamp constructor projects a kernel onto the band spanned by the
conditional-median bounds, which is what produces the *_star entries of the
catalog.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownEstimatorError, UnsupportedCaseError
from .models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    ModelSpec,
    PowerScale,
    ProblemKind,
    _LN2,
)
from .specfun import gamma_median

__all__ = [
    "LossFn",
    "Estimator",
    "ClampBounds",
    "beta_weight",
    "clamp",
    "default_bounds",
    "catalog",
    "normal_nu_family",
    "resolve_estimator",
    "estimator_names",
]


@dataclass(frozen=True)
class LossFn:
    """Absolute or squared error of the estimate's contrast with the truth:
    estimate - theta for location, estimate / theta - 1 for scale. Its
    minimum 0 is at the truth.
    """

    problem_kind: ProblemKind
    squared: bool = False

    @property
    def name(self) -> str:
        return f"{self.problem_kind.value}_{'squared' if self.squared else 'abs'}"

    def evaluate(self, estimate, theta):
        kind = self.problem_kind
        err = kind.contrast(estimate, theta) - kind.identity
        return err ** 2 if self.squared else np.abs(err)

    @classmethod
    def from_name(cls, name: str) -> "LossFn":
        losses = [cls(kind, squared) for kind in ProblemKind for squared in (False, True)]
        for loss in losses:
            if loss.name == name:
                return loss
        valid = ", ".join(loss.name for loss in losses)
        raise UnsupportedCaseError(f"unknown loss {name!r}; valid: {valid}")


@dataclass(frozen=True)
class Estimator:
    """A named equivariant estimator given by its kernel on the contrast.

    The kernel psi receives the contrast as float64 (an array, or a numpy
    scalar from scalar evaluation) and returns float64 of the same shape.
    breakpoints holds the contrast values where psi has a kink, in any
    order and possibly repeated; the oracle makes them panel edges.
    """

    name: str
    target: int
    kind: ProblemKind
    psi: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if self.target not in (1, 2):
            raise DomainError(f"target must be 1 or 2, got {self.target}")

    def evaluate(self, x1, x2):
        scalar = np.ndim(x1) == 0 and np.ndim(x2) == 0
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        xi = x1 if self.target == 1 else x2
        psi = self.psi(self.kind.contrast(x2, x1))
        out = self.kind.estimate(xi, psi)
        return float(out) if scalar else out


@dataclass(frozen=True)
class ClampBounds:
    """Extended-real bounds (l, u) bracketing the conditional median for
    every gap value; +-inf arms are represented as actual infinities.

    Like a kernel, each bound receives the contrast as float64 and returns
    float64 of the same shape. The bounds carry no kinks: the catalog lists
    every kink of a clamped kernel with the kernel.
    """

    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]


def _constant(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel or bound that is c at every contrast value."""
    return lambda t: np.full_like(t, c)


def beta_weight(alpha: float) -> float:
    """Order-respecting mixing weight: alpha clipped to [0, 1]."""
    return min(1.0, max(0.0, alpha))


# Contrast values at which a clamp checks its bounds, by kind.
_BAND_PROBES = {
    ProblemKind.LOCATION: np.array([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0]),
    ProblemKind.SCALE: np.array([0.25, 0.5, 1.0, 2.0, 4.0]),
}


def _check_band(bounds: ClampBounds, kind: ProblemKind) -> None:
    probes = _BAND_PROBES[kind]
    lo = np.asarray(bounds.lower(probes), dtype=float)
    hi = np.asarray(bounds.upper(probes), dtype=float)
    if not np.all(lo <= hi):
        raise DomainError("clamp bounds must satisfy l(t) <= u(t)")


def clamp(base: Estimator, bounds: ClampBounds) -> Estimator:
    """Project a kernel onto the band of its kind: [l(t), u(t)] for a
    location kernel, [1/u(t), 1/l(t)] for a scale kernel.
    """
    _check_band(bounds, base.kind)
    psi = base.psi
    lower, upper = base.kind.kernel_band(bounds.lower, bounds.upper)

    def clamped(t):
        return np.maximum(lower(t), np.minimum(psi(t), upper(t)))

    return replace(base, name=base.name + "_star", psi=clamped)


def default_bounds(model: ModelSpec, component: int) -> ClampBounds:
    """The inf/sup-over-gap envelope of the model's conditional median for
    the given component.

    The median is monotone in the gap, so at each contrast the envelope is
    spanned by its value at the identity gap and its limit as the gap grows
    without bound. For every model that limit does not depend on the
    contrast. It is NaN (0 * inf) where the median ignores the gap, and
    fmin/fmax then return the identity-gap value.
    """
    if component not in (1, 2):
        raise UnsupportedCaseError(f"component must be 1 or 2, got {component}")
    identity = model.kind.identity
    near = functools.partial(model._median, component, identity)
    far = float(model._median(component, np.inf, identity))
    return ClampBounds(
        lower=lambda t: np.fmin(near(t), far),
        upper=lambda t: np.fmax(near(t), far),
    )


def _with_breakpoints(est: Estimator, points) -> Estimator:
    return replace(est, breakpoints=est.breakpoints + tuple(points))


def _normal_catalog(model: BivariateNormal, component: int) -> tuple[Estimator, ...]:
    a = model.alpha
    b = beta_weight(a)
    kind = ProblemKind.LOCATION
    bounds = default_bounds(model, component)
    if component == 1:
        pnlee = Estimator("pnlee", 1, kind, _constant(0.0))
        rmle = Estimator(
            "rmle", 1, kind,
            lambda t: (1.0 - a) * np.maximum(0.0, -t),
            breakpoints=(0.0,),
        )
        hp = Estimator(
            "hp", 1, kind,
            lambda t: np.maximum(0.0, (a - 1.0) * t),
            breakpoints=(0.0,),
        )
        pdt = Estimator(
            "pdt", 1, kind,
            lambda t: (1.0 - b) * np.maximum(0.0, -t),
            breakpoints=(0.0,),
        )
        if a > 1.0:
            # hp_star: the linear blend
            return pnlee, rmle, hp, pdt, clamp(hp, bounds)
        return pnlee, rmle, hp, pdt
    pnlee = Estimator("pnlee", 2, kind, _constant(0.0))
    rmle = Estimator(
        "rmle", 2, kind,
        lambda t: -a * np.maximum(0.0, -t),
        breakpoints=(0.0,),
    )
    hp = Estimator(
        "hp", 2, kind,
        lambda t: -np.maximum(0.0, -a * t),
        breakpoints=(0.0,),
    )
    pdt = Estimator(
        "pdt", 2, kind,
        lambda t: -b * np.maximum(0.0, -t),
        breakpoints=(0.0,),
    )
    pnlee_star = _with_breakpoints(clamp(pnlee, bounds), (0.0,))
    rmle_star = clamp(rmle, bounds)
    return pnlee, rmle, hp, pdt, pnlee_star, rmle_star


def _exponential_catalog(
    model: ExponentialLocation, component: int
) -> tuple[Estimator, ...]:
    kind = ProblemKind.LOCATION
    s1, s2 = model.sigma1, model.sigma2
    c = model.pooled_scale * _LN2
    bounds = default_bounds(model, component)
    if component == 1:
        pnlee = Estimator("pnlee", 1, kind, _constant(s1 * _LN2))
        rmle = Estimator(
            "rmle", 1, kind,
            lambda t: np.maximum(0.0, -t),
            breakpoints=(0.0,),
        )
        cross = c - s1 * _LN2
    else:
        pnlee = Estimator("pnlee", 2, kind, _constant(s2 * _LN2))
        rmle = Estimator("rmle", 2, kind, _constant(0.0))
        cross = s2 ** 2 * _LN2 / (s1 + s2)
    # the bounds kink at 0, and pnlee crosses its bound at cross
    pnlee_star = _with_breakpoints(clamp(pnlee, bounds), (0.0, cross))
    return pnlee, rmle, pnlee_star, _with_breakpoints(clamp(rmle, bounds), (0.0,))


def _gamma_catalog(model: GammaScale, component: int) -> tuple[Estimator, ...]:
    kind = ProblemKind.SCALE
    a1, a2 = model.alpha1, model.alpha2
    asum = a1 + a2
    nu = model.pooled_median
    bounds = default_bounds(model, component)
    if component == 1:
        nu1 = gamma_median(a1)
        ue = Estimator("ue", 1, kind, _constant(1.0 / a1))
        pnsee = Estimator("pnsee", 1, kind, _constant(1.0 / nu1))
        rmle = Estimator(
            "rmle", 1, kind,
            lambda t: np.minimum(1.0 / a1, (1.0 + t) / asum),
            breakpoints=(a2 / a1,),
        )
        rmle_star = _with_breakpoints(clamp(rmle, bounds), (asum / nu - 1.0,))
        pnsee_star = _with_breakpoints(clamp(pnsee, bounds), (nu / nu1 - 1.0,))
        ue_star = _with_breakpoints(clamp(ue, bounds), (nu / a1 - 1.0,))
        return ue, pnsee, rmle, rmle_star, pnsee_star, ue_star
    nu2 = gamma_median(a2)
    ue = Estimator("ue", 2, kind, _constant(1.0 / a2))
    pnsee = Estimator("pnsee", 2, kind, _constant(1.0 / nu2))
    rmle = Estimator(
        "rmle", 2, kind,
        lambda t: np.maximum(1.0 / a2, (1.0 + t) / (t * asum)),
        breakpoints=(a2 / a1,),
    )
    rmle_star = _with_breakpoints(
        clamp(rmle, bounds),
        (a2 / (nu - a2),) if nu > a2 else (),
    )
    pnsee_star = _with_breakpoints(
        clamp(pnsee, bounds),
        (nu2 / (nu - nu2),) if nu > nu2 else (),
    )
    return ue, pnsee, rmle, rmle_star, pnsee_star


def _power_catalog(model: PowerScale, component: int) -> tuple[Estimator, ...]:
    kind = ProblemKind.SCALE
    a1, a2 = model.alpha1, model.alpha2
    asum = model.shape_sum
    bounds = default_bounds(model, component)
    if component == 1:
        pnsee = Estimator("pnsee", 1, kind, _constant(2.0 ** (1.0 / a1)))
        cuts = (1.0, 2.0 ** (a2 / (a1 * asum)))
    else:
        pnsee = Estimator("pnsee", 2, kind, _constant(2.0 ** (1.0 / a2)))
        cuts = (1.0, 2.0 ** (-a1 / (a2 * asum)))
    return pnsee, _with_breakpoints(clamp(pnsee, bounds), cuts)


# Distinct (model, component) catalogs kept by the memo. Models are frozen
# and hashable, and kernels close over floats and other kernels only, so a
# cached catalog is as good as a fresh one.
_CATALOG_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CATALOG_CACHE_SIZE)
def catalog(model: ModelSpec, component: int) -> tuple[Estimator, ...]:
    """All named estimators for the given model and target component.

    Built once per (model, component) and shared afterwards: the one source
    of catalog names and kernels for estimator_names and resolve_estimator.
    """
    if component not in (1, 2):
        raise UnsupportedCaseError(f"component must be 1 or 2, got {component}")
    if isinstance(model, BivariateNormal):
        return _normal_catalog(model, component)
    if isinstance(model, ExponentialLocation):
        return _exponential_catalog(model, component)
    if isinstance(model, GammaScale):
        return _gamma_catalog(model, component)
    if isinstance(model, PowerScale):
        return _power_catalog(model, component)
    raise UnsupportedCaseError(f"no catalog for model {type(model).__name__}")


def normal_nu_family(
    model: BivariateNormal, nu: float, hp_tail: bool = False
) -> Estimator:
    """One member of the one-parameter improvement family for the smaller
    normal mean: kernel -(1-nu) t on t <= 0, with either a zero tail or the
    linear-blend tail on t > 0.

    The admissible nu range depends on the sign regime of the model's mixing
    coefficient; range endpoints are accepted as closed wherever the regime
    conditions state them that way.
    """
    a = model.alpha
    if a == 1.0:
        raise UnsupportedCaseError(
            "no improvement family exists when the mixing coefficient is 1"
        )
    if hp_tail and not a > 1.0:
        raise UnsupportedCaseError(
            "the blend-tail family requires mixing coefficient > 1"
        )
    if a > 1.0:
        if not 1.0 < nu <= a:
            raise DomainError(f"nu must lie in (1, {a}], got {nu}")
    elif a >= 0.0:
        if not a <= nu < 1.0:
            raise DomainError(f"nu must lie in [{a}, 1), got {nu}")
    else:
        if not a <= nu < 0.0:
            raise DomainError(f"nu must lie in [{a}, 0), got {nu}")

    def psi(t):
        tail = -(1.0 - a) * t if hp_tail else np.zeros_like(t)
        return np.where(t <= 0.0, -(1.0 - nu) * t, tail)

    label = "psi_nu_hp" if hp_tail else "psi_nu"
    return Estimator(
        name=f"{label}[{nu:g}]",
        target=1,
        kind=ProblemKind.LOCATION,
        psi=psi,
        breakpoints=(0.0,),
    )


def _family_names(model: ModelSpec, component: int) -> tuple[str, ...]:
    """The improvement-family names that exist for this model/component:
    psi_nu for the smaller normal mean when alpha != 1, and psi_nu_hp as
    well when alpha > 1.
    """
    if not isinstance(model, BivariateNormal) or component != 1 or model.alpha == 1.0:
        return ()
    return ("psi_nu", "psi_nu_hp") if model.alpha > 1.0 else ("psi_nu",)


def estimator_names(model: ModelSpec, component: int) -> list[str]:
    """Names accepted by resolve_estimator for this model/component."""
    names = [e.name for e in catalog(model, component)]
    return names + list(_family_names(model, component))


def resolve_estimator(
    model: ModelSpec, component: int, name: str, nu: float | None = None
) -> Estimator:
    """Look up a catalog estimator by its stable identifier; the improvement
    family names require the nu parameter.
    """
    for est in catalog(model, component):
        if est.name == name:
            return est
    if name not in _family_names(model, component):
        raise UnknownEstimatorError(name, estimator_names(model, component))
    if nu is None:
        raise UnsupportedCaseError(f"estimator {name!r} requires a nu value")
    return normal_nu_family(model, nu, hp_tail=(name == "psi_nu_hp"))
