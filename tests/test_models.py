import math
import zlib

import numpy as np
import pytest

from pitnear.cli import TABLES
from pitnear.errors import ConfigError, DomainError
from pitnear.models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    PowerScale,
    ProblemKind,
    RestrictedParams,
    model_from_config,
)
from pitnear.quadrature import adaptive_quadrature
from pitnear.specfun import gamma_median, gammaln, regularized_gamma_p

LN2 = math.log(2.0)

NORMAL = BivariateNormal(1.0, 1.0, 0.0)          # alpha = 1/2
EXP = ExponentialLocation(1.0, 1.0)
GAMMA = GammaScale(1.0, 1.0)
POWER = PowerScale(1.0, 1.0)

ALL_MODELS = [NORMAL, EXP, GAMMA, POWER]

# Sampling checks. Scales are not powers of two, so a reassociated product
# rounds differently; the power shapes take numpy's square-root, square and
# identity power paths and a general exponent.
SAMPLING_MODELS = [
    BivariateNormal(2.3, 0.7, -0.6),
    ExponentialLocation(0.3, 1.7),
    GammaScale(0.5, 0.2),
    GammaScale(30.0, 1.0),
    PowerScale(2.0, 0.5),
    PowerScale(1.0, 0.7),
]


def grid_for(model):
    if model.kind is ProblemKind.LOCATION:
        return [0.0, 0.5, 1.0, 2.0, 5.0], [-3.0, -1.0, 0.0, 1.5, 4.0]
    return [1.0, 1.5, 2.0, 3.0, 5.0], [0.25, 0.5, 1.0, 2.0, 4.0]


class TestRestrictedParams:
    def test_order_enforced(self):
        RestrictedParams(1.0, 1.0)
        with pytest.raises(DomainError):
            RestrictedParams(2.0, 1.0)

    def test_gaps(self):
        p = RestrictedParams(1.0, 3.0)
        assert p.gap(ProblemKind.LOCATION) == 2.0
        assert p.gap(ProblemKind.SCALE) == 3.0

    def test_scale_needs_positive(self):
        p = RestrictedParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            p.gap(ProblemKind.SCALE)


# Per kind: estimate(x=3, psi=2); the kernel band (lower, upper) of the
# medians near = BAND_NEAR and each far in BAND_FARS, read as the clip of
# -inf and inf; in_domain of CONTRASTS; and whether (-1, 1) and (0, 1) are
# parameters.
CONTRASTS = np.array([-1.0, -0.0, 0.0, 0.5, np.inf, -np.inf, np.nan])
BAND_NEAR = np.array([0.0, 0.5, 2.0, np.inf])
INF = math.inf
BAND_FARS = (1.0, 0.0, math.nan, INF, -INF)
KIND_RULES = {
    ProblemKind.LOCATION: (
        1.0,
        [([0.0, 0.5, 1.0, 1.0], [1.0, 1.0, 2.0, INF]),
         ([0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 2.0, INF]),
         ([0.0, 0.5, 2.0, INF], [0.0, 0.5, 2.0, INF]),  # a NaN far: both ends near
         ([0.0, 0.5, 2.0, INF], [INF, INF, INF, INF]),
         ([-INF, -INF, -INF, -INF], [0.0, 0.5, 2.0, INF])],
        [True, True, True, True, False, False, False], True,
    ),
    ProblemKind.SCALE: (
        6.0,
        [([1.0, 1.0, 0.5, 0.0], [INF, 2.0, 1.0, 1.0]),  # 1/0 = inf, 1/inf = 0
         ([INF, 2.0, 0.5, 0.0], [INF, INF, INF, INF]),
         ([INF, 2.0, 0.5, 0.0], [INF, 2.0, 0.5, 0.0]),
         ([0.0, 0.0, 0.0, 0.0], [INF, 2.0, 0.5, 0.0]),
         ([0.0, 0.0, 0.0, 0.0], [INF, 2.0, 0.5, 0.0])],  # 1/-inf = -0.0
        [False, False, False, True, False, False, False], False,
    ),
}


@pytest.mark.parametrize(
    "kind, identity, below",
    [(ProblemKind.LOCATION, 0.0, -0.5), (ProblemKind.SCALE, 1.0, 0.5)],
    ids=["location", "scale"],
)
def test_problem_kind_conventions(kind, identity, below):
    # the pinned point of a gap starts at the identity and has that gap;
    # gaps below the identity, and NaN, are outside the domain
    assert kind.pinned_params(identity) == RestrictedParams(identity, identity)
    params = kind.pinned_params(2.5)
    assert params == RestrictedParams(identity, 2.5)
    assert params.gap(kind) == kind.contrast(2.5, identity) == 2.5
    message = rf"^{kind.value} gaps must be >= {identity:g}, got {below}$"
    with pytest.raises(DomainError, match=message):
        kind.pinned_params(below)
    with pytest.raises(DomainError):
        kind.check_gap(math.nan)

    estimate, bands, in_domain, signed_params = KIND_RULES[kind]
    assert kind.estimate(3.0, 2.0) == estimate
    for far, (want_lower, want_upper) in zip(BAND_FARS, bands):
        clip = kind.kernel_clip(far)
        lower, upper = (clip(np.full(4, end), BAND_NEAR) for end in (-INF, INF))
        assert lower.tolist() == want_lower and upper.tolist() == want_upper
    assert kind.in_domain(CONTRASTS).tolist() == in_domain

    # check_contrast rejects exactly what in_domain excludes
    message = ("^contrast t must be finite" if kind is ProblemKind.LOCATION
               else "^contrast ratio t must be positive")
    kind.check_contrast(np.array([0.5, 2.0]))
    kind.check_contrast(CONTRASTS[in_domain])
    for t, ok in zip(CONTRASTS, in_domain):
        if ok:
            kind.check_contrast(t)
        else:
            with pytest.raises(DomainError, match=message):
                kind.check_contrast(t)
    with pytest.raises(DomainError, match=message):
        kind.check_contrast([0.5, np.nan])
    kind.check_params(RestrictedParams(0.5, 1.0))
    for theta1 in (-1.0, 0.0):
        if signed_params:
            kind.check_params(RestrictedParams(theta1, 1.0))
        else:
            with pytest.raises(DomainError,
                               match=f"^scale parameters must be positive, got {theta1}$"):
                kind.check_params(RestrictedParams(theta1, 1.0))


class TestSpecValidation:
    def test_normal(self):
        with pytest.raises(DomainError):
            BivariateNormal(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            BivariateNormal(1.0, 1.0, 1.0)

    def test_positive_shapes(self):
        for cls in (GammaScale, PowerScale):
            with pytest.raises(DomainError):
                cls(0.0, 1.0)
        with pytest.raises(DomainError):
            ExponentialLocation(1.0, -2.0)

    def test_gamma_shape_sum_ceiling(self):
        assert GammaScale(250.0, 250.0).pooled_median == pytest.approx(500.0 - 1.0 / 3.0, abs=1e-3)
        with pytest.raises(DomainError, match="at most 500"):
            GammaScale(250.0, 250.5)
        with pytest.raises(ConfigError, match="at most 500"):
            model_from_config({"name": "gamma", "alpha1": 300, "alpha2": 300})

    def test_derived_mixing_coefficient(self):
        m = BivariateNormal(3.0, 0.5, -0.9)
        assert m.tau2 == pytest.approx(11.95)
        assert m.alpha == pytest.approx(0.5 * (0.5 + 2.7) / 11.95)


class TestCondMedian:
    def test_normal_component1_anchor(self):
        # alpha = 1/2 here, so the median at gap 0, t = 2 is -(1/2)*2
        assert NORMAL.alpha == pytest.approx(0.5)
        assert NORMAL.cond_median(1, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_normal_component2_form(self):
        m = BivariateNormal(2.0, 1.0, 0.3)
        for lam in (0.0, 1.3):
            for t in (-2.0, 0.7):
                assert m.cond_median(2, lam, t) == pytest.approx(m.alpha * (t - lam))

    def test_exponential_forms(self):
        m = ExponentialLocation(2.0, 3.0)
        c = (6.0 / 5.0) * LN2
        assert m.cond_median(1, 2.0, -1.0) == pytest.approx(3.0 + c)
        assert m.cond_median(1, 0.0, 1.0) == pytest.approx(c)
        assert m.cond_median(2, 1.0, 4.0) == pytest.approx(3.0 + c)

    def test_gamma_anchor(self):
        # half of the pooled-shape median; cross-checked by binned sampling below
        assert GAMMA.cond_median(1, 1.0, 1.0) == pytest.approx(
            0.8391734950083305, abs=1e-12
        )
        assert GAMMA.cond_median(2, 2.0, 1.0) == pytest.approx(
            gamma_median(2.0) / 3.0
        )

    def test_power_anchor(self):
        assert POWER.cond_median(2, 1.0, 1.0) == pytest.approx(2.0 ** -0.5, abs=1e-14)

    def test_power_subnormal_contrast(self):
        # component 1's lam / t overflows below t = lam / DBL_MAX, where
        # min(1, lam / t) is 1 all the same; pytest makes the warning an error
        assert POWER.cond_median(1, 1.0, 1e-310) == 2.0 ** -0.5
        assert POWER.cond_cdf(1, 1.0, 1e-310, 0.5) == 0.25

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            NORMAL.cond_median(1, -0.5, 0.0)
        with pytest.raises(DomainError):
            GAMMA.cond_median(1, 0.5, 1.0)
        with pytest.raises(DomainError):
            GAMMA.cond_median(1, 1.0, -1.0)
        with pytest.raises(DomainError):
            GAMMA.cond_median(3, 1.0, 1.0)
        # a non-finite contrast is outside both kinds' domains
        with pytest.raises(DomainError):
            BivariateNormal(1.0, 1.0, 0.0).cond_cdf(1, 0.0, math.nan, 0.0)
        with pytest.raises(DomainError):
            GammaScale(1.0, 1.0).d_density(1.0, math.inf)

    @pytest.mark.parametrize(
        "model,component,increasing",
        [
            (BivariateNormal(3.0, 0.5, -0.9), 1, True),   # mixing coeff < 1
            (BivariateNormal(0.5, 5.0, 0.9), 1, False),   # mixing coeff > 1
            (EXP, 1, True),
            (GAMMA, 1, True),
            (POWER, 1, True),
            (GAMMA, 2, False),
            (POWER, 2, False),
        ],
    )
    def test_monotone_in_gap(self, model, component, increasing):
        lams, ts = grid_for(model)
        lam_grid = np.linspace(lams[0], lams[-1], 30)
        for t in ts:
            vals = np.array([model.cond_median(component, l, t) for l in lam_grid])
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12) if increasing else np.all(diffs <= 1e-12)


class TestCondCdf:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_median_maps_to_half(self, model, component):
        lams, ts = grid_for(model)
        for lam in lams:
            for t in ts:
                m = model.cond_median(component, lam, t)
                assert model.cond_cdf(component, lam, t, m) == pytest.approx(
                    0.5, abs=1e-10
                )

    @pytest.mark.parametrize("component", [1, 2])
    def test_gamma_batch_independent(self, component):
        # one call, two uneven pieces, or one node at a time: identical bits
        model = GammaScale(0.5, 0.2)
        lam = 2.0
        t = np.geomspace(1e-12, 1e6, 40)
        s = np.geomspace(1e-3, 1e3, 40)[::-1]

        def cdf(i, j):
            return model.cond_cdf(component, lam, t[i:j], s[i:j])

        whole = cdf(0, 40).tobytes()
        assert np.concatenate([cdf(0, 13), cdf(13, 40)]).tobytes() == whole
        assert np.concatenate([cdf(i, i + 1) for i in range(40)]).tobytes() == whole

    def test_normal_lower_limit(self):
        assert NORMAL.cond_cdf(1, 0.0, 1.0, -40.0) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_anchor(self):
        # rate 2 conditional with zero shift: 1 - exp(-2 s)
        assert EXP.cond_cdf(1, 0.0, 0.0, 1.0) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-12
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_nondecreasing_in_s(self, model, component):
        lam = 0.7 if model.kind is ProblemKind.LOCATION else 1.7
        t = 0.9
        s = np.linspace(-2.0, 6.0, 200)
        vals = model.cond_cdf(component, lam, t, s)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


# ---------------------------------------------------------------------------
# the contrast density from its defining one-dimensional integral: the
# reference that the closed forms are checked against
# ---------------------------------------------------------------------------


def _normal_joint_pdf(model, z1, z2):
    s1, s2, rho = model.sigma1, model.sigma2, model.rho
    q = (
        (z1 / s1) ** 2
        - 2.0 * rho * z1 * z2 / (s1 * s2)
        + (z2 / s2) ** 2
    ) / (1.0 - rho ** 2)
    return np.exp(-0.5 * q) / (2.0 * math.pi * s1 * s2 * math.sqrt(1.0 - rho ** 2))


def _normal_d_integrand(model, lam, t):
    c = t - lam
    center = -(1.0 - model.alpha) * c
    width = 12.0 * model.cond_sd
    return center - width, center + width, lambda y: _normal_joint_pdf(model, y, y + c)


def _exponential_d_integrand(model, lam, t):
    c = t - lam
    y0 = max(-c, 0.0)
    norm = 1.0 / (model.sigma1 * model.sigma2)

    def integrand(y):
        z2 = y + c
        good = (y >= y0) & (z2 >= 0.0)
        val = norm * np.exp(-y / model.sigma1 - np.maximum(z2, 0.0) / model.sigma2)
        return np.where(good, val, 0.0)

    return y0, y0 + 50.0 / model.rate, integrand


def _gamma_d_integrand(model, lam, t):
    a1, a2 = model.alpha1, model.alpha2
    lognorm = gammaln(a1) + gammaln(a2)
    rate = 1.0 + t / lam

    def integrand(y):
        y = np.maximum(y, 1e-300)
        logv = (
            (a1 + a2 - 1.0) * np.log(y)
            - rate * y
            + (a2 - 1.0) * math.log(t / lam)
            - math.log(lam)
            - lognorm
        )
        return np.exp(logv)

    mean = (a1 + a2) / rate
    sd = math.sqrt(a1 + a2) / rate
    return 0.0, mean + 40.0 * sd + 40.0 / rate, integrand


def _power_d_integrand(model, lam, t):
    a1, a2 = model.alpha1, model.alpha2
    hi = min(1.0, lam / t)

    def integrand(y):
        y = np.maximum(y, 1e-300)
        z2 = y * t / lam
        val = (a1 * a2 / lam) * y ** a1 * z2 ** (a2 - 1.0)
        return np.where((y < 1.0) & (z2 < 1.0), val, 0.0)

    return 0.0, hi, integrand


_D_INTEGRANDS = {
    BivariateNormal: _normal_d_integrand,
    ExponentialLocation: _exponential_d_integrand,
    GammaScale: _gamma_d_integrand,
    PowerScale: _power_d_integrand,
}


def d_density_integral(model, lam, t, abs_tol):
    """Contrast density at t from its defining integral over the first
    pivot, by adaptive quadrature.
    """
    model.kind.check_gap(lam)
    model.kind.check_contrast(t)
    lo, hi, integrand = _D_INTEGRANDS[type(model)](model, lam, float(t))
    return adaptive_quadrature(
        lambda x, sizes: integrand(x), [lo], [hi], breakpoints=[()], abs_tol=abs_tol,
        max_panels=4000,
    )[0]


class TestContrastDensity:
    def test_normal_mode_anchor(self):
        m = BivariateNormal(0.6, 0.8, 0.0)  # tau = 1
        assert m.d_density(0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_gamma_unit_anchor(self):
        # ratio of two unit exponentials at 1 has density 1/4
        assert GAMMA.d_density(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            BivariateNormal(3.0, 0.5, -0.9),
            ExponentialLocation(0.5, 2.0),
            GammaScale(0.5, 0.2),
            GammaScale(5.0, 2.0),
            PowerScale(2.0, 0.5),
        ],
    )
    def test_closed_form_matches_integral(self, model):
        lams, ts = grid_for(model)
        for lam in lams[:3]:
            for t in ts:
                closed = model.d_density(lam, t)
                # a tolerance relative to the closed form: the assertion
                # below still fails on a wrong closed form
                quad = d_density_integral(model, lam, t, abs_tol=1e-9 * abs(closed))
                assert quad == pytest.approx(closed, rel=5e-9, abs=1e-300)

    @pytest.mark.parametrize(
        "model",
        [
            BivariateNormal(1.0, 1.0, 0.0),
            ExponentialLocation(1.0, 3.0),
            # the segments reach 45 sigma on each side of lam, so some nodes
            # would overflow exp in the other side's formula (over 709.78)
            ExponentialLocation(1.0, 20.0),
            ExponentialLocation(20.0, 1.0),
            GammaScale(0.5, 0.2),
            GammaScale(30.0, 1.0),
            PowerScale(1.0, 1.0),
            PowerScale(2.0, 0.5),
        ],
    )
    def test_normalizes_to_one(self, model):
        lam = 0.8 if model.kind is ProblemKind.LOCATION else 1.8
        total = 0.0
        for seg in model.d_quadrature_segments(lam):
            [value] = adaptive_quadrature(
                lambda s, sizes, seg=seg: model.d_density(lam, seg.to_t(s)) * seg.jacobian(s),
                [seg.lo],
                [seg.hi],
                breakpoints=[()],
                abs_tol=1e-8,
                max_panels=4000,
            )
            total += value
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampling:
    def test_deterministic_given_seed(self):
        p = RestrictedParams(0.0, 1.0)
        a1, a2 = NORMAL.sample(p, np.random.default_rng(11), size=64)
        b1, b2 = NORMAL.sample(p, np.random.default_rng(11), size=64)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_normal_independence(self):
        x1, x2 = NORMAL.sample(RestrictedParams(0.0, 0.0), np.random.default_rng(1), 10 ** 5)
        assert abs(np.corrcoef(x1, x2)[0, 1]) < 0.02

    def test_normal_correlation(self):
        m = BivariateNormal(1.0, 2.0, -0.6)
        x1, x2 = m.sample(RestrictedParams(0.0, 0.0), np.random.default_rng(2), 10 ** 5)
        assert np.corrcoef(x1, x2)[0, 1] == pytest.approx(-0.6, abs=0.02)

    def test_gamma_exponential_median(self):
        x1, _ = GAMMA.sample(RestrictedParams(1.0, 1.0), np.random.default_rng(3), 10 ** 5)
        assert np.median(x1) == pytest.approx(LN2, abs=0.02)

    def test_gamma_small_shape_moments(self):
        m = GammaScale(0.2, 0.8)
        x1, x2 = m.sample(RestrictedParams(1.0, 1.0), np.random.default_rng(4), 2 * 10 ** 5)
        assert np.mean(x1) == pytest.approx(0.2, abs=0.01)
        assert np.mean(x2) == pytest.approx(0.8, abs=0.01)

    def test_power_cdf_anchor(self):
        m = PowerScale(2.0, 1.0)
        x1, _ = m.sample(RestrictedParams(1.0, 1.0), np.random.default_rng(5), 10 ** 5)
        assert np.mean(x1 <= 0.5) == pytest.approx(0.25, abs=0.01)

    def test_exponential_support(self):
        m = ExponentialLocation(2.0, 1.0)
        x1, x2 = m.sample(RestrictedParams(1.0, 4.0), np.random.default_rng(6), 10 ** 4)
        assert x1.min() >= 1.0 and x2.min() >= 4.0
        assert np.mean(x1) == pytest.approx(3.0, abs=0.07)

    @pytest.mark.parametrize("model", [NORMAL, EXP])
    @pytest.mark.parametrize("shift", [-5.0, 1.3, 100.0])
    def test_location_shift_exact(self, model, shift):
        x1, x2 = model.sample(RestrictedParams(0.0, 0.0), np.random.default_rng(7), 512)
        y1, y2 = model.sample(
            RestrictedParams(shift, shift), np.random.default_rng(7), 512
        )
        assert np.array_equal(y1, x1 + shift)
        assert np.array_equal(y2, x2 + shift)

    @pytest.mark.parametrize("model", [GAMMA, POWER])
    @pytest.mark.parametrize("factor", [0.1, 1.0, 7.0])
    def test_scale_factor_exact(self, model, factor):
        x1, x2 = model.sample(RestrictedParams(1.0, 1.0), np.random.default_rng(8), 512)
        y1, y2 = model.sample(
            RestrictedParams(factor, factor), np.random.default_rng(8), 512
        )
        assert np.array_equal(y1, x1 * factor)
        assert np.array_equal(y2, x2 * factor)

    @pytest.mark.parametrize("shapes", TABLES[4].configs)
    def test_gamma_draws_are_numpy_standard_gamma(self, shapes):
        # the contract, not a stream hash: component 1 then component 2,
        # each scaled, from the caller's generator
        a1, a2 = shapes
        params = RestrictedParams(1.5, 4.0)
        x1, x2 = GammaScale(a1, a2).sample(params, np.random.default_rng(21), 1000)
        rng = np.random.default_rng(21)
        assert np.array_equal(x1, 1.5 * rng.standard_gamma(a1, 1000))
        assert np.array_equal(x2, 4.0 * rng.standard_gamma(a2, 1000))

    @pytest.mark.parametrize("shapes", TABLES[4].configs)
    def test_gamma_components_pass_ks(self, shapes):
        # Kolmogorov-Smirnov distance to the exact CDF; 1.95/sqrt(n) is the
        # 0.1% critical value
        n = 20000
        x1, x2 = GammaScale(*shapes).sample(
            RestrictedParams(1.0, 1.0), np.random.default_rng(23), n
        )
        upper = np.arange(1, n + 1) / n
        for shape, x in zip(shapes, (x1, x2)):
            cdf = regularized_gamma_p(shape, np.sort(x))
            ks = max(np.max(upper - cdf), np.max(cdf - (upper - 1.0 / n)))
            assert ks < 1.95 / math.sqrt(n)

    def test_scale_params_must_be_positive(self):
        with pytest.raises(DomainError):
            GAMMA.sample(RestrictedParams(0.0, 1.0), np.random.default_rng(9), 8)

    @pytest.mark.parametrize("model", SAMPLING_MODELS, ids=repr)
    @pytest.mark.parametrize("size", [1, 7, 2 ** 14 - 1, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
    def test_in_place_sampling_is_bitwise_the_expression(self, model, size):
        # sample builds x1 and x2 in place (and blockwise for the normal
        # pair); the bits must equal the plain expression on the same draws
        params = _sampling_params(model)
        x1, x2 = model.sample(params, np.random.default_rng(31), size)
        e1, e2 = _expression_sample(model, params, np.random.default_rng(31), size)
        assert x1.dtype == np.float64 and x1.shape == (size,)
        assert np.array_equal(x1, e1) and np.array_equal(x2, e2)

    @pytest.mark.parametrize("model", SAMPLING_MODELS + [PowerScale(0.001, 1.0)], ids=repr)
    @pytest.mark.parametrize("size", [1, 2 ** 14 - 1, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
    def test_moved_identity_draws_are_bytewise_the_draws_at_theta(self, model, size):
        # the Monte Carlo engine draws a column once at the identity gap and
        # moves the draws to each cell's parameters with kind.move; the bytes
        # must equal sample's at those parameters from the same seed, zeros
        # of PowerScale(0.001, 1)'s underflowed draws included
        kind = model.kind
        i1, i2 = model.sample(kind.pinned_params(kind.identity), np.random.default_rng(33), size)
        for params in (kind.pinned_params(kind.identity), kind.pinned_params(3.5),
                       _sampling_params(model)):
            x1, x2 = model.sample(params, np.random.default_rng(33), size)
            assert kind.move(i1, params.theta1).tobytes() == x1.tobytes()
            assert kind.move(i2, params.theta2).tobytes() == x2.tobytes()


def _sampling_params(model):
    if model.kind is ProblemKind.LOCATION:
        return RestrictedParams(-1.3, 2.7)
    return RestrictedParams(0.8, 2.5)


def _expression_sample(model, params, rng, size):
    """Each model's draws as one expression per component, in the order and
    association that in-place sampling must reproduce bit for bit.
    """
    t1, t2 = params.theta1, params.theta2
    if isinstance(model, BivariateNormal):
        z1 = rng.standard_normal(size)
        z2 = rng.standard_normal(size)
        x2 = t2 + model.sigma2 * (model.rho * z1 + math.sqrt(1.0 - model.rho ** 2) * z2)
        return t1 + model.sigma1 * z1, x2
    if isinstance(model, ExponentialLocation):
        u1 = rng.random(size)
        u2 = rng.random(size)
        return t1 - model.sigma1 * np.log1p(-u1), t2 - model.sigma2 * np.log1p(-u2)
    if isinstance(model, GammaScale):
        z1 = rng.standard_gamma(model.alpha1, size)
        z2 = rng.standard_gamma(model.alpha2, size)
        return t1 * z1, t2 * z2
    u1 = rng.random(size)
    u2 = rng.random(size)
    return t1 * u1 ** (1.0 / model.alpha1), t2 * u2 ** (1.0 / model.alpha2)


@pytest.mark.parametrize(
    "model,lam",
    [
        (BivariateNormal(1.0, 1.5, 0.4), 0.5),
        (ExponentialLocation(1.0, 2.0), 0.5),
        (GammaScale(1.0, 1.0), 1.0),
        (GammaScale(2.0, 1.5), 1.5),
        (PowerScale(1.0, 1.0), 1.5),
    ],
)
@pytest.mark.parametrize("component", [1, 2])
def test_binned_conditional_median(model, lam, component):
    """Empirical conditional median in a narrow contrast bin agrees with the
    closed form within binomial-order error plus the median drift across the
    bin.
    """
    n = 10 ** 6
    params = model.kind.pinned_params(lam)
    rng = np.random.default_rng(zlib.crc32(f"{model!r} {lam} {component}".encode()))
    x1, x2 = model.sample(params, rng, n)
    if model.kind is ProblemKind.LOCATION:
        d = x2 - x1
        z = x1 - params.theta1 if component == 1 else x2 - params.theta2
        t0 = lam + 0.3
    else:
        d = x2 / x1
        z = x1 / params.theta1 if component == 1 else x2 / params.theta2
        t0 = lam * 1.2
    h = 0.005 * max(t0, 1.0)
    while np.count_nonzero(np.abs(d - t0) < h) < 2000:
        h *= 1.6
    sel = np.abs(d - t0) < h
    k = int(np.count_nonzero(sel))
    med_hat = float(np.median(z[sel]))
    # binomial-order band: CDF at the true conditional median of the sample
    p_at_hat = model.cond_cdf(component, lam, t0, med_hat)
    drift = abs(
        model.cond_cdf(component, lam, t0 - h, med_hat)
        - model.cond_cdf(component, lam, t0 + h, med_hat)
    )
    tol = 3.0 / (2.0 * math.sqrt(k)) + drift
    assert abs(p_at_hat - 0.5) <= tol


class TestModelFromConfig:
    def test_round_trips(self):
        m = model_from_config({"name": "normal", "sigma1": 3, "sigma2": 0.5, "rho": -0.9})
        assert isinstance(m, BivariateNormal) and m.rho == -0.9
        g = model_from_config({"name": "gamma", "alpha1": 0.5, "alpha2": 0.2})
        assert isinstance(g, GammaScale)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            model_from_config({"name": "cauchy", "scale": 1.0})

    def test_missing_and_unknown_fields(self):
        with pytest.raises(ConfigError, match="missing"):
            model_from_config({"name": "power", "alpha1": 1.0})
        with pytest.raises(ConfigError, match="unknown"):
            model_from_config({"name": "power", "alpha1": 1.0, "alpha2": 1.0, "shape": 2})
