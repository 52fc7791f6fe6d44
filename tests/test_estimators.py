import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitnear.errors import DomainError, UnknownEstimatorError, UnsupportedCaseError
from pitnear.estimators import (
    ClampBounds,
    Estimator,
    LossFn,
    beta_weight,
    catalog,
    clamp,
    default_bounds,
    estimator_names,
    normal_nu_family,
    resolve_estimator,
)
from pitnear.models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    PowerScale,
    ProblemKind,
)
from pitnear.specfun import gamma_median

LN2 = math.log(2.0)

NORMAL_HALF = BivariateNormal(1.0, 1.0, 0.0)  # mixing coefficient 1/2

locations = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
positives = st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False)


def normal_configs(case):
    """Models in one regime of the mixing coefficient alpha. Cases III
    (alpha > 1, i.e. rho * sigma2 > sigma1) and IV (alpha < 0, i.e.
    sigma2 < rho * sigma1) are drawn inside their regime, with a relative
    margin that keeps the computed alpha off the regime boundary.
    """
    sigmas = st.floats(0.1, 10.0, allow_nan=False)
    rhos = st.floats(-0.95, 0.95, allow_nan=False)
    if case == "I":
        strat = st.tuples(sigmas, sigmas, rhos).map(lambda p: BivariateNormal(*p))
        return strat.filter(lambda m: 0.0 <= m.alpha < 1.0)

    @st.composite
    def ordered(draw):
        # big is the sigma that, scaled by rho, must exceed the other one
        rho = draw(st.floats(0.012, 0.95))
        big = draw(st.floats(0.11 / rho, 10.0))
        small = draw(st.floats(0.1, rho * big * (1.0 - 1e-6)))
        if case == "III":
            return BivariateNormal(small, big, rho)
        return BivariateNormal(big, small, rho)

    return ordered()


# The loss formulas of the four names as they were written out per name.
WRITTEN_LOSSES = {
    "location_abs": lambda e, theta: np.abs(e - theta),
    "location_squared": lambda e, theta: (e - theta) ** 2,
    "scale_abs": lambda e, theta: np.abs(e / theta - 1.0),
    "scale_squared": lambda e, theta: (e / theta - 1.0) ** 2,
}

LOSS_GRID = np.array([-np.inf, -2.5, -1e-300, -0.0, 0.0, 5e-324, 0.7, 1.0, 3.0, np.inf, np.nan])


class TestLossFn:
    def test_names_round_trip(self):
        for name in WRITTEN_LOSSES:
            assert LossFn.from_name(name).name == name
        for kind in ProblemKind:
            assert LossFn(kind) == LossFn.from_name(f"{kind.value}_abs")
            assert LossFn(kind, squared=True) == LossFn.from_name(f"{kind.value}_squared")
            assert LossFn(kind).problem_kind is kind

    @pytest.mark.parametrize("name", ["hinge", "location", "", ["scale_abs"]])
    def test_unknown_name(self, name):
        message = (f"unknown loss {name!r}; valid: "
                   "location_abs, location_squared, scale_abs, scale_squared")
        with pytest.raises(UnsupportedCaseError) as info:
            LossFn.from_name(name)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", list(WRITTEN_LOSSES))
    def test_bitwise_equal_to_written_formulas(self, name):
        # every estimate/theta pair of a grid with signed zeros, infinities
        # and NaN as arrays, and as Python floats where theta is not zero
        loss, written = LossFn.from_name(name), WRITTEN_LOSSES[name]
        e, theta = np.meshgrid(LOSS_GRID, LOSS_GRID)
        with np.errstate(all="ignore"):
            got, want = loss.evaluate(e, theta), written(e, theta)
            scalars = [(loss.evaluate(a, b), written(a, b))
                       for a in LOSS_GRID.tolist() for b in (-1.5, 2.0, math.inf)]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for g, w in scalars:
            assert type(g) is type(w)
            assert np.float64(g).view(np.uint64) == np.float64(w).view(np.uint64)

    @pytest.mark.parametrize("name", ["location_abs", "location_squared"])
    def test_location_shape(self, name):
        w = LossFn.from_name(name)
        assert w.problem_kind is ProblemKind.LOCATION
        assert w.evaluate(3.0, 3.0) == 0.0
        grid = np.linspace(-5.0, -0.1, 40)
        vals = w.evaluate(grid + 3.0, 3.0)
        assert np.all(np.diff(vals) < 0.0)
        grid = np.linspace(0.1, 5.0, 40)
        vals = w.evaluate(grid + 3.0, 3.0)
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("name", ["scale_abs", "scale_squared"])
    def test_scale_shape(self, name):
        w = LossFn.from_name(name)
        assert w.problem_kind is ProblemKind.SCALE
        assert w.evaluate(2.0, 2.0) == 0.0
        grid = np.linspace(0.05, 0.95, 40)
        vals = w.evaluate(grid * 2.0, 2.0)
        assert np.all(np.diff(vals) < 0.0)
        grid = np.linspace(1.05, 4.0, 40)
        vals = w.evaluate(grid * 2.0, 2.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_scale_abs_value(self):
        assert LossFn.from_name("scale_abs").evaluate(3.0, 2.0) == pytest.approx(0.5)


class TestClampLocation:
    def test_case_one_anchor(self):
        # clamping the zero kernel reproduces the restricted-MLE kernel
        bounds = default_bounds(NORMAL_HALF, 1)
        pnlee = resolve_estimator(NORMAL_HALF, 1, "pnlee")
        star = clamp(pnlee, bounds)
        assert star.psi(np.array(-2.0)) == pytest.approx(1.0)
        rmle = resolve_estimator(NORMAL_HALF, 1, "rmle")
        t = np.linspace(-6.0, 6.0, 101)
        assert np.allclose(star.psi(t), rmle.psi(t), rtol=0, atol=0)

    def test_identity_on_band(self):
        bounds = default_bounds(NORMAL_HALF, 1)
        rmle = resolve_estimator(NORMAL_HALF, 1, "rmle")
        star = clamp(rmle, bounds)
        t = np.linspace(-6.0, 6.0, 101)
        assert np.array_equal(star.psi(t), rmle.psi(t))

    def test_exponential_min_form(self):
        m = ExponentialLocation(2.0, 3.0)
        star = resolve_estimator(m, 1, "pnlee_star")
        c = m.pooled_scale * LN2
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=200)
        x2 = x1 + rng.normal(size=200)
        want = np.minimum(x2 - c, x1 - 2.0 * LN2)
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-12, atol=1e-12)

    def test_exponential_component2_three_branches(self):
        m = ExponentialLocation(2.0, 3.0)
        star = resolve_estimator(m, 2, "pnlee_star")
        c = m.pooled_scale * LN2
        cut = 9.0 * LN2 / 5.0  # sigma2^2 ln2 / (sigma1 + sigma2)
        assert star.evaluate(1.0, 0.5) == pytest.approx(0.5 - c)        # x2 < x1
        assert star.evaluate(1.0, 1.0 + cut / 2) == pytest.approx(1.0 - c)
        assert star.evaluate(1.0, 1.0 + cut + 0.4) == pytest.approx(
            1.0 + cut + 0.4 - 3.0 * LN2
        )

    def test_normal_component2_minmax_form(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=200)
        x2 = rng.normal(size=200)
        neg = BivariateNormal(5.0, 0.5, 0.9)    # mixing coefficient < 0
        a = neg.alpha
        star = resolve_estimator(neg, 2, "pnlee_star")
        want = np.minimum(x2, a * x1 + (1.0 - a) * x2)
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-9, atol=1e-12)
        pos = BivariateNormal(0.5, 5.0, 0.9)    # mixing coefficient > 0
        a = pos.alpha
        star = resolve_estimator(pos, 2, "pnlee_star")
        want = np.maximum(x2, a * x1 + (1.0 - a) * x2)
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-9, atol=1e-12)

    def test_star_naming(self):
        star = resolve_estimator(NORMAL_HALF, 2, "pnlee_star")
        assert star.name.endswith("_star")

    def test_invalid_band_rejected(self):
        bad = ClampBounds(lower=lambda t: np.ones_like(t), upper=lambda t: np.zeros_like(t))
        with pytest.raises(DomainError):
            clamp(resolve_estimator(NORMAL_HALF, 1, "pnlee"), bad)


class TestClampScale:
    def test_gamma_component1_star(self):
        g = GammaScale(1.0, 1.0)
        nu = g.pooled_median
        star = resolve_estimator(g, 1, "rmle_star")
        rng = np.random.default_rng(1)
        x1 = rng.gamma(1.0, size=300)
        x2 = rng.gamma(1.0, size=300)
        want = np.maximum(x1 / nu, np.minimum(x1, (x1 + x2) / 2.0))
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-12)

    def test_gamma_component2_pnsee_star(self):
        g = GammaScale(2.0, 1.5)
        nu = g.pooled_median
        nu2 = gamma_median(1.5)
        star = resolve_estimator(g, 2, "pnsee_star")
        rng = np.random.default_rng(2)
        x1 = rng.gamma(2.0, size=300)
        x2 = rng.gamma(1.5, size=300)
        want = np.maximum(x2 / nu2, (x1 + x2) / nu)
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-12)

    def test_identity_on_band(self):
        g = GammaScale(1.0, 1.0)
        star = resolve_estimator(g, 1, "rmle_star")
        restar = clamp(star, default_bounds(g, 1))
        t = np.linspace(0.05, 8.0, 101)
        assert np.array_equal(restar.psi(t), star.psi(t))

    def test_power_component2_max_form(self):
        p = PowerScale(1.0, 1.0)
        star = resolve_estimator(p, 2, "pnsee_star")
        rng = np.random.default_rng(3)
        x1 = rng.random(200) + 0.05
        x2 = rng.random(200) + 0.05
        want = np.maximum(math.sqrt(2.0) * x1, 2.0 * x2)
        assert np.allclose(star.evaluate(x1, x2), want, rtol=1e-12)


# One pair of bounds for both kinds. On BAND_T its lower arm reaches 0 and
# its upper arm +inf, so the scale band meets the conventions 1/0 = inf and
# 1/inf = 0.
BAND_T = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
BAND_BOUNDS = ClampBounds(
    lower=lambda t: np.where(np.abs(t) < 1.0, 0.0, np.abs(t)),
    upper=lambda t: np.where(np.abs(t) > 2.0, np.inf, np.abs(t) + 1.0),
)


@pytest.mark.parametrize(
    "kind, want_lo, want_hi",
    [
        (ProblemKind.LOCATION, [0.0, 0.0, 1.0, 2.0, 4.0], [1.25, 1.5, 2.0, 3.0, math.inf]),
        (ProblemKind.SCALE, [1 / 1.25, 1 / 1.5, 1 / 2.0, 1 / 3.0, 0.0],
         [math.inf, math.inf, 1.0, 0.5, 0.25]),
    ],
    ids=["location", "scale"],
)
def test_clamp_band_follows_kernel_kind(kind, want_lo, want_hi):
    # [l, u] for a location kernel and [1/u, 1/l] for a scale kernel, bit for
    # bit: a kernel at -inf lands on the lower edge, one at +inf on the upper
    low = clamp(Estimator("low", 1, kind, lambda t: np.full_like(t, -np.inf)), BAND_BOUNDS)
    high = clamp(Estimator("high", 1, kind, lambda t: np.full_like(t, np.inf)), BAND_BOUNDS)
    assert low.psi(BAND_T).tobytes() == np.array(want_lo).tobytes()
    assert high.psi(BAND_T).tobytes() == np.array(want_hi).tobytes()


def closed_form_bounds(model, component):
    """The envelope over the gap of each model's conditional median, written
    out per model: (lower, upper) as functions of the contrast t.
    """

    def const(c):
        return lambda t: np.full_like(t, c)

    if isinstance(model, BivariateNormal):
        # the median is linear in t, and the gap pushes it off to one side
        # unless its slope in the gap is 0
        a = model.alpha
        slope, flat = (a - 1.0, 1.0) if component == 1 else (a, 0.0)

        def linear(t):
            return slope * t

        return (linear if a <= flat else const(-np.inf),
                linear if a >= flat else const(np.inf))
    if isinstance(model, ExponentialLocation):
        c = model.pooled_scale * LN2
        if component == 1:
            return (lambda t: np.maximum(0.0, -t) + c), const(np.inf)
        return const(c), (lambda t: np.maximum(t, 0.0) + c)
    if isinstance(model, GammaScale):
        nu = model.pooled_median
        if component == 1:
            return (lambda t: nu / (1.0 + t)), const(nu)
        return const(0.0), (lambda t: nu * t / (1.0 + t))
    m = 2.0 ** (-1.0 / model.shape_sum)
    if component == 1:
        return (lambda t: m * np.minimum(1.0, 1.0 / t)), const(m)
    return const(0.0), (lambda t: m * np.minimum(1.0, t))


class TestDefaultBounds:
    def test_normal_small_alpha_arms(self):
        bounds = default_bounds(NORMAL_HALF, 1)
        t = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(bounds.lower(t), -0.5 * t)
        assert np.all(np.isinf(bounds.upper(t)))

    @pytest.mark.parametrize(
        "model",
        [
            BivariateNormal(0.5, 5.0, 0.9),  # alpha > 1
            NORMAL_HALF,  # 0 < alpha < 1
            BivariateNormal(5.0, 0.5, 0.9),  # alpha < 0
            BivariateNormal(1.0, 2.0, 0.5),  # alpha exactly 1
            BivariateNormal(2.0, 1.0, 0.5),  # alpha exactly 0
            ExponentialLocation(1.0, 2.0),
            ExponentialLocation(30.0, 40.0),
            GammaScale(0.5, 0.2),
            GammaScale(30.0, 1.0),
            PowerScale(1.0, 1.0),
            PowerScale(2.0, 0.5),
        ],
    )
    @pytest.mark.parametrize("component", [1, 2])
    def test_bounds_match_closed_forms_bit_for_bit(self, model, component):
        # a scale contrast is a ratio of nonnegative draws, so its grid is
        # t >= 0: the domain and the underflow edge 0
        if model.kind is ProblemKind.LOCATION:
            t = np.array([-1e200, -3.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 2.0, 1e200])
        else:
            t = np.array([0.0, 1e-300, 0.25, 1.0, 2.0, 1e200])
        lower, upper = closed_form_bounds(model, component)
        b = default_bounds(model, component)
        with np.errstate(divide="ignore"):
            assert np.asarray(b.lower(t)).tobytes() == np.asarray(lower(t)).tobytes()
            assert np.asarray(b.upper(t)).tobytes() == np.asarray(upper(t)).tobytes()

    def test_exponential_component2(self):
        m = ExponentialLocation(2.0, 3.0)
        c = m.pooled_scale * LN2
        b = default_bounds(m, 2)
        t = np.array([-4.0, 0.0, 2.5])
        assert np.allclose(b.lower(t), c)
        assert np.allclose(b.upper(t), np.maximum(t, 0.0) + c)

    @pytest.mark.parametrize(
        "model",
        [
            BivariateNormal(3.0, 0.5, -0.9),
            BivariateNormal(0.5, 5.0, 0.9),
            BivariateNormal(5.0, 0.5, 0.9),
            ExponentialLocation(1.0, 2.0),
            GammaScale(0.5, 0.2),
            GammaScale(30.0, 1.0),
            PowerScale(1.0, 1.0),
            PowerScale(2.0, 0.5),
        ],
    )
    @pytest.mark.parametrize("component", [1, 2])
    def test_bounds_bracket_conditional_median(self, model, component):
        if model.kind is ProblemKind.LOCATION:
            lams = [0.0, 0.3, 1.0, 4.0, 25.0]
            ts = [-5.0, -0.7, 0.0, 1.3, 6.0]
        else:
            lams = [1.0, 1.4, 3.0, 20.0]
            ts = [0.1, 0.6, 1.0, 2.2, 9.0]
        b = default_bounds(model, component)
        for lam in lams:
            for t in ts:
                m = model.cond_median(component, lam, t)
                ta = np.asarray(t, dtype=float)
                assert float(b.lower(ta)) <= m + 1e-12
                assert m <= float(b.upper(ta)) + 1e-12

    def test_unsupported_component(self):
        with pytest.raises(UnsupportedCaseError):
            default_bounds(NORMAL_HALF, 3)


class TestCatalog:
    def test_normal_names(self):
        names = [e.name for e in catalog(NORMAL_HALF, 1)]
        assert names == ["pnlee", "rmle", "hp", "pdt"]
        m = BivariateNormal(0.5, 5.0, 0.9)  # alpha > 1 adds the blend
        assert "hp_star" in [e.name for e in catalog(m, 1)]
        names2 = [e.name for e in catalog(NORMAL_HALF, 2)]
        assert names2 == ["pnlee", "rmle", "hp", "pdt", "pnlee_star", "rmle_star"]

    def test_gamma_rmle_spot_value(self):
        g = GammaScale(1.0, 1.0)
        rmle = resolve_estimator(g, 1, "rmle")
        assert rmle.evaluate(2.0, 1.0) == pytest.approx(1.5)

    def test_power_star_spot_value(self):
        p = PowerScale(1.0, 1.0)
        star = resolve_estimator(p, 1, "pnsee_star")
        assert star.evaluate(1.0, 4.0) == pytest.approx(2.0)

    def test_power_star_branches(self):
        p = PowerScale(1.0, 1.0)
        star = resolve_estimator(p, 1, "pnsee_star")
        r2 = math.sqrt(2.0)
        assert star.evaluate(1.0, 0.5) == pytest.approx(r2)          # ratio below 1
        assert star.evaluate(1.0, 1.2) == pytest.approx(r2 * 1.2)    # middle branch
        assert star.evaluate(1.0, 4.0) == pytest.approx(2.0)          # capped branch

    def test_normal_case2_all_coincide(self):
        m = BivariateNormal(1.0, 2.0, 0.5)  # tau2 = 3, alpha = 2(2-.5)/3 = 1
        assert m.alpha == pytest.approx(1.0)
        cat = {e.name: e for e in catalog(m, 1)}
        t = np.linspace(-4.0, 4.0, 51)
        for name in ("rmle", "hp", "pdt"):
            assert np.allclose(cat[name].psi(t), 0.0, atol=1e-12)

    def test_gamma_small_pooled_median_constant_star(self):
        g = GammaScale(0.5, 0.2)  # pooled median below alpha1
        assert g.pooled_median < 0.5
        star = resolve_estimator(g, 1, "ue_star")
        t = np.linspace(0.05, 10.0, 50)
        assert np.allclose(star.psi(t), 1.0 / g.pooled_median)

    def test_unknown_estimator_lists_names(self):
        with pytest.raises(UnknownEstimatorError) as exc:
            resolve_estimator(NORMAL_HALF, 1, "foo")
        assert "pnlee" in str(exc.value) and "rmle" in str(exc.value)

    def test_catalog_built_once(self):
        g = GammaScale(0.5, 0.2)
        assert resolve_estimator(g, 2, "rmle") is resolve_estimator(g, 2, "rmle")
        assert catalog(GammaScale(0.5, 0.2), 2) is catalog(g, 2)

    @pytest.mark.parametrize(
        "model",
        [
            NORMAL_HALF,
            BivariateNormal(0.5, 5.0, 0.9),   # alpha > 1
            BivariateNormal(5.0, 0.5, 0.9),   # alpha < 0
            BivariateNormal(1.0, 2.0, 0.5),   # alpha == 1
            ExponentialLocation(2.0, 3.0),
            GammaScale(0.5, 0.2),
            PowerScale(2.0, 0.5),
        ],
    )
    @pytest.mark.parametrize("component", [1, 2])
    def test_names_and_resolver_agree(self, model, component):
        names = estimator_names(model, component)
        # nu = alpha is an endpoint of every admissible family range
        nu = getattr(model, "alpha", None)
        for name in names:
            est = resolve_estimator(model, component, name, nu)
            assert est.name.partition("[")[0] == name
        for name in ("psi_nu", "psi_nu_hp", "nope"):
            if name not in names:
                with pytest.raises(UnknownEstimatorError):
                    resolve_estimator(model, component, name, nu)

    def test_missing_family_names(self):
        assert BivariateNormal(1.0, 2.0, 0.5).alpha == 1.0
        assert "psi_nu" not in estimator_names(BivariateNormal(1.0, 2.0, 0.5), 1)
        assert "psi_nu_hp" not in estimator_names(NORMAL_HALF, 1)
        assert "psi_nu_hp" in estimator_names(BivariateNormal(0.5, 5.0, 0.9), 1)

    def test_evaluate_forms(self):
        rmle = resolve_estimator(NORMAL_HALF, 1, "rmle")
        # X1 - psi(X2 - X1) exactly
        assert rmle.evaluate(1.5, 0.5) == 1.5 - float(rmle.psi(np.asarray(-1.0)))
        g = resolve_estimator(GammaScale(1.0, 1.0), 2, "rmle")
        assert g.evaluate(2.0, 4.0) == float(g.psi(np.asarray(2.0))) * 4.0


class TestBetaWeight:
    def test_grid(self):
        for a in np.linspace(0.0, 1.0, 21):
            assert beta_weight(a) == pytest.approx(a)
        for a in (-3.0, -0.4):
            assert beta_weight(a) == 0.0
        for a in (1.1, 9.0):
            assert beta_weight(a) == 1.0


class TestNuFamily:
    def test_case_one_kernel(self):
        est = normal_nu_family(NORMAL_HALF, 0.7)
        assert est.psi(np.asarray(-2.0)) == pytest.approx(0.6)
        assert est.psi(np.asarray(1.0)) == 0.0

    def test_case_one_range(self):
        normal_nu_family(NORMAL_HALF, 0.5)  # closed left endpoint nu = alpha
        with pytest.raises(DomainError):
            normal_nu_family(NORMAL_HALF, 1.0)
        with pytest.raises(DomainError):
            normal_nu_family(NORMAL_HALF, 0.4)

    def test_case_three_blend_tail(self):
        m = BivariateNormal(0.5, 5.0, 0.9)
        a = m.alpha
        est = normal_nu_family(m, a, hp_tail=True)  # closed right endpoint
        assert est.psi(np.asarray(2.0)) == pytest.approx(-(1.0 - a) * 2.0)
        with pytest.raises(DomainError):
            normal_nu_family(m, 1.0, hp_tail=True)

    def test_case_four_range(self):
        m = BivariateNormal(5.0, 0.5, 0.9)
        assert m.alpha < 0.0
        normal_nu_family(m, m.alpha)
        with pytest.raises(DomainError):
            normal_nu_family(m, 0.0)
        with pytest.raises(UnsupportedCaseError):
            normal_nu_family(m, m.alpha, hp_tail=True)

    def test_resolver_requires_nu(self):
        with pytest.raises(UnsupportedCaseError):
            resolve_estimator(NORMAL_HALF, 1, "psi_nu")
        est = resolve_estimator(NORMAL_HALF, 1, "psi_nu", nu=0.6)
        assert est.name == "psi_nu[0.6]"
        with pytest.raises(UnknownEstimatorError):
            resolve_estimator(GammaScale(1.0, 1.0), 1, "psi_nu", nu=0.6)
        assert "psi_nu" in estimator_names(NORMAL_HALF, 1)


# --- property tests ---------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(x1=locations, x2=locations, c=st.sampled_from([-5.0, 1.3, 100.0]))
def test_location_equivariance(x1, x2, c):
    for model in (BivariateNormal(2.0, 1.0, 0.3), ExponentialLocation(1.0, 2.0)):
        for component in (1, 2):
            for est in catalog(model, component):
                base = est.evaluate(x1, x2)
                moved = est.evaluate(x1 + c, x2 + c)
                assert moved == pytest.approx(base + c, rel=1e-9, abs=1e-7)


@settings(max_examples=250, deadline=None)
@given(x1=positives, x2=positives, b=st.sampled_from([0.1, 1.0, 7.0]))
def test_scale_equivariance(x1, x2, b):
    for model in (GammaScale(0.5, 0.2), GammaScale(5.0, 2.0), PowerScale(1.0, 1.0)):
        for component in (1, 2):
            for est in catalog(model, component):
                base = est.evaluate(x1, x2)
                moved = est.evaluate(b * x1, b * x2)
                assert moved == pytest.approx(b * base, rel=1e-10)


# Built once, so GammaScale(5.0, 2.0) finds its pooled median once rather
# than once per example.
CLAMP_CASES = [
    (NORMAL_HALF, 1),
    (BivariateNormal(0.5, 5.0, 0.9), 1),
    (ExponentialLocation(1.0, 2.0), 2),
    (GammaScale(5.0, 2.0), 1),
    (PowerScale(2.0, 0.5), 2),
]


@settings(max_examples=250, deadline=None)
@given(t=st.floats(-30.0, 30.0, allow_nan=False))
def test_clamp_idempotent_and_in_band(t):
    for model, component in CLAMP_CASES:
        tt = np.asarray(abs(t) + 0.01 if model.kind is ProblemKind.SCALE else t)
        bounds = default_bounds(model, component)
        for est in catalog(model, component):
            once = clamp(est, bounds)
            twice = clamp(once, bounds)
            v1, v2 = float(once.psi(tt)), float(twice.psi(tt))
            assert v1 == v2
            if model.kind is ProblemKind.LOCATION:
                lo, hi = float(bounds.lower(tt)), float(bounds.upper(tt))
            else:
                lo = 1.0 / float(bounds.upper(tt))
                u = float(bounds.lower(tt))
                hi = math.inf if u == 0.0 else 1.0 / u
            assert lo - 1e-12 <= v1 <= hi + 1e-12


@settings(max_examples=250, deadline=None)
@given(
    model=normal_configs("I"),
    x1=locations,
    x2=locations,
)
def test_case_one_coincidences(model, x1, x2):
    cat = {e.name: e for e in catalog(model, 1)}
    hp = cat["hp"].evaluate(x1, x2)
    assert hp == cat["pdt"].evaluate(x1, x2)
    assert hp == cat["rmle"].evaluate(x1, x2)


@settings(max_examples=250, deadline=None)
@given(
    model=normal_configs("III"),
    x1=locations,
    x2=locations,
)
def test_case_three_coincidences(model, x1, x2):
    cat = {e.name: e for e in catalog(model, 1)}
    assert cat["pdt"].evaluate(x1, x2) == cat["pnlee"].evaluate(x1, x2)


@settings(max_examples=250, deadline=None)
@given(
    model=normal_configs("IV"),
    x1=locations,
    x2=locations,
)
def test_case_four_coincidences(model, x1, x2):
    cat = {e.name: e for e in catalog(model, 1)}
    assert cat["hp"].evaluate(x1, x2) == cat["rmle"].evaluate(x1, x2)
