import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitnear.cli import TABLES
from pitnear.errors import DomainError, UnknownEstimatorError, UnsupportedCaseError
from pitnear.estimators import (
    Estimator,
    LossFn,
    beta_weight,
    catalog,
    clamp,
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

# Kernel values and pivots per kind: signed for location, positive for scale.
HALFLINE_GRID = {
    ProblemKind.LOCATION: np.array([-3.0, -1.5, -0.25, 0.0, 0.5, 1.0, 2.75, 4.0]),
    ProblemKind.SCALE: np.array([0.125, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 8.0]),
}


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

    @pytest.mark.parametrize("name, halfline", [
        ("location_abs", (2.0, True)), ("location_squared", (2.0, True)),
        ("scale_abs", (0.5, False)), ("scale_squared", (0.5, False)),
    ])
    def test_halfline_value(self, name, halfline):
        # halfline(xi=1, psi=3) as (edge, candidate wins below it)
        edge, below = LossFn.from_name(name).halfline(np.array([1.0]), np.array([3.0]))
        assert (edge[0], below[0]) == halfline

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_halfline_same_for_abs_and_squared(self, kind):
        xi, psi = np.meshgrid(HALFLINE_GRID[kind], HALFLINE_GRID[kind])
        (edge_abs, below_abs), (edge_sq, below_sq) = (
            LossFn(kind, squared).halfline(xi, psi) for squared in (False, True)
        )
        assert np.array_equal(edge_abs.view(np.uint64), edge_sq.view(np.uint64))
        assert np.array_equal(below_abs, below_sq)

    @pytest.mark.parametrize("name", list(WRITTEN_LOSSES))
    def test_halfline_is_where_the_candidate_is_nearer(self, name):
        # at the truth theta = identity the observation is the pivot z, so
        # the estimates are kind.estimate(z, xi) and kind.estimate(z, psi);
        # the grid's values are dyadic, so no z off the edge is within
        # rounding of it
        loss = LossFn.from_name(name)
        kind = loss.problem_kind
        xi, psi, z = np.meshgrid(*[HALFLINE_GRID[kind]] * 3)
        edge, below = loss.halfline(xi, psi)
        off = (xi != psi) & (z != edge)
        nearer = (loss.evaluate(kind.estimate(z, xi), kind.identity)
                  < loss.evaluate(kind.estimate(z, psi), kind.identity))
        assert np.count_nonzero(off) > 400 and 0 < np.count_nonzero(nearer[off]) < off.sum()
        assert np.array_equal(((z < edge) == below)[off], nearer[off])


class TestClampLocation:
    def test_case_one_anchor(self):
        # clamping the zero kernel reproduces the restricted-MLE kernel
        pnlee = resolve_estimator(NORMAL_HALF, 1, "pnlee")
        star = clamp(pnlee, NORMAL_HALF)
        assert star.psi(np.array(-2.0)) == pytest.approx(1.0)
        rmle = resolve_estimator(NORMAL_HALF, 1, "rmle")
        t = np.linspace(-6.0, 6.0, 101)
        assert np.allclose(star.psi(t), rmle.psi(t), rtol=0, atol=0)

    def test_identity_on_band(self):
        rmle = resolve_estimator(NORMAL_HALF, 1, "rmle")
        star = clamp(rmle, NORMAL_HALF)
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

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DomainError):
            clamp(resolve_estimator(NORMAL_HALF, 1, "pnlee"), GammaScale(1.0, 1.0))


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
        restar = clamp(star, g)
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


def clamp_band(model, component, t):
    """The band that clamp projects a kernel of the model's component onto,
    at the contrasts t: where a kernel at -inf and one at +inf land.
    """
    kind = model.kind
    low = clamp(Estimator("low", component, kind, lambda t: np.full_like(t, -np.inf)), model)
    high = clamp(Estimator("high", component, kind, lambda t: np.full_like(t, np.inf)), model)
    return low.psi(t), high.psi(t)


BAND_MODELS = [
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
]

C_HALF = 0.5 * LN2    # the median at the identity of ExponentialLocation(1, 1)
M_HALF = 2.0 ** -0.5  # the median's factor for PowerScale(1, 1)


@pytest.mark.parametrize(
    "model, component, t, want_lo, want_hi",
    [
        (ExponentialLocation(1.0, 1.0), 1, [-2.0, -0.5, 0.0, 1.0],
         [2.0 + C_HALF, 0.5 + C_HALF, C_HALF, C_HALF], [math.inf] * 4),
        (PowerScale(1.0, 1.0), 2, [0.25, 0.5, 1.0, 2.0, 4.0],
         [1 / (M_HALF * 0.25), 1 / (M_HALF * 0.5), 1 / M_HALF, 1 / M_HALF, 1 / M_HALF],
         [math.inf] * 5),
    ],
    ids=["location", "scale"],
)
def test_clamp_band_follows_kernel_kind(model, component, t, want_lo, want_hi):
    # the median's band [l, u] for a location kernel and [1/u, 1/l] for a
    # scale kernel, bit for bit: the exponential's runs from the
    # identity-gap median to +inf, the power model's from 0 (so 1/0 = inf)
    # to the identity-gap median
    lo, hi = clamp_band(model, component, np.array(t))
    assert lo.tobytes() == np.array(want_lo).tobytes()
    assert hi.tobytes() == np.array(want_hi).tobytes()


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


class TestMedianBand:
    def test_median_read_once_per_call(self):
        calls = []

        class CountingGamma(GammaScale):
            def _median(self, component, lam, t):
                calls.append(lam)
                return super()._median(component, lam, t)

        half = Estimator("half", 2, ProblemKind.SCALE, lambda t: np.full_like(t, 0.5))
        star = clamp(half, CountingGamma(2.0, 1.5))
        assert calls == [math.inf]  # the band's far end, once, at construction
        calls.clear()
        star.psi(np.array([0.5, 2.0]))
        star.evaluate(1.0, 3.0)
        assert calls == [1.0, 1.0]

    @pytest.mark.parametrize(
        "model, kinks",
        [
            (NORMAL_HALF, ()),
            (ExponentialLocation(1.0, 2.0), (0.0,)),  # the identity gap
            (GammaScale(1.0, 1.0), ()),
            (PowerScale(1.0, 1.0), (1.0,)),           # the identity gap
        ],
    )
    def test_median_kinks_join_breakpoints(self, model, kinks):
        est = Estimator("base", 1, model.kind, lambda t: np.full_like(t, 0.5), (0.5,))
        assert model.median_kinks == kinks
        assert clamp(est, model).breakpoints == (0.5,) + kinks

    @pytest.mark.parametrize("model", BAND_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_median_kinks_are_the_bands_kinks(self, model, component):
        # the band's slope jumps at each of the model's median_kinks and
        # nowhere else, so the quadrature splits a clamped kernel at them
        h = 1e-7

        def slope_jump(t):
            jumps = []
            for left, mid, right in zip(*(clamp_band(model, component, t + d)
                                          for d in (-h, 0.0, h))):
                with np.errstate(invalid="ignore"):
                    jump = np.abs((right - mid) - (mid - left)) / h
                jumps.append(np.where(np.isfinite(mid), jump, 0.0))  # an infinite end
            return np.maximum(*jumps)

        if model.kind is ProblemKind.LOCATION:
            grid = np.linspace(-5.0, 5.0, 40)
        else:
            grid = np.exp(np.linspace(-2.0, 2.0, 40))
        # the identity is where a median that kinks does so
        grid = np.union1d(grid, (model.kind.identity,) + model.median_kinks)
        jump = slope_jump(grid)
        at_kink = np.isin(grid, model.median_kinks)
        assert np.all(jump[at_kink] > 0.5) and np.all(jump[~at_kink] < 1e-2)

    def test_normal_small_alpha_arms(self):
        t = np.array([-2.0, 0.0, 3.0])
        lo, hi = clamp_band(NORMAL_HALF, 1, t)
        assert np.allclose(lo, -0.5 * t)
        assert np.all(np.isinf(hi))

    @pytest.mark.parametrize("model", BAND_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_bounds_match_closed_forms_bit_for_bit(self, model, component):
        # a scale contrast is a ratio of nonnegative draws, so its grid is
        # t >= 0: the domain and the underflow edge 0
        if model.kind is ProblemKind.LOCATION:
            t = np.array([-1e200, -3.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 2.0, 1e200])
        else:
            t = np.array([0.0, 1e-300, 0.25, 1.0, 2.0, 1e200])
        lower, upper = closed_form_bounds(model, component)
        with np.errstate(divide="ignore"):
            lo, hi = clamp_band(model, component, t)
            want_lo, want_hi = lower(t), upper(t)
            if model.kind is ProblemKind.SCALE:
                # a scale kernel's band is [1/u, 1/l], with 1/0 = inf and 1/inf = 0
                want_lo, want_hi = 1.0 / want_hi, 1.0 / want_lo
        assert lo.tobytes() == np.asarray(want_lo).tobytes()
        assert hi.tobytes() == np.asarray(want_hi).tobytes()

    @pytest.mark.parametrize("model", BAND_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_clamp_is_the_median_envelope_mapped_end_by_end(self, model, component):
        # the reference takes the envelope [l, u] of the median first and
        # maps it to [1/u, 1/l] for scale, with 1/0 = inf; clamp maps each
        # end first and takes fmin/fmax. The grid reaches subnormal
        # contrasts, where the median underflows to 0, and below 1/DBL_MAX,
        # where the power model's lam / t overflows to inf and min(1, inf)
        # is still exact; the far end is NaN (0 * inf) when alpha is 0 or 1
        kind = model.kind
        tiny = [5e-324, 1e-320, 1e-310, 1e-300]
        t = contract_grid(kind, tiny + [-x for x in tiny] + [1e300, -1e300])
        kernels = (lambda t: np.full_like(t, -np.inf), lambda t: np.full_like(t, np.inf),
                   lambda t: t, np.cbrt)
        with np.errstate(over="ignore", invalid="ignore"):
            far = model.cond_median(component, np.inf, kind.identity)
            near = model.cond_median(component, kind.identity, t)
            lower, upper = np.fmin(near, far), np.fmax(near, far)
            if kind is ProblemKind.SCALE:
                with np.errstate(divide="ignore"):
                    lower, upper = (np.where(upper == 0.0, np.inf, 1.0 / upper),
                                    np.where(lower == 0.0, np.inf, 1.0 / lower))
            for psi in kernels:
                star = clamp(Estimator("base", component, kind, psi), model)
                want = np.maximum(lower, np.minimum(psi(t), upper))
                assert star.psi(t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", BAND_MODELS)
    @pytest.mark.parametrize("component", [1, 2])
    def test_clip_matches_the_band_formula_for_every_clamp(self, model, component):
        # every catalog clamp, and a clamp of the catalog's first kernel
        # (normal component 1 at alpha 1 has none in the catalog; its far
        # end is NaN): clip takes the far end mapped once and, where it is
        # infinite, only near's side, yet gives max(lower, min(values,
        # upper)) bit for bit, or a non-finite value where that is non-finite
        kind = model.kind
        tiny = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e300, np.inf]
        t = np.array(tiny + [-x for x in tiny] + [np.nan])
        values = [-np.inf, -1e300, -0.0, 0.0, 5e-324, 1.0, 1e300, np.inf, np.nan]
        stars = [est for est in catalog(model, component) if est.base is not None]
        stars.append(clamp(catalog(model, component)[0], model))
        with np.errstate(all="ignore"):
            far = model._median(component, np.inf, kind.identity)
            near = model._median(component, kind.identity, t)
            if kind is ProblemKind.SCALE:
                near, far = np.divide(1.0, near), np.divide(1.0, far)
            lower, upper = np.fmin(near, far), np.fmax(near, far)
            for star in stars:
                for psi in [star.base.psi(t)] + [np.full_like(t, v) for v in values]:
                    want = np.maximum(lower, np.minimum(psi, upper))
                    got = star.clip(psi, t)
                    finite = np.isfinite(want)
                    assert got[finite].tobytes() == want[finite].tobytes()
                    assert not np.isfinite(got[~finite]).any()
                assert star.psi(t).tobytes() == star.clip(star.base.psi(t), t).tobytes()

    def test_exponential_component2(self):
        m = ExponentialLocation(2.0, 3.0)
        c = m.pooled_scale * LN2
        t = np.array([-4.0, 0.0, 2.5])
        lo, hi = clamp_band(m, 2, t)
        assert np.allclose(lo, c)
        assert np.allclose(hi, np.maximum(t, 0.0) + c)

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
        t = np.array(ts)
        lo, hi = clamp_band(model, component, t)
        if model.kind is ProblemKind.SCALE:
            lo, hi = 1.0 / hi, 1.0 / lo  # the median's band; 1/inf = 0
        for lam in lams:
            m = model.cond_median(component, lam, t)
            assert np.all(lo <= m + 1e-12) and np.all(m <= hi + 1e-12)


# The models of the dominance certification, of the six tables, of the band
# tests and a few extra shapes, each once.
CONTRACT_MODELS = list(dict.fromkeys(
    [
        BivariateNormal(80.0, 30.0, 0.0),
        BivariateNormal(1.0, 80.0, 0.5),
        BivariateNormal(80.0, 1.0, 0.5),
        ExponentialLocation(30.0, 40.0),
        GammaScale(0.5, 0.2),
        GammaScale(1.0, 1.0),
        GammaScale(30.0, 1.0),
        PowerScale(1.0, 1.0),
        PowerScale(2.0, 0.5),
    ]
    + [spec.model_cls(*config) for spec in TABLES.values() for config in spec.configs]
    + BAND_MODELS
    + [GammaScale(0.05, 3.0), GammaScale(5.0, 0.1), PowerScale(0.3, 4.0), PowerScale(5.0, 0.2)]
))


def contract_grid(kind, points):
    """A dense grid of the kind's contrast domain, log-spaced (for location
    symmetrically about 0), with the points that lie in the domain added.
    """
    if kind is ProblemKind.LOCATION:
        half = np.logspace(-8.0, 6.0, 2801)
        grid = np.concatenate([-half[::-1], [0.0], half])
    else:
        grid = np.logspace(-12.0, 12.0, 4801)
    points = np.array(points, dtype=float)
    return np.union1d(grid, points[kind.in_domain(points)])


def contract_kernels(model, component):
    """The catalog's kernels, and for the normal families the member at the
    closed end of nu's range and the one at its midpoint.
    """
    kernels = list(catalog(model, component))
    for name in ("psi_nu", "psi_nu_hp"):
        if name in estimator_names(model, component):
            a = model.alpha
            for nu in (a, 0.5 * (a + (1.0 if a >= 0.0 else 0.0))):
                kernels.append(resolve_estimator(model, component, name, nu))
    return kernels


class TestKernelContract:
    def test_every_kernel_is_monotone_between_its_breakpoints(self):
        failures = []
        for model in CONTRACT_MODELS:
            for component in (1, 2):
                for est in contract_kernels(model, component):
                    t = contract_grid(model.kind, est.breakpoints)
                    psi = est.psi(t)
                    edges = [0, *np.flatnonzero(np.isin(t, est.breakpoints)), len(t) - 1]
                    for a, b in zip(edges[:-1], edges[1:]):
                        step = np.diff(psi[a:b + 1])
                        if not (np.all(step >= 0.0) or np.all(step <= 0.0)):
                            failures.append(
                                f"{model} c{component} {est.name} on [{t[a]:g}, {t[b]:g}]"
                            )
        assert not failures, failures

    def test_every_switch_of_a_clamp_is_listed(self):
        # where a clamped kernel passes between its base kernel, the lower
        # and the upper end of its band, the grid cell must hold a listed
        # breakpoint; points where nothing switches are allowed
        failures = []
        for model in CONTRACT_MODELS:
            for component in (1, 2):
                named = {est.name: est for est in catalog(model, component)}
                for name, star in named.items():
                    if not name.endswith("_star"):
                        continue
                    t = contract_grid(model.kind, star.breakpoints)
                    lo, hi = clamp_band(model, component, t)
                    psi = named[name.removesuffix("_star")].psi(t)
                    side = np.where(psi < lo, -1, np.where(psi > hi, 1, 0))
                    listed = np.isin(t, star.breakpoints)
                    unlisted = (side[1:] != side[:-1]) & ~(listed[1:] | listed[:-1])
                    failures += [f"{model} c{component} {name} in [{t[i]:g}, {t[i + 1]:g}]"
                                 for i in np.flatnonzero(unlisted)]
        assert not failures, failures


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
        lo, hi = map(float, clamp_band(model, component, tt))
        for est in catalog(model, component):
            once = clamp(est, model)
            twice = clamp(once, model)
            v1, v2 = float(once.psi(tt)), float(twice.psi(tt))
            assert v1 == v2
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
