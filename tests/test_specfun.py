import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitnear import specfun
from pitnear.errors import ConvergenceError, DomainError
from pitnear.specfun import (
    _gamma_p_series,
    _gamma_q_contfrac,
    _series_split,
    gamma_median,
    gammaln,
    normal_cdf,
    regularized_gamma_p,
)

EPS = np.finfo(float).eps
# 30-digit values of P(alpha, x) written by tests/data/make_gamma_p_reference.py
GAMMA_P_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "gamma_p_reference.json").read_text(encoding="utf-8")
)["values"]

MEDIAN_ALPHAS = [0.2, 0.5, 0.7, 1.0, 1.2, 2.0, 2.5, 5.0, 7.0, 31.0]

# root of P(2.5, x) = 1/2, frozen from bracketed bisection on the
# series/continued-fraction evaluation and cross-checked below by trapezoid
# quadrature of the integrand
GAMMA25_MEDIAN = 2.1757300955477637


def trapezoid_gamma_p(alpha, x, n=200001):
    """Independent check: trapezoid rule for the lower incomplete gamma on a
    log grid (u = ln t turns the power head into a smooth integrand), with
    the integrable piece below eps summed from the expansion of e^-t.
    """
    eps = min(1e-5, 0.1 * x)
    head = sum(
        (-1.0) ** k * eps ** (alpha + k) / (math.factorial(k) * (alpha + k))
        for k in range(8)
    )
    u = np.linspace(math.log(eps), math.log(x), n)
    tail = np.trapezoid(np.exp(alpha * u - np.exp(u)), u)
    return (head + tail) / math.exp(gammaln(alpha))


def closed_form_grid(alpha):
    """x from 1e-6 to 1e3, plus points on both sides of alpha + 1 and of the
    series / continued-fraction split."""
    offsets = np.array([-0.01, -1e-9, 0.0, 1e-9, 0.01])
    ends = np.unique([alpha + 1.0, _series_split(alpha)])
    near = (ends[:, None] + offsets).ravel()
    return np.sort(np.concatenate([np.logspace(-6.0, 3.0, 46), near]))


def integer_shape_p(n, x):
    """P(n, x) = 1 - e^-x sum_{k<n} x^k / k! for a positive integer n."""
    term = total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return 1.0 - math.exp(-x) * total


def assert_batch_independent(fn, x):
    """fn gives bit-identical elements whether x goes in one call, in two
    uneven pieces or one element at a time."""
    whole = fn(x).tobytes()
    k = len(x) // 3
    assert np.concatenate([fn(x[:k]), fn(x[k:])]).tobytes() == whole
    assert np.concatenate([fn(x[i:i + 1]) for i in range(len(x))]).tobytes() == whole


class TestRegularizedGammaP:
    def test_exponential_median(self):
        assert regularized_gamma_p(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-13)

    def test_empty_integral(self):
        assert regularized_gamma_p(1.0, 0.0) == 0.0

    def test_half_at_frozen_median(self):
        assert regularized_gamma_p(2.5, GAMMA25_MEDIAN) == pytest.approx(0.5, abs=1e-12)
        # the independent quadrature agrees at its own (coarser) accuracy
        assert trapezoid_gamma_p(2.5, GAMMA25_MEDIAN) == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 8.0])
    def test_matches_trapezoid_quadrature(self, alpha):
        for x in [0.4, 1.7, alpha + 2.5]:
            assert regularized_gamma_p(alpha, x) == pytest.approx(
                trapezoid_gamma_p(alpha, x), abs=2e-7
            )

    @pytest.mark.parametrize("alpha", [0.2, 0.9, 1.0, 3.7, 31.0])
    def test_nondecreasing_in_x(self, alpha):
        x = np.linspace(0.0, 4.0 * alpha + 10.0, 300)
        p = regularized_gamma_p(alpha, x)
        assert np.all(np.diff(p) >= 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_array_matches_scalar(self):
        x = np.array([0.1, 1.0, 3.5, 40.0])
        p = regularized_gamma_p(2.0, x)
        for xi, pi in zip(x, p):
            assert pi == regularized_gamma_p(2.0, float(xi))

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 3.7])
    def test_batch_independent(self, alpha):
        # series and continued-fraction arguments in one batch, next to
        # the split; the last point converges after 120.0, ahead of it in
        # the batch
        split = _series_split(alpha)
        x = np.array([0.0, 1e-9, 0.3, alpha + 0.99, alpha + 1.0, 2.5, 7.0, split - 0.01,
                      split, alpha + 40.0, 1e-4, np.inf, 0.95 * alpha, 120.0, alpha + 3.0])
        assert_batch_independent(lambda v: regularized_gamma_p(alpha, v), x)

    # Tolerances in units of eps, set from the largest error of the earlier
    # per-term series and modified-Lentz evaluation on the same points,
    # rounded up to at most twice it.
    # Closed forms with relative accuracy: that evaluation reached
    # 14.3 eps for P(1, x) = -expm1(-x) and 6.2 eps for P(1/2, x) = erf(sqrt x).
    @pytest.mark.parametrize(
        "alpha, closed, rtol",
        [
            (1.0, lambda x: -math.expm1(-x), 24 * EPS),
            (0.5, lambda x: math.erf(math.sqrt(x)), 12 * EPS),
        ],
        ids=["shape_1", "shape_half"],
    )
    def test_matches_closed_form(self, alpha, closed, rtol):
        x = closed_form_grid(alpha)
        want = np.array([closed(v) for v in x])
        np.testing.assert_allclose(regularized_gamma_p(alpha, x), want, rtol=rtol, atol=0.0)

    # The finite sum loses relative accuracy to cancellation where P is
    # small, so it is compared absolutely; the earlier evaluation reached
    # 1.5, 4.5 and 48.5 eps.
    @pytest.mark.parametrize("n, atol", [(2, 3 * EPS), (5, 8 * EPS), (30, 64 * EPS)])
    def test_matches_integer_shape_sum(self, n, atol):
        x = closed_form_grid(float(n))
        want = np.array([integer_shape_p(n, v) for v in x])
        np.testing.assert_allclose(regularized_gamma_p(float(n), x), want, rtol=0.0, atol=atol)

    # Relative to 30-digit values; the earlier evaluation reached 3.7, 9.7
    # and 175 eps (the last at P(31, 1e-6) = 1.2e-220).
    @pytest.mark.parametrize("shape, rtol", [("0.2", 6 * EPS), ("0.7", 16 * EPS), ("31", 256 * EPS)])
    def test_matches_high_precision_reference(self, shape, rtol):
        rows = GAMMA_P_REFERENCE[shape]
        x = np.array([float(v) for v, _ in rows])
        want = np.array([float(p) for _, p in rows])
        assert x.min() <= 1e-6 and x.max() >= 1e3
        # the points straddle the split the code uses
        split = _series_split(float(shape))
        assert (x < split).any() and (x == split).any() and (x > split).any()
        assert (x == split - 0.01).any() and (x == split + 0.01).any()
        np.testing.assert_allclose(
            regularized_gamma_p(float(shape), x), want, rtol=rtol, atol=0.0
        )

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3, 5])
    def test_exhausted_budget_raises(self, max_iter):
        # at alpha = 0.7, 1.6 and 1.8 each need more than 20 terms
        with pytest.raises(ConvergenceError, match="series"):
            _gamma_p_series(0.7, np.array([0.01, 1.6]), max_iter)
        with pytest.raises(ConvergenceError, match="continued fraction"):
            _gamma_q_contfrac(0.7, np.array([1.8, 30.0]), max_iter)

    def test_split_keeps_both_loops_short(self):
        # at alpha = 0.7 each loop converges within 30 terms on its side of
        # the split, or raises; at alpha + 1 the fraction needed 48
        split = _series_split(0.7)
        x = np.unique(np.concatenate([np.linspace(0.0, 10.0, 2001), np.logspace(1.0, 3.0, 200),
                                      [np.nextafter(split, 0.0), split]]))
        _gamma_p_series(0.7, x[x < split], 30)
        _gamma_q_contfrac(0.7, x[x >= split], 30)

    @pytest.mark.parametrize(
        "fn, x", [(_gamma_p_series, 0.01), (_gamma_q_contfrac, 30.0)], ids=["series", "contfrac"]
    )
    def test_budget_counts_terms_not_blocks(self, fn, x):
        # at alpha = 0.7 each point needs 7 terms, which is not a whole
        # number of blocks: a budget of 6 must not run on to a block's end
        assert fn(0.7, np.array([x]), 7)[0] > 0.0
        with pytest.raises(ConvergenceError):
            fn(0.7, np.array([x]), 6)

    def test_infinite_x_is_one(self):
        assert regularized_gamma_p(3.0, np.inf) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(-2.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(1.0, -0.1)

    def test_infinite_shape_raises(self):
        with pytest.raises(DomainError):
            regularized_gamma_p(np.inf, 2.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(np.inf, np.array([0.5, 2.0]))

    @pytest.mark.parametrize("alpha, x", [
        (600.0, 594.0), (1e4, 1e4), (2.0 ** 53, 2.0 ** 53), (1e300, 1e300),
    ])
    def test_shape_above_the_cap_raises(self, alpha, x):
        # uncapped, the series runs out of terms just below the split from a
        # shape near 550 up, and from 2**53 up x = alpha goes to the fraction
        # with b0 = 0, which warns of a division by zero before it fails
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="alpha <= 500"):
                regularized_gamma_p(alpha, x)


class TestGammaMedian:
    def test_exponential_case(self):
        assert gamma_median(1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", MEDIAN_ALPHAS)
    def test_residual_below_tolerance(self, alpha):
        m = gamma_median(alpha)
        assert abs(regularized_gamma_p(alpha, m) - 0.5) <= 1e-12

    @pytest.mark.parametrize("alpha", [a for a in MEDIAN_ALPHAS if a >= 1.0 / 3.0])
    def test_chen_rubin_bracket(self, alpha):
        m = gamma_median(alpha)
        assert alpha - 1.0 / 3.0 < m < alpha

    def test_small_alpha_roundtrip(self):
        m = gamma_median(0.7)
        assert regularized_gamma_p(0.7, m) == pytest.approx(0.5, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_median(-1.0)

    def test_infinite_shape_raises(self):
        with pytest.raises(DomainError):
            gamma_median(np.inf)

    def test_shape_above_the_cap_raises(self):
        # uncapped, its first residual needs P(600, m) just below the split,
        # where the series runs out of terms
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="alpha <= 500"):
                gamma_median(600.0)

    @pytest.mark.parametrize("alpha", [9.4e-4, 9.5e-4])
    def test_reports_residual_on_failure(self, alpha):
        # the medians are subnormal, near e^-738 and e^-730, where the
        # density's factor m^(alpha - 1) overflows
        with pytest.raises(ConvergenceError) as exc:
            gamma_median(alpha)
        assert exc.value.achieved is not None

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7, 0.8, 1.0, 2.0, 5.0, 7.0, 30.0, 31.0])
    def test_call_budget(self, monkeypatch, alpha):
        # the shapes of the built-in tables and the certification cells
        calls = []

        def counting(a, x):
            calls.append(x)
            return regularized_gamma_p(a, x)

        monkeypatch.setattr(specfun, "regularized_gamma_p", counting)
        gamma_median(alpha)
        assert len(calls) <= 6

    def test_geometric_grid(self):
        # above shape ~440 P's rounding floor (~2.2e-13) exceeds the 1e-13
        # target, and the steps stop once the residual no longer falls
        for alpha in np.geomspace(1e-3, 500.0, 241):
            m = gamma_median(alpha)
            assert abs(regularized_gamma_p(alpha, m) - 0.5) <= 1e-12
            if alpha >= 1.0 / 3.0:
                assert alpha - 1.0 / 3.0 < m < alpha

    def test_underflowing_median_raises(self):
        # the median of shape 1e-4 is about 2^-10000, below the subnormals
        with pytest.raises(ConvergenceError) as exc:
            gamma_median(1e-4)
        assert exc.value.achieved is not None


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_975_quantile_value(self):
        # checked against numerically integrated standard normal density
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-7)
        z = np.linspace(-12.0, 1.959964, 2_000_001)
        dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert normal_cdf(1.959964) == pytest.approx(np.trapezoid(dens, z), abs=1e-9)

    def test_reflection(self):
        for z in np.linspace(-8.0, 8.0, 161):
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) <= 1e-15

    def test_batch_independent(self):
        assert_batch_independent(normal_cdf, np.linspace(-40.0, 12.0, 53))

    def test_array_shape(self):
        z = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = normal_cdf(z)
        assert out.shape == z.shape
        assert out[0, 0] == 0.5


def test_gammaln_against_factorials():
    for n in range(1, 12):
        assert gammaln(float(n)) == pytest.approx(math.log(math.factorial(n - 1)), rel=1e-14)
    with pytest.raises(DomainError):
        gammaln(0.0)
    with pytest.raises(DomainError):
        gammaln(math.nan)
    assert gammaln(math.inf) == math.inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-3, 500.0), seed=st.integers(0, 2**32 - 1))
def test_gamma_p_batch_independent_over_shape_range(alpha, seed):
    # points a few ulps around the split, where each loop runs the most
    # blocks, shuffled among points that converge sooner or skip the
    # loops: a converged element that keeps iterating must neither change
    # nor warn, at any shape. The points halfway and twice out converge a
    # few blocks early; for some shapes a series term after convergence
    # still rounds into their sums.
    split = _series_split(alpha)
    slow = [split]
    below = above = split
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        slow += [below, above]
    mid = [0.5 * split, 2.0 * split]
    x = np.random.default_rng(seed).permutation(slow + mid + [0.0, 5e-324, 1e-3, np.inf])
    assert_batch_independent(lambda v: regularized_gamma_p(alpha, v), x)
