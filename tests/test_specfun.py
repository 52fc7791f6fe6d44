import math

import numpy as np
import pytest

from pitnear.errors import ConvergenceError, DomainError
from pitnear.specfun import gamma_median, gammaln, normal_cdf, regularized_gamma_p

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
        # series (x < alpha + 1) and continued-fraction arguments in one batch
        x = np.array([0.0, 1e-9, 0.3, alpha + 0.99, alpha + 1.0, 2.5, 7.0,
                      alpha + 40.0, 1e-4, np.inf, 0.95 * alpha, 120.0])
        assert_batch_independent(lambda v: regularized_gamma_p(alpha, v), x)

    def test_infinite_x_is_one(self):
        assert regularized_gamma_p(3.0, np.inf) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(-2.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(1.0, -0.1)


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

    def test_reports_residual_on_failure(self):
        with pytest.raises(ConvergenceError) as exc:
            gamma_median(5.0, max_iter=1)
        assert exc.value.achieved is not None

    def test_max_iter_validated(self):
        with pytest.raises(DomainError):
            gamma_median(5.0, max_iter=0)


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
