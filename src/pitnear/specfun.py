"""Self-contained special functions: regularized incomplete gamma, gamma
distribution medians, and the standard normal CDF.

Everything operates in binary64 and is pure; no external dependencies beyond
numpy for array evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "gammaln",
    "regularized_gamma_p",
    "gamma_median",
    "normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_EPS = 2.220446049250313e-16

# Iteration budget of the series, the continued fraction and the median's
# Newton steps.
_MAX_ITER = 200
# Terms per block of the series and the continued fraction: convergence is
# tested once per block; converged elements stay in the arrays.
_BLOCK = 4
# Largest shape the public functions accept. Just below _series_split the
# series needs about 8.6 sqrt(alpha) terms, more than _MAX_ITER from a shape
# near 550 up, and from 2**53 up alpha + 1 rounds to alpha, so the fraction
# divides by zero; a larger shape raises DomainError. GammaScale caps its
# shape sum here.
_MAX_SHAPE = 500.0
# Convergence tolerance of the continued fraction, relative to its value.
# Rounding leaves successive convergents a few units in the last place
# apart, so a bound of one eps is never met for some inputs.
_CF_RTOL = 4.0 * _EPS


def gammaln(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    # NaN fails the comparison too
    if not x > 0.0:
        raise DomainError(f"gammaln requires x > 0, got {x}")
    return math.lgamma(x)


def _series_split(alpha: float) -> float:
    """Where P(alpha, x) turns from the series (below) to the continued
    fraction (from here up): about where the two loops need as many terms.
    Below shape 2.5 that is near x = 3.5, where at shape 0.7 the series
    needs 28 terms and the fraction 26; the textbook split at alpha + 1
    (Numerical Recipes 6.2) left the fraction 48 terms there against the
    series' 21. From shape 2.5 up alpha + 1 is at or past the crossover.
    The fraction's side always has x >= alpha + 1.
    """
    return max(alpha + 1.0, 3.5)


def _gamma_p_series(alpha: float, x: np.ndarray, max_iter: int) -> np.ndarray:
    """Series representation, for x below _series_split(alpha).

    Every element stays in place: a converged element's term is set to 0,
    so its later terms are 0 and its total no longer changes.
    """
    out = np.zeros_like(x)
    live = x > 0.0
    if not live.any():
        return out
    xs = x[live]
    term = np.full_like(xs, 1.0 / alpha)
    total = term.copy()
    ap = alpha
    for start in range(0, max_iter, _BLOCK):
        for _ in range(min(_BLOCK, max_iter - start)):
            ap += 1.0
            term *= xs
            term /= ap
            total += term
        # no term is negative
        conv = term < total * _EPS
        if conv.all():
            break
        term[conv] = 0.0
    else:
        raise ConvergenceError(
            f"incomplete gamma series did not converge for alpha={alpha}"
        )
    out[live] = total * np.exp(-xs + alpha * np.log(xs) - gammaln(alpha))
    return out


def _gamma_q_contfrac(alpha: float, x: np.ndarray, max_iter: int) -> np.ndarray:
    """Upper-tail Q via the Legendre continued fraction, for x from
    _series_split(alpha) up.

    The fraction 1/(b0 + a1/(b1 + a2/(b2 + ...))), with b_n = x + 1 - alpha
    + 2n and a_n = -n (n - alpha), is summed by the Wallis recurrence on its
    convergents A_n / B_n, rescaled by B_n once per block. B_n never
    vanishes: for x >= alpha, induction on B_n = b_n B_{n-1} + a_n B_{n-2}
    gives B_n / B_{n-1} >= n + 1. The same induction on A_n gives A_n > 0
    for x >= 1, so every convergent is positive. Every element stays in
    place: its value is kept from the block where it first converges.
    """
    out = np.zeros_like(x)
    pre = np.exp(-x + alpha * np.log(x) - gammaln(alpha))
    # where the prefactor underflows Q is 0 whatever the fraction; skipping
    # those elements also keeps B_n finite within a block for huge x
    live = np.flatnonzero(pre > 0.0)
    if live.size == 0:
        return out
    frac = np.empty(live.size)
    done = np.zeros(live.size, dtype=bool)
    b0 = x[live] + 1.0 - alpha
    # (A_n, B_n) in p1 and (A_{n-1}, B_{n-1}) in p0, scaled so that B_n = 1
    p1 = np.stack([1.0 / b0, np.ones_like(b0)])
    p0 = np.stack([np.zeros_like(b0), p1[0]])
    twice_n = 2.0 * np.arange(1.0, max_iter + 1.0)[:, None]
    n = 0
    for start in range(0, max_iter, _BLOCK):
        for b in twice_n[start:start + _BLOCK] + b0:
            n += 1
            nxt = p1 * b
            nxt += (-n * (n - alpha)) * p0
            p0, p1 = p1, nxt
        p0 /= p1[1]
        p1 /= p1[1]
        h = p1[0]
        # the last two convergents agree: A_n / B_n against A_{n-1} / B_{n-1}
        conv = np.abs(h - p0[0] / p0[1]) <= _CF_RTOL * h
        np.copyto(frac, h, where=~done)
        done |= conv
        if done.all():
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge for alpha={alpha}"
        )
    out[live] = pre[live] * frac
    return out


def regularized_gamma_p(alpha: float, x):
    """Regularized lower incomplete gamma P(alpha, x), for 0 < alpha <= 500.

    Accepts a scalar or ndarray x; series below _series_split(alpha),
    continued fraction from there.
    """
    if not 0.0 < alpha <= _MAX_SHAPE:
        raise DomainError(f"regularized_gamma_p requires 0 < alpha <= {_MAX_SHAPE:g}, got {alpha}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # NaN fails the comparison too
    if not (arr >= 0.0).all():
        raise DomainError("regularized_gamma_p requires x >= 0")
    lo = arr < _series_split(alpha)
    hi = ~lo & (arr < np.inf)
    # P(alpha, inf) = 1
    out = np.ones_like(arr)
    if lo.any():
        out[lo] = _gamma_p_series(alpha, arr[lo], _MAX_ITER)
    if hi.any():
        out[hi] = 1.0 - _gamma_q_contfrac(alpha, arr[hi], _MAX_ITER)
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out


def gamma_median(alpha: float) -> float:
    """Median of the Gamma(alpha, 1) distribution, for 0 < alpha <= 500.

    Newton steps on P(alpha, m) = 1/2 from a closed-form start: below shape
    1, (Gamma(alpha + 1)/2)^(1/alpha), where the series' first term
    x^alpha / Gamma(alpha + 1) is 1/2; from shape 1 up, Choi's (1994)
    alpha - 1/3 + 8/(405 alpha). Each of at most _MAX_ITER steps must land
    in the Chen & Rubin (1986) bracket max(alpha - 1/3, 0) < m < alpha and
    reduce |P - 1/2|. The steps stop at 1e-13, or where the density at m
    leaves binary64 range: below shape ~9.6e-4 the median underflows. A
    last residual above 1e-12 raises ConvergenceError.
    """
    if not 0.0 < alpha <= _MAX_SHAPE:
        raise DomainError(f"gamma_median requires 0 < alpha <= {_MAX_SHAPE:g}, got {alpha}")
    lo = max(alpha - 1.0 / 3.0, 0.0)
    if alpha < 1.0:
        m = math.exp((gammaln(alpha + 1.0) - _LN2) / alpha)
    else:
        m = alpha - 1.0 / 3.0 + 8.0 / (405.0 * alpha)
    log_norm = gammaln(alpha)
    residual = regularized_gamma_p(alpha, m) - 0.5
    for _ in range(_MAX_ITER):
        if abs(residual) <= 1e-13:
            break
        try:
            # P's derivative is the density; log fails at a start that
            # underflowed to 0, exp where the density overflows
            step = m - residual / math.exp(-m + (alpha - 1.0) * math.log(m) - log_norm)
        except (ValueError, ArithmeticError):
            break
        # NaN fails the comparison too
        if not lo < step < alpha:
            break
        step_residual = regularized_gamma_p(alpha, step) - 0.5
        # at large shapes the residual stalls at P's rounding
        if not abs(step_residual) < abs(residual):
            break
        m, residual = step, step_residual
    if abs(residual) > 1e-12:
        raise ConvergenceError(
            f"gamma_median({alpha}) residual {residual:.3e} exceeds 1e-12",
            achieved=abs(residual),
        )
    return m


def normal_cdf(z):
    """Standard normal CDF via erfc; accepts a scalar or ndarray."""
    arr = np.asarray(z, dtype=float)
    args = (-arr / _SQRT2).ravel().tolist()
    erfc = np.fromiter(map(math.erfc, args), dtype=float, count=arr.size)
    return 0.5 * erfc.reshape(arr.shape)
