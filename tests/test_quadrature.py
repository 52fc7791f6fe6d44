import heapq
import math

import numpy as np
import pytest

from pitnear.errors import ConvergenceError
from pitnear.quadrature import _WG, _WK, _XK, adaptive_quadrature


def test_smooth_integrand():
    val = adaptive_quadrature(np.sin, 0.0, math.pi, abs_tol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_gaussian_mass():
    def dens(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    val = adaptive_quadrature(dens, -10.0, 10.0, abs_tol=1e-11)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_kink_with_breakpoint():
    def f(x):
        return np.abs(x - 0.3)

    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    val = adaptive_quadrature(f, 0.0, 1.0, breakpoints=[0.3], abs_tol=1e-12)
    assert val == pytest.approx(exact, abs=1e-11)


def test_integrable_endpoint_singularity():
    def f(x):
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    val = adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-9, max_panels=4000)
    assert val == pytest.approx(2.0, abs=1e-7)


def test_panel_budget_error():
    def f(x):
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    with pytest.raises(ConvergenceError):
        adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-9, max_panels=3)


def test_empty_interval_rejected():
    with pytest.raises(ConvergenceError):
        adaptive_quadrature(np.sin, 1.0, 1.0)


def test_kronrod_rule_exact_monomials():
    # K15 is exact to degree 22 and its embedded G7 to degree 13
    for degree in range(23):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert float(np.dot(_WK, _XK ** degree)) == pytest.approx(exact, abs=1e-15)
        if degree <= 13:
            assert float(np.dot(_WG, _XK[1::2] ** degree)) == pytest.approx(exact, abs=1e-15)


def test_kronrod_weights_sum_to_two():
    assert _WK.sum() == pytest.approx(2.0, abs=1e-15)
    assert _WG.sum() == pytest.approx(2.0, abs=1e-15)


def _greedy_one_panel_per_call(f, a, b, abs_tol):
    """Reference greedy loop: one integrand call per 15-node panel. Returns
    the integral and the number of bisections."""

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        y = f(mid + half * _XK)
        k15 = half * float(np.dot(_WK, y))
        g7 = half * float(np.dot(_WG, y[1::2]))
        return k15, abs(k15 - g7)

    total, err = panel(a, b)
    heap = [(-err, a, b, total)]
    bisections = 0
    while err > abs_tol:
        ne, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += v1 + v2 - val
        err = max(err + e1 + e2 + ne, 0.0)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        bisections += 1
    return total, bisections


def test_grouped_calls_keep_the_greedy_partition():
    calls = []

    def f(x):
        calls.append(x.size)
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    ref, bisections = _greedy_one_panel_per_call(f, 0.0, 1.0, 1e-9)
    ref_calls = len(calls)
    calls.clear()
    val = adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-9, max_panels=1 + bisections)
    assert val == ref
    assert len(calls) <= ref_calls // 2 + 1
    # the budget counts bisections: one fewer allowed panel must fail
    with pytest.raises(ConvergenceError):
        adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-9, max_panels=bisections)
