import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitnear.gpn as gpn
from pitnear.errors import ConvergenceError
from pitnear.estimators import LossFn, resolve_estimator
from pitnear.gpn import ComparisonTask
from pitnear.models import ExponentialLocation, GammaScale, PowerScale
from pitnear.quadrature import _WG, _WK, _XK, _panels, adaptive_quadrature


def _one(g, a, b, *, breakpoints=(), **kw):
    """The integral of a one-argument integrand g over [a, b], run as the
    only integral of the lockstep form.
    """
    return adaptive_quadrature(lambda x, sizes: g(x), [a], [b], breakpoints=[breakpoints],
                               **kw)[0]


def test_smooth_integrand():
    val = _one(np.sin, 0.0, math.pi, abs_tol=1e-12, max_panels=2000)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_gaussian_mass():
    def dens(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    val = _one(dens, -10.0, 10.0, abs_tol=1e-11, max_panels=2000)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_kink_with_breakpoint():
    def f(x):
        return np.abs(x - 0.3)

    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    val = _one(f, 0.0, 1.0, breakpoints=[0.3], abs_tol=1e-12, max_panels=2000)
    assert val == pytest.approx(exact, abs=1e-11)


def test_integrable_endpoint_singularity():
    def f(x):
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    val = _one(f, 0.0, 1.0, abs_tol=1e-9, max_panels=4000)
    assert val == pytest.approx(2.0, abs=1e-7)


def test_panel_budget_error():
    def f(x):
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    with pytest.raises(ConvergenceError):
        _one(f, 0.0, 1.0, abs_tol=1e-9, max_panels=3)


@pytest.mark.parametrize(
    "a, b", [(1.0, 1.0), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)]
)
def test_empty_interval_rejected(a, b):
    def never(x):
        raise AssertionError("integrand called")

    with pytest.raises(ConvergenceError):
        _one(never, a, b, abs_tol=1e-9, max_panels=2000)


@pytest.mark.parametrize("abs_tol", [math.nan, -1e-9, -math.inf])
def test_invalid_tolerance_rejected(abs_tol):
    # a NaN tolerance stops no loop test, so the sum of the initial panels
    # came back as the integral; a negative one ran to the panel budget
    def never(x, sizes):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="abs_tol"):
        adaptive_quadrature(never, [0.0, 1.0], [1.0, 2.0], breakpoints=[[], []],
                            abs_tol=abs_tol, max_panels=2000)


def test_oracle_rejects_a_nan_tolerance():
    model = GammaScale(0.5, 0.2)
    task = ComparisonTask(
        model, model.kind.pinned_params(2.0),
        resolve_estimator(model, 1, "rmle_star"), resolve_estimator(model, 1, "rmle"),
        LossFn.from_name("scale_abs"),
    )
    with pytest.raises(ValueError, match="abs_tol"):
        gpn.gpn_oracle(task, abs_tol=math.nan)


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


def test_panel_sums_batch_independent():
    # a panel's (value, error) is the same bits alone as among 6 or 1,002
    # other panels in one call
    rng = np.random.default_rng(7)
    lo = rng.uniform(-20.0, 20.0, 1003)
    bounds = list(zip(lo.tolist(), (lo + 10.0 ** rng.uniform(-12.0, 1.0, lo.size)).tolist()))

    def f(x):
        return np.exp(0.3 * x) * np.sin(7.0 * x) + 1.0 / (1.0 + x * x)

    alone = np.array([_panels(f, [panel])[0] for panel in bounds]).tobytes()
    in_sevens = [v for i in range(0, len(bounds), 7) for v in _panels(f, bounds[i:i + 7])]
    assert np.array(in_sevens).tobytes() == alone
    assert np.array(_panels(f, bounds)).tobytes() == alone


def _greedy_one_panel_per_call(f, a, b, *, breakpoints=(), abs_tol, max_panels):
    """Reference greedy loop: one integrand call per 15-node panel, with the
    budget and float-resolution rules of adaptive_quadrature. Returns the
    integral, the smallest max_panels that it passes with, and the number of
    panels accepted at float resolution.
    """

    def panel(lo, hi):
        return _panels(f, [(lo, hi)])[0]

    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    heap = []
    total = err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, e = panel(lo, hi)
        total += val
        err += e
        heapq.heappush(heap, (-e, lo, hi, val))
    n_panels = len(heap)
    needed = accepted = 0
    while err > abs_tol:
        needed = n_panels + 1
        if n_panels >= max_panels:
            raise ConvergenceError(f"reference over its budget of {max_panels} panels")
        ne, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            accepted += 1
            err += ne
            if not heap:
                break
            continue
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += v1 + v2 - val
        err = max(err + e1 + e2 + ne, 0.0)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1
    return total, needed, accepted


# (integrand, a, b, keyword arguments): descents into a cut at the left end,
# at the right end, at an interior breakpoint from both sides, 303 levels
# deep, and down to float resolution, where the nodes of the last panels
# round onto the cut itself and a floor keeps the integrand finite
DESCENTS = {
    "x**-0.5": (lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0, {"abs_tol": 1e-9}),
    "(1-x)**-0.5": (
        lambda x: 1.0 / np.sqrt(np.maximum(1.0 - x, 2.0 ** -54)), 0.0, 1.0, {"abs_tol": 1e-9},
    ),
    "|x-0.3|**-0.5": (
        lambda x: 1.0 / np.sqrt(np.maximum(np.abs(x - 0.3), 2.0 ** -56)),
        0.0, 1.0, {"breakpoints": [0.3], "abs_tol": 1e-9},
    ),
    "x**-0.9": (lambda x: np.maximum(x, 1e-300) ** -0.9, 0.0, 1.0, {"abs_tol": 1e-9}),
    "x**-0.9 to float resolution": (
        lambda x: np.maximum(x - 1.0, 2.0 ** -53) ** -0.9, 1.0, 1.0 + 2.0 ** -46,
        {"abs_tol": 0.0},
    ),
}


@pytest.mark.parametrize("name", list(DESCENTS))
def test_grouped_calls_keep_the_greedy_partition(name):
    g, a, b, kw = DESCENTS[name]
    calls = []

    def f(x):
        calls.append(x.size)
        return g(x)

    ref, needed, accepted = _greedy_one_panel_per_call(f, a, b, max_panels=10 ** 6, **kw)
    ref_calls = len(calls)
    calls.clear()
    val = _one(f, a, b, max_panels=needed, **kw)
    n_calls = len(calls)
    assert val == ref
    assert n_calls <= ref_calls // 2 + 1
    assert (accepted > 0) == name.endswith("float resolution")
    # the budget counts panels: one fewer allowed panel must fail
    with pytest.raises(ConvergenceError):
        _one(f, a, b, max_panels=needed - 1, **kw)
    assert n_calls <= DESCENT_CALLS[name]


# integrand calls of each descent: after its first request, the error decay
# predicts how deep the chain must go (4, 4, 7 and 5 calls with the chain
# asked for to three times the panel's depth); abs_tol = 0 shows no decay,
# so the descent to float resolution keeps that rule
DESCENT_CALLS = {
    "x**-0.5": 2,
    "(1-x)**-0.5": 2,
    "|x-0.3|**-0.5": 3,
    "x**-0.9": 3,
    "x**-0.9 to float resolution": 21,
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    beta=st.floats(0.05, 0.95),
    cut=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 0.99)),
    log_tol=st.floats(-12.0, -6.0),
)
def test_predicted_descents_keep_the_greedy_partition(beta, cut, log_tol):
    # a descent into |x|**-beta over [-cut, 1 - cut], whose error decay the
    # request rule reads to ask ahead, bisects the panels a
    # one-panel-per-call loop bisects, at any exponent, cut position and
    # tolerance. The singularity sits at 0, where floats reach 1e-300.
    def g(x):
        return np.maximum(np.abs(x), 1e-300) ** -beta

    kw = {"breakpoints": [0.0], "abs_tol": 10.0 ** log_tol}
    ref, needed, _ = _greedy_one_panel_per_call(g, -cut, 1.0 - cut, max_panels=10 ** 4, **kw)
    assert _one(g, -cut, 1.0 - cut, max_panels=needed, **kw) == ref


def _stacked(integrands, calls):
    """One lockstep integrand f(x, sizes) from one-argument integrands, each
    evaluated on its own integral's slice of the nodes; records each call's
    sizes.
    """

    def f(x, sizes):
        calls.append(list(sizes))
        parts = np.split(x, np.cumsum(sizes)[:-1])
        return np.concatenate([g(part) for g, part in zip(integrands, parts)])

    return f


# each runs at abs_tol = 1e-9, the one tolerance of a lockstep run
LOCKSTEP = {**DESCENTS, "sin": (np.sin, 0.0, math.pi, {})}


def _solo(name):
    """Value and integrand call count of one LOCKSTEP integral alone."""
    g, a, b, kw = LOCKSTEP[name]
    calls = []
    val = _one(
        lambda x: calls.append(x.size) or g(x), a, b,
        breakpoints=kw.get("breakpoints", ()), abs_tol=1e-9, max_panels=10 ** 4,
    )
    return val, len(calls)


def _run_lockstep(names, calls):
    items = [LOCKSTEP[name] for name in names]
    return adaptive_quadrature(
        _stacked([g for g, *_ in items], calls),
        [a for _, a, _, _ in items],
        [b for _, _, b, _ in items],
        breakpoints=[kw.get("breakpoints", ()) for *_, kw in items],
        abs_tol=1e-9,
        max_panels=10 ** 4,
    )


def test_lockstep_integrals_keep_their_solo_values():
    # each integral keeps its own partition, so its value is the same bits
    # as alone; a round serves every live integral's request, so the calls
    # number the most any one integral makes alone
    names = list(LOCKSTEP)
    solo = [_solo(name) for name in names]
    calls = []
    values = _run_lockstep(names, calls)
    assert values == [val for val, _ in solo]
    assert len(calls) == max(n for _, n in solo) < sum(n for _, n in solo)
    assert all(len(sizes) == len(names) for sizes in calls)


def test_lockstep_copies_take_the_solo_calls():
    val, n_calls = _solo("x**-0.9")
    calls = []
    assert _run_lockstep(["x**-0.9", "x**-0.9"], calls) == [val, val]
    assert len(calls) == n_calls
    assert all(a == b > 0 for a, b in calls)


def test_lockstep_rejects_mismatched_lengths():
    kw = {"abs_tol": 1e-9, "max_panels": 2000}
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x, sizes: x, [0.0, 1.0], [1.0], breakpoints=[[], []], **kw)
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x, sizes: x, [0.0, 1.0], [1.0, 2.0], breakpoints=[[0.5]],
                            **kw)


# integrands that raise only at nodes the one-panel-per-call loop never
# evaluates: the centre of a grandchild of the initial panel [0.5, 1], which
# is never bisected, and nodes below 1e-22, deeper than the descent into 0
# goes at abs_tol = 3e-11 but not deeper than the chain asked for ahead of
# it, which ends three levels past the predicted end of the descent. After
# the fall-back the loop asks for nothing ahead, and the needs of its later
# requests stay above 1e-22
def _raises_at_grandchild(x):
    if np.any(x == 0.5625):
        raise ValueError("a grandchild's node")
    return np.where(x < 0.5, np.sqrt(x), x * x)


def _raises_below_1e_22(x):
    if np.any((x > 0.0) & (x < 1e-22)):
        raise ValueError("a node below the descent")
    return 1.0 / np.sqrt(np.maximum(x, 1e-300))


@pytest.mark.parametrize("g, kw", [
    (_raises_at_grandchild, {"breakpoints": [0.5], "abs_tol": 1e-9}),
    (_raises_below_1e_22, {"abs_tol": 3e-11}),
])
def test_panels_asked_for_ahead_fall_back_when_they_raise(g, kw):
    ref, needed, _ = _greedy_one_panel_per_call(g, 0.0, 1.0, max_panels=10 ** 6, **kw)
    raised = []

    def f(x):
        try:
            return g(x)
        except ValueError:
            raised.append(x.size)
            raise

    assert _one(f, 0.0, 1.0, max_panels=needed, **kw) == ref
    assert len(raised) == 1
    # the same in lockstep beside an integral that never raises
    abs_tol = kw["abs_tol"]
    sin_val = _one(np.sin, 0.0, math.pi, abs_tol=abs_tol, max_panels=2000)
    values = adaptive_quadrature(
        _stacked([np.sin, f], []), [0.0, 0.0], [math.pi, 1.0],
        breakpoints=[[], kw.get("breakpoints", [])], abs_tol=abs_tol, max_panels=needed,
    )
    assert values == [sin_val, ref]
    assert len(raised) == 2


def test_a_fall_back_stops_the_chains_asked_for_ahead():
    # x**-0.5 raising below 1e-15, where the descent at abs_tol = 1e-9 goes
    # (its one-panel-per-call loop evaluates nodes down to 4.7e-19): the
    # call holding the first chain raises and the need alone does not;
    # later requests ask for their need only, and the first need that
    # reaches below 1e-15 raises once: a call that held one need and
    # nothing ahead is not repeated
    raised = []

    def f(x):
        if np.any((x > 0.0) & (x < 1e-15)):
            raised.append(x.size)
            raise ValueError("a node below 1e-15")
        return 1.0 / np.sqrt(np.maximum(x, 1e-300))

    with pytest.raises(ValueError, match="below 1e-15"):
        _greedy_one_panel_per_call(f, 0.0, 1.0, abs_tol=1e-9, max_panels=10 ** 6)
    raised.clear()
    with pytest.raises(ValueError, match="below 1e-15"):
        _one(f, 0.0, 1.0, abs_tol=1e-9, max_panels=10 ** 6)
    assert raised == [1650, 990]


def _fails_on(bad0, bad1):
    """A two-integral lockstep integrand: integral 0 is inf above 0.7 when
    bad0, integral 1 raises ValueError at any node when bad1. Integral 1 is
    checked first, so a call holding both parts raises integral 1's error.
    """

    def f(x, sizes):
        x0, x1 = np.split(x, [sizes[0]])
        if bad1 and x1.size:
            raise ValueError("integral 1")
        y0 = np.where(x0 > 0.7, np.inf, 1.0) if bad0 else np.sin(x0)
        return np.concatenate([y0, np.cos(x1)])

    return f


@pytest.mark.parametrize("bad0, bad1, error, match", [
    (True, True, ConvergenceError, "non-finite"),
    (True, False, ConvergenceError, "non-finite"),
    (False, True, ValueError, "integral 1"),
])
def test_lockstep_raises_the_first_failing_integral(bad0, bad1, error, match):
    f = _fails_on(bad0, bad1)
    raised = []

    def g(x, sizes):
        try:
            return f(x, sizes)
        except ValueError:
            raised.append(sizes)
            raise

    with pytest.raises(error, match=match):
        adaptive_quadrature(g, [0.0, 0.0], [1.0, 1.0], breakpoints=[[], []], abs_tol=1e-9,
                            max_panels=2000)
    # where integral 1's need raises, the call on every panel fails, then
    # the call on integral 1's need alone, and no other
    parts = [[n > 0 for n in sizes] for sizes in raised]
    assert parts == ([[True, True], [False, True]] if bad1 else [])


def test_a_fall_back_stops_at_the_first_need_that_raises():
    # integral 1 raises wherever it has nodes: once the call on every panel
    # fails, integral 0's need is called alone, then integral 1's, which
    # raises; integral 2's is not called, as its loop stops at that failure,
    # and integral 0 runs on alone
    calls = []

    def f(x, sizes):
        calls.append([n > 0 for n in sizes])
        if sizes[1]:
            raise ValueError("integral 1")
        return np.sin(x)

    with pytest.raises(ValueError, match="integral 1"):
        adaptive_quadrature(f, [0.0] * 3, [1.0] * 3, breakpoints=[[], [], []], abs_tol=1e-9,
                            max_panels=2000)
    assert calls[:3] == [[True, True, True], [True, False, False], [False, True, False]]
    assert all(parts == [True, False, False] for parts in calls[3:])


# integrands not finite above 0.7; the last has inf and -inf in one panel,
# whose sums are then NaN
NON_FINITE = {
    "nan": lambda x: np.where(x > 0.7, np.nan, 1.0),
    "inf": lambda x: np.where(x > 0.7, np.inf, 1.0),
    "-inf": lambda x: np.where(x > 0.7, -np.inf, 1.0),
    "inf and -inf": lambda x: np.where(x > 0.7, np.inf, np.where(x < 0.3, -np.inf, 1.0)),
}


@pytest.mark.parametrize("name", list(NON_FINITE))
def test_non_finite_panel_raises(name):
    # a value that is not finite at a node makes that panel's K15 and G7
    # sums non-finite: no number is returned for the integral, and numpy
    # does not warn first
    f = NON_FINITE[name]
    with pytest.raises(ConvergenceError, match="non-finite"):
        _one(f, 0.0, 1.0, abs_tol=1e-9, max_panels=2000)
    with pytest.raises(ConvergenceError, match="non-finite"):
        _one(f, 0.0, 1.0, breakpoints=[0.5], abs_tol=1e-9, max_panels=2000)


def test_non_finite_panel_found_while_refining_raises():
    # the initial panel's nodes miss the bad point; a later panel's do not
    def f(x):
        return np.where(x == 0.5, np.nan, np.sin(20.0 * x))

    with pytest.raises(ConvergenceError, match="non-finite"):
        _one(f, 0.0, 2.0, abs_tol=1e-12, max_panels=2000)


def _oracle_cases():
    for model, component, cand, ref in [
        (GammaScale(0.5, 0.2), 1, "rmle_star", "rmle"),
        (GammaScale(0.5, 0.2), 2, "rmle_star", "rmle"),
        (PowerScale(2.0, 0.5), 1, "pnsee_star", "pnsee"),
        (PowerScale(2.0, 0.5), 2, "pnsee_star", "pnsee"),
    ]:
        for gap in (1.25, 2.0, 10.0, 100.0):
            yield ComparisonTask(
                model,
                model.kind.pinned_params(gap),
                resolve_estimator(model, component, cand),
                resolve_estimator(model, component, ref),
                LossFn.from_name("scale_abs"),
            )
    # the first request of this cell's second segment reads a slow decay
    # (0.97 per level, before the densities are resolved) and asks for its
    # chain to the cap, down to s = 1.9e-62, where its descent stops near
    # 1e-2; _fails_below_1e_50 makes that chain's call raise
    model = ExponentialLocation(30.0, 40.0)
    yield ComparisonTask(
        model, model.kind.pinned_params(0.0),
        resolve_estimator(model, 2, "rmle_star"), resolve_estimator(model, 2, "rmle"),
        LossFn.from_name("location_abs"),
    )


ORACLE_CASES = list(_oracle_cases())


def _fails_below_1e_50(f):
    """The oracle's integrand f(x, sizes), raising at nodes in (0, 1e-50):
    no other case's descent goes that deep, and no one-panel-per-call loop.
    """

    def g(x, sizes):
        if np.any((x > 0.0) & (x < 1e-50)):
            raise ValueError("a node below 1e-50")
        return f(x, sizes)

    return g


def test_oracle_keeps_the_greedy_partition(monkeypatch):
    # the oracle's integrals, endpoint descents and a fall-back included,
    # bisect the panels a one-panel-per-call loop bisects, so every value is
    # the same bits
    raised = []
    quadrature = gpn.adaptive_quadrature

    def recording(f, a, b, **kw):
        f = _fails_below_1e_50(f)

        def g(x, sizes):
            try:
                return f(x, sizes)
            except Exception:
                raised.append(x.size)
                raise

        return quadrature(g, a, b, **kw)

    monkeypatch.setattr(gpn, "adaptive_quadrature", recording)
    values = [gpn.gpn_oracle(task) for task in ORACLE_CASES]
    assert len(raised) == 1
    assert values[-1] == 0.8619728189362126

    def one_by_one(f, a, b, *, breakpoints, **kw):
        # each integral alone, its nodes passed as the lockstep call's part
        f = _fails_below_1e_50(f)

        def part(i):
            return lambda x: f(x, [x.size if j == i else 0 for j in range(len(a))])

        return [_greedy_one_panel_per_call(part(i), lo, hi, breakpoints=cuts, **kw)[0]
                for i, (lo, hi, cuts) in enumerate(zip(a, b, breakpoints))]

    monkeypatch.setattr(gpn, "adaptive_quadrature", one_by_one)
    assert [gpn.gpn_oracle(task) for task in ORACLE_CASES] == values


def test_oracle_descent_takes_few_calls(monkeypatch):
    # gamma (0.5, 0.2) c2 at gap 2 descends into s -> 0 on both of its
    # segments, in lockstep: 2 integrand calls, 4 with the chain asked for
    # to three times its panel's depth, 9 with the segments one after the
    # other as well, 57 with a call per two levels of the descent
    calls = []
    quadrature = gpn.adaptive_quadrature

    def counting(f, a, b, **kw):
        def g(x, sizes):
            calls.append(x.size)
            return f(x, sizes)

        return quadrature(g, a, b, **kw)

    model = GammaScale(0.5, 0.2)
    task = ComparisonTask(
        model, model.kind.pinned_params(2.0),
        resolve_estimator(model, 2, "rmle_star"), resolve_estimator(model, 2, "rmle"),
        LossFn.from_name("scale_abs"),
    )
    monkeypatch.setattr(gpn, "adaptive_quadrature", counting)
    gpn.gpn_oracle(task)
    assert len(calls) <= 2
