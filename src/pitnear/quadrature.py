"""Adaptive one-dimensional quadrature on a Gauss-Kronrod 7-15 rule, for
several integrals in lockstep.

The integrand is called with an ndarray of nodes and must return an ndarray
of the same shape, computed element by element: a node's value may not
depend on which other nodes share the call. The greedy loop relies on that
to group panels into few calls while choosing the same panels as a
one-panel-per-call loop. Figures known ahead are kept until their panel
joins the partition.

All initial panels share one call, with the children and grandchildren of
each. Bisecting a panel whose children are not yet known asks, in one call,
for what it needs: its children and grandchildren and, for each end of the
panel that is an initial cut, the chain of descendants touching that end
down to as many levels below the panel as it lies below its initial panel.
The same call carries, ahead of need, that chain on down to the depth its
error decay predicts. Near an integrable endpoint singularity s**-beta a
panel's error shrinks by one factor r = 2**-(1 - beta) per bisection
(Piessens et al. 1983), read as the panel's error over its parent's: the
chain goes on to the first level where the panel's error times r per level
falls below abs_tol, three levels more, and at most 200 levels past three
times the panel's depth. Where no decay shows, it goes to three times the
panel's depth. A descent into a cut thus mostly takes one call after its
first. Panels asked for ahead may lie where the loop never goes: if a call
raises, each integral's need is evaluated in a call of its own (unless the
call held one integral's need and nothing more), so an integral fails only
where it fails alone, and an integral sent only its need asks for nothing
ahead for the rest of its run.

Integrals in lockstep each keep their own cuts, heap, total, error, panels
known ahead and panel budget, and every round puts all their requests into
one call f(x, sizes), the nodes grouped by integral. The first failing
integral in index order raises its error, as a loop over them would.
"""

from __future__ import annotations

import heapq
import math
from math import isfinite
from itertools import chain, islice
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["adaptive_quadrature"]

# QUADPACK qk15 abscissae and weights (Piessens et al. 1983), outermost
# node first; the Gauss-7 nodes are the odd-indexed entries of _QK15_X.
_QK15_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_QK15_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_QK15_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)

# The full rule on [-1, 1] in ascending node order; odd-indexed entries are
# the embedded Gauss-7 nodes.
_XK = np.array([-x for x in _QK15_X[:-1]] + [*reversed(_QK15_X)])
_WK = np.array([*_QK15_WK[:-1], *reversed(_QK15_WK)])
_WG = np.array([*_QK15_WG[:-1], *reversed(_QK15_WG)])


def _panels(
    f: Callable[[np.ndarray], np.ndarray], bounds: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """(K15 value, |K15 - G7| error) of each panel (a, b), from one integrand
    call on all their nodes. Each panel's sums read its own 15 values only.
    """
    # fromiter over the flattened pairs: np.array on a list of tuples is slower
    ab = np.fromiter(chain.from_iterable(bounds), float, 2 * len(bounds)).reshape(-1, 2)
    half = 0.5 * (ab[:, 1] - ab[:, 0])
    mid = 0.5 * (ab[:, 0] + ab[:, 1])
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    # row sums, not y @ _WK: BLAS gemv may round a row differently by batch.
    # A panel with infinite values sums to inf or NaN without a numpy
    # warning; _check_finite raises on it.
    with np.errstate(invalid="ignore"):
        k15 = half * (y * _WK).sum(axis=1)
        g7 = half * (y[:, 1::2] * _WG).sum(axis=1)
        err = np.abs(k15 - g7)
    return list(zip(k15.tolist(), err.tolist()))


def _lookahead(lo: float, hi: float, depth: int, cuts: frozenset[float],
               levels: int) -> tuple[list, list]:
    """Bounds of descendants of the panel (lo, hi), `depth` bisections below
    its initial panel, as (need, ahead). need holds its children and
    grandchildren and, if depth >= 2, both children of each panel on the
    chain that touches an end of (lo, hi) lying in `cuts`, down to `depth`
    levels below the panel; ahead holds those chains on down to `levels`
    levels (see _chain_levels). A chain stops where a midpoint no longer
    splits its panel.
    """
    mid = 0.5 * (lo + hi)
    q1 = 0.5 * (lo + mid)
    q3 = 0.5 * (mid + hi)
    need = [(lo, mid), (mid, hi), (lo, q1), (q1, mid), (mid, q3), (q3, hi)]
    ahead = []
    for end, (a, b) in ((lo, (lo, q1)), (hi, (q3, hi))):
        if end not in cuts or depth < 2:
            continue
        for level in range(3, levels + 1):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            (need if level <= depth else ahead).extend(((a, m), (m, b)))
            a, b = (a, m) if a == end else (m, b)
    return need, ahead


# levels a chain goes on past its predicted end, and the most levels past
# 3 * depth it goes: a mispredicted chain costs at most 2 * _CHAIN_CAP panels
# more than the 3 * depth rule
_CHAIN_MARGIN = 3
_CHAIN_CAP = 200


def _chain_levels(depth: int, e: float, e_parent: float, abs_tol: float) -> int:
    """Levels below a panel `depth` bisections below its initial panel, with
    error e and parent's error e_parent, down to which its cut-end chains
    are asked for. If the error shrinks by r = e / e_parent < 1 per level,
    that is the first level L where e * r**L < abs_tol, plus _CHAIN_MARGIN,
    within [depth, 3 * depth + _CHAIN_CAP]: need covers depth levels.
    Where no decay shows (r >= 1, e = 0 or abs_tol = 0) it is 3 * depth.
    """
    floor = 3 * depth
    if not 0.0 < e < e_parent or abs_tol <= 0.0:
        return floor
    log_r = math.log(e) - math.log(e_parent)
    if log_r >= 0.0:  # e and e_parent one rounding apart
        return floor
    levels = math.floor((math.log(abs_tol) - math.log(e)) / log_r) + 1 + _CHAIN_MARGIN
    return min(max(levels, depth), floor + _CHAIN_CAP)


def adaptive_quadrature(
    f: Callable[[np.ndarray, list[int]], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    *,
    breakpoints: Sequence[Sequence[float]],
    abs_tol: float,
    max_panels: int,
) -> list[float]:
    """Integrate f over each [a[i], b[i]] in lockstep, bisecting each
    integral's worst panel until its summed error estimate meets abs_tol or
    it has max_panels panels (then ConvergenceError); returns the values.

    breakpoints[i] lists integral i's interior breakpoints, which become
    initial panel boundaries so that integrand kinks do not degrade the
    error estimates. f is called as f(x, sizes), where x holds sizes[0]
    nodes of integral 0, then sizes[1] of integral 1, and so on. A panel of
    a partition whose K15 or G7 sum is not finite raises ConvergenceError.
    The first failing integral in index order raises its error.
    """
    # NaN fails the comparison too
    if not abs_tol >= 0.0:
        raise ValueError(f"abs_tol must be >= 0, got {abs_tol}")
    if not len(a) == len(b) == len(breakpoints):
        raise ValueError("a, b and breakpoints must hold one entry per integral")
    loops = [_greedy(*args, abs_tol, max_panels)
             for args in zip(a, b, breakpoints)]
    values: list = [None] * len(loops)
    failures: dict[int, Exception] = {}
    requests: dict = {}

    def advance(i, figures):
        try:
            requests[i] = loops[i].send(figures)
        except StopIteration as stop:
            values[i] = stop.value
        except Exception as error:
            failures[i] = error

    for i in range(len(loops)):
        advance(i, None)
    while requests:
        # loops after a failed one stop: their values cannot be returned
        stop = min(failures, default=len(loops))
        live = {i: requests[i] for i in sorted(requests) if i < stop}
        requests.clear()
        for i, got in _round(f, live, len(loops)).items():
            if isinstance(got, Exception):
                failures[i] = got
            else:
                advance(i, got)
    if failures:
        raise failures[min(failures)]
    return values


def _round(f, requests: dict, n: int) -> dict:
    """For each integral's (need, ahead) request, the (value, error) list of
    need + ahead, or of need alone, or the error its need raised alone: one
    call on all panels, and if it raises, one call per integral on its need,
    unless that call held one integral's need alone, which it would repeat.
    """

    def call(parts):
        sizes = [15 * len(parts.get(i, ())) for i in range(n)]
        bounds = [p for part in parts.values() for p in part]
        figures = iter(_panels(lambda x: f(x, sizes), bounds))
        return {i: list(islice(figures, len(part))) for i, part in parts.items()}

    try:
        return call({i: need + ahead for i, (need, ahead) in requests.items()})
    except Exception as error:
        # one integral's need alone would be called again as it was
        if len(requests) == 1 and not any(ahead for _, ahead in requests.values()):
            return dict.fromkeys(requests, error)
        # an error at a needed node recurs in its integral's own call below
    out = {}
    for i, (need, _) in requests.items():
        try:
            out.update(call({i: need}))
        except Exception as error:
            out[i] = error
    return out


def _greedy(a, b, breakpoints, abs_tol, max_panels):
    """The greedy loop of one integral, as a generator. It yields (need,
    ahead): the bounds of the panels it needs now and of those it will ask
    for next. It is sent the (value, error) list of need + ahead, or of need
    alone, and returns the integral.
    """
    # NaN fails the comparison too
    if not -math.inf < a < b < math.inf:
        raise ConvergenceError(f"integration interval [{a}, {b}] is empty or not finite")
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    cut_set = frozenset(cuts)
    # max-heap on error via negated key; the last fields are the panel's
    # number of bisections below its initial panel and its parent's error
    heap = []
    total = 0.0
    err = 0.0
    bounds = list(zip(cuts[:-1], cuts[1:]))
    # each initial panel's first bisection, asked for with the panels
    ahead = [p for lo, hi in bounds for p in _lookahead(lo, hi, 0, cut_set, 0)[0]]
    figures = yield bounds, ahead
    # once sent its need alone, it asks for nothing ahead again
    fell_back = len(figures) < len(bounds) + len(ahead)
    for (lo, hi), (val, e) in zip(bounds, figures):
        total += val
        err += e
        heapq.heappush(heap, (-e, lo, hi, val, 0, math.inf))
    _check_finite(err, a, b)
    # (value, error) of panels evaluated ahead of their parent's bisection
    known = dict(zip(ahead, figures[len(bounds):]))
    n_panels = len(heap)
    pop, push = heapq.heappop, heapq.heappush
    while err > abs_tol:
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} after {n_panels} panels "
                f"(requested abs_tol={abs_tol:.3e})",
                achieved=err,
            )
        ne, lo, hi, val, depth, pe = pop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution; accept as-is
            err += ne  # ne is negative
            if not heap:
                break
            continue
        left = known.pop((lo, mid), None)
        if left is None:
            levels = depth if fell_back else _chain_levels(depth, -ne, pe, abs_tol)
            need, ahead = _lookahead(lo, hi, depth, cut_set, levels)
            figures = yield need, ahead
            fell_back = fell_back or len(figures) < len(need) + len(ahead)
            known.update(zip(need + ahead, figures))
            left = known.pop((lo, mid))
        v1, e1 = left
        v2, e2 = known.pop((mid, hi))
        total += v1 + v2 - val
        err += e1 + e2 + ne
        # inline checks: this loop runs once per bisection
        if not isfinite(err):
            _check_finite(err, lo, hi)
        if err < 0.0:
            err = 0.0
        push(heap, (-e1, lo, mid, v1, depth + 1, -ne))
        push(heap, (-e2, mid, hi, v2, depth + 1, -ne))
        n_panels += 1
    return total


def _check_finite(err: float, lo: float, hi: float) -> None:
    """Raise unless the summed error estimate is finite: a panel within
    [lo, hi] whose K15 or G7 sum is not finite has made it inf or NaN.
    """
    if not math.isfinite(err):
        raise ConvergenceError(f"non-finite quadrature sum within [{lo!r}, {hi!r}]")
