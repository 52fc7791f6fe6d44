"""Adaptive one-dimensional quadrature on a Gauss-Kronrod 7-15 rule, for one
integral or several in lockstep.

The integrand is called with an ndarray of nodes and must return an ndarray
of the same shape, computed element by element: a node's value may not
depend on which other nodes share the call. The greedy loop relies on that
to group panels into few calls while choosing the same panels as a
one-panel-per-call loop. All initial panels share one call. Bisecting a
panel whose children are not yet known evaluates, in one call, both
children and their four children, and, for each end of the panel that is an
initial cut, the chain of descendants touching that end down to as many
levels below the panel as it lies below its initial panel. Figures known
ahead are kept until their panel joins the partition.

A call also carries the panels the loop will ask for next: with the
initial panels, the request of each one's first bisection; with a chain
down to twice its panel's depth, the request of its last panel's
bisection, the chain on down to four times that depth. So a descent into an
endpoint singularity makes one call per quadrupling of its depth. These
speculative nodes may lie where the loop never goes: a call that raises is
repeated without them, and if it raises again each integral's part is
evaluated alone, so an integral fails only where it fails alone.

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
from typing import Callable, Iterable, Sequence, Union

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


def _lookahead(
    lo: float, hi: float, depth: int, cuts: frozenset[float]
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Bounds of the descendants of the panel (lo, hi), `depth` bisections
    below its initial panel, that one call evaluates: its children and
    grandchildren, and below them, down to `depth` levels below the panel,
    both children of each panel on the chain that touches an end of
    (lo, hi) lying in `cuts`. A chain stops where a midpoint no longer
    splits its panel. Also returns the last panel of each chain that
    reaches that depth, whose children are not evaluated.
    """
    mid = 0.5 * (lo + hi)
    q1 = 0.5 * (lo + mid)
    q3 = 0.5 * (mid + hi)
    out = [(lo, mid), (mid, hi), (lo, q1), (q1, mid), (mid, q3), (q3, hi)]
    ends = []
    for end, (a, b) in ((lo, (lo, q1)), (hi, (q3, hi))):
        if end not in cuts or depth < 2:
            continue
        for _ in range(depth - 2):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            out += [(a, m), (m, b)]
            a, b = (a, m) if a == end else (m, b)
        else:
            ends.append((a, b))
    return out, ends


def adaptive_quadrature(
    f: Callable[..., np.ndarray],
    a: Union[float, Sequence[float]],
    b: Union[float, Sequence[float]],
    *,
    breakpoints: Iterable = (),
    abs_tol: float = 1e-9,
    rel_tol: float = 0.0,
    max_panels: int = 2000,
) -> Union[float, list[float]]:
    """Integrate f over [a, b], bisecting the worst panel until the summed
    error estimate meets abs_tol (or rel_tol relative to the running value).

    Interior breakpoints become initial panel boundaries so that integrand
    kinks do not degrade the error estimates. A panel of the partition whose
    K15 or G7 sum is not finite raises ConvergenceError.

    With equal-length sequences a, b and breakpoints, one breakpoint list
    per integral, the integrals run in lockstep and their values are
    returned as a list: f is called as f(x, sizes), where x holds sizes[0]
    nodes of integral 0, then sizes[1] of integral 1, and so on. The first
    failing integral in index order raises its error.
    """
    if np.ndim(a) == 0:
        return _lockstep(lambda x, sizes: f(x), [a], [b], [breakpoints],
                         abs_tol, rel_tol, max_panels)[0]
    breakpoints = list(breakpoints)
    if not len(a) == len(b) == len(breakpoints):
        raise ValueError("a, b and breakpoints must hold one entry per integral")
    return _lockstep(f, a, b, breakpoints, abs_tol, rel_tol, max_panels)


def _lockstep(f, a, b, breakpoints, abs_tol, rel_tol, max_panels) -> list[float]:
    """Drive one _greedy loop per integral, one _round per round."""
    loops = [_greedy(*args, abs_tol, rel_tol, max_panels)
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
    need + ahead, or of need alone, or the error its part raised alone: one
    call on all panels; if it raises, one without the speculative panels; if
    that raises too, one call per integral.
    """

    def call(parts):
        sizes = [0] * n
        for i, part in parts.items():
            sizes[i] = 15 * len(part)
        bounds = [p for part in parts.values() for p in part]
        figures = iter(_panels(lambda x: f(x, sizes), bounds))
        return {i: list(islice(figures, len(part))) for i, part in parts.items()}

    needs = {i: need for i, (need, _) in requests.items()}
    tries = [needs]
    if any(ahead for _, ahead in requests.values()):
        tries.insert(0, {i: need + ahead for i, (need, ahead) in requests.items()})
    for parts in tries:
        try:
            return call(parts)
        except Exception:
            # whatever the integrand raised, the calls per integral below
            # raise again for the integral it belongs to
            pass
    out = {}
    for i, need in needs.items():
        try:
            out.update(call({i: need}))
        except Exception as error:
            out[i] = error
    return out


def _greedy(a, b, breakpoints, abs_tol, rel_tol, max_panels):
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
    # max-heap on error via negated key; the last field is the panel's number
    # of bisections below its initial panel
    heap = []
    total = 0.0
    err = 0.0
    bounds = list(zip(cuts[:-1], cuts[1:]))
    # each initial panel's first bisection, asked for with the panels
    ahead = [p for lo, hi in bounds for p in _lookahead(lo, hi, 0, cut_set)[0]]
    figures = yield bounds, ahead
    for (lo, hi), (val, e) in zip(bounds, figures):
        total += val
        err += e
        heapq.heappush(heap, (-e, lo, hi, val, 0))
    _check_finite(err, a, b)
    # (value, error) of panels evaluated ahead of their parent's bisection
    known = dict(zip(ahead, figures[len(bounds):]))
    n_panels = len(heap)
    pop, push = heapq.heappop, heapq.heappush
    while err > abs_tol and err > rel_tol * abs(total):
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} after {n_panels} panels "
                f"(requested abs_tol={abs_tol:.3e})",
                achieved=err,
            )
        ne, lo, hi, val, depth = pop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution; accept as-is
            err += ne  # ne is negative
            if not heap:
                break
            continue
        left = known.pop((lo, mid), None)
        if left is None:
            need, ends = _lookahead(lo, hi, depth, cut_set)
            # a descent's chain reaches twice the panel's depth; the next
            # bisection of its end asks for the chain on down to twice that
            ahead = [p for end in ends for p in _lookahead(*end, 2 * depth, cut_set)[0]]
            figures = yield need, ahead
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
        push(heap, (-e1, lo, mid, v1, depth + 1))
        push(heap, (-e2, mid, hi, v2, depth + 1))
        n_panels += 1
    return total


def _check_finite(err: float, lo: float, hi: float) -> None:
    """Raise unless the summed error estimate is finite: a panel within
    [lo, hi] whose K15 or G7 sum is not finite has made it inf or NaN.
    """
    if not math.isfinite(err):
        raise ConvergenceError(f"non-finite quadrature sum within [{lo!r}, {hi!r}]")
