"""Adaptive one-dimensional quadrature on a Gauss-Kronrod 7-15 rule.

The integrand is called with an ndarray of nodes and must return an ndarray
of the same shape, computed element by element: a node's value may not
depend on which other nodes share the call. The greedy loop relies on that
to group panels into few calls while choosing the same panels as a
one-panel-per-call loop. All initial panels share one call, and bisecting a
panel whose children are not yet known evaluates both children and their
four children in one 90-node call; the grandchildren's figures ride on the
heap with the children, so bisecting a child later calls nothing.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Sequence

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
    ab = np.array(bounds, dtype=float)
    half = 0.5 * (ab[:, 1] - ab[:, 0])
    mid = 0.5 * (ab[:, 0] + ab[:, 1])
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    out = []
    for h, row in zip(half.tolist(), y):
        k15 = h * float(np.dot(_WK, row))
        g7 = h * float(np.dot(_WG, row[1::2]))
        out.append((k15, abs(k15 - g7)))
    return out


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    breakpoints: Iterable[float] = (),
    abs_tol: float = 1e-9,
    rel_tol: float = 0.0,
    max_panels: int = 2000,
) -> float:
    """Integrate f over [a, b], bisecting the worst panel until the summed
    error estimate meets abs_tol (or rel_tol relative to the running value).

    Interior breakpoints become initial panel boundaries so that integrand
    kinks do not degrade the error estimates.
    """
    if not b > a:
        raise ConvergenceError(f"empty integration interval [{a}, {b}]")
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    # max-heap on error via negated key; the last field holds the panel's
    # children as (v_lo, e_lo, v_hi, e_hi) once they are known, else None
    heap = []
    total = 0.0
    err = 0.0
    bounds = list(zip(cuts[:-1], cuts[1:]))
    for (lo, hi), (val, e) in zip(bounds, _panels(f, bounds)):
        total += val
        err += e
        heapq.heappush(heap, (-e, lo, hi, val, None))
    n_panels = len(heap)
    while err > abs_tol and err > rel_tol * abs(total):
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} after {n_panels} panels "
                f"(requested abs_tol={abs_tol:.3e})",
                achieved=err,
            )
        ne, lo, hi, val, kids = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution; accept as-is
            err += ne  # ne is negative
            if not heap:
                break
            continue
        if kids is None:
            q1 = 0.5 * (lo + mid)
            q3 = 0.5 * (mid + hi)
            (v1, e1), (v2, e2), g1, g2, g3, g4 = _panels(
                f, [(lo, mid), (mid, hi), (lo, q1), (q1, mid), (mid, q3), (q3, hi)]
            )
            kids1, kids2 = (*g1, *g2), (*g3, *g4)
        else:
            v1, e1, v2, e2 = kids
            kids1 = kids2 = None
        total += v1 + v2 - val
        err += e1 + e2 + ne
        err = max(err, 0.0)
        heapq.heappush(heap, (-e1, lo, mid, v1, kids1))
        heapq.heappush(heap, (-e2, mid, hi, v2, kids2))
        n_panels += 1
    return total
