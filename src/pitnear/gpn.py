"""Generalized Pitman nearness of one estimator relative to another:
P[L(cand) < L(ref)] + P[L(cand) = L(ref)] / 2.

Two evaluation routes are provided and kept independent: a seeded, paired
Monte Carlo engine, and a deterministic quadrature oracle that integrates the
closed-form half-line event probability against the contrast density. Both
serve every loss name: GPN depends on a loss only through its ordering, and
each squared loss is a strictly increasing transform of its absolute one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .estimators import Estimator, LossFn
from .models import _BLOCK, ModelSpec, RestrictedParams
from .quadrature import adaptive_quadrature

__all__ = [
    "GpnResult",
    "ComparisonTask",
    "gpn_monte_carlo",
    "gpn_oracle",
    "column_tasks",
    "run_columns",
    "derive_cell_seed",
    "LOCATION_DOMINANCE_GAPS",
    "SCALE_DOMINANCE_GAPS",
]

# Relative tolerance for calling two loss values a tie. Algebraically equal
# piecewise branches produce bit-identical arithmetic in practice; the
# tolerance guards against association-order differences.
TIE_EPS = 1e-12

# Gap grids on which clamp dominance is certified numerically. The theorems
# hold for every gap; these grids are the finite stand-in, with the two
# outlying points probing the large-gap regime.
LOCATION_DOMINANCE_GAPS: tuple[float, ...] = tuple(
    round(0.25 * k, 2) for k in range(21)
) + (10.0, 100.0)
SCALE_DOMINANCE_GAPS: tuple[float, ...] = tuple(
    round(1.0 + 0.25 * k, 2) for k in range(17)
) + (10.0, 100.0)


@dataclass(frozen=True)
class GpnResult:
    """A Monte Carlo GPN estimate with its win/tie decomposition."""

    estimate: float
    win_fraction: float
    tie_fraction: float
    n_samples: int
    std_error: float
    seed: int

    @classmethod
    def from_counts(cls, wins: int, ties: int, n: int, seed: int) -> "GpnResult":
        # single division keeps complementary results summing to exactly 1
        estimate = (2 * wins + ties) / (2 * n)
        return cls(
            estimate=estimate,
            win_fraction=wins / n,
            tie_fraction=ties / n,
            n_samples=n,
            std_error=math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n),
            seed=seed,
        )


@dataclass(frozen=True)
class ComparisonTask:
    """One GPN cell: a candidate/reference pair on one model at one
    parameter point.
    """

    model: ModelSpec
    params: RestrictedParams
    candidate: Estimator
    reference: Estimator
    loss: LossFn
    n_samples: int = 10000
    seed: int = 42

    def validate(self) -> None:
        if self.candidate.target != self.reference.target:
            raise DomainError(
                f"estimators target different components: "
                f"{self.candidate.target} vs {self.reference.target}"
            )
        kind = self.model.kind
        if self.candidate.kind is not kind or self.reference.kind is not kind:
            raise DomainError("estimator kind does not match the model kind")
        if self.loss.problem_kind is not kind:
            raise DomainError("loss kind does not match the model kind")
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        kind.check_params(self.params)


def gpn_monte_carlo(task: ComparisonTask) -> GpnResult:
    """Estimate GPN by paired sampling: both estimators are evaluated on the
    same draws, which makes the win/loss/tie partition shared and slashes
    variance. Deterministic for a fixed seed.

    The draws are compared block by block. Every step is element-wise with
    exactly rounded IEEE operations, so the counts do not depend on the
    block size, while the temporaries stay small.

    A draw whose loss difference is not finite is neither a win, a tie nor
    a loss, and a draw whose contrast lies outside its kind's domain (an
    underflowed scale draw, say) says nothing about the model; any such
    draw fails the cell with a DomainError. The loop counts every such
    draw, so the numpy warnings they raise on the way are not shown.
    """
    task.validate()
    kind = task.model.kind
    rng = np.random.default_rng(task.seed)
    x1, x2 = task.model.sample(task.params, rng, size=task.n_samples)
    theta = task.params.component(task.candidate.target)
    wins = ties = valid = 0
    with np.errstate(all="ignore"):
        for i in range(0, task.n_samples, _BLOCK):
            b1, b2 = x1[i:i + _BLOCK], x2[i:i + _BLOCK]
            loss_cand = task.loss.evaluate(task.candidate.evaluate(b1, b2), theta)
            loss_ref = task.loss.evaluate(task.reference.evaluate(b1, b2), theta)
            tol = np.maximum(loss_cand, loss_ref)
            np.maximum(tol, 1.0, out=tol)
            tol *= TIE_EPS
            diff = loss_cand - loss_ref
            ok = kind.in_domain(kind.contrast(b2, b1))
            ok &= np.isfinite(diff)
            valid += int(np.count_nonzero(ok))
            wins += int(np.count_nonzero(diff < -tol))
            ties += int(np.count_nonzero(np.abs(diff, out=diff) <= tol))
    if valid < task.n_samples:
        raise DomainError(
            f"{task.n_samples - valid} of {task.n_samples} draws give a non-finite "
            f"loss difference or a contrast outside its domain for "
            f"{task.candidate.name} vs {task.reference.name}"
        )
    return GpnResult.from_counts(wins, ties, task.n_samples, task.seed)


def gpn_oracle(task: ComparisonTask, abs_tol: float = 1e-8) -> float:
    """Deterministic GPN: the half-line event probability integrated against
    the contrast density by adaptive quadrature, with kernel breakpoints
    inserted as panel boundaries. The value is exact for every loss name,
    since squared and absolute losses order estimates alike.
    """
    task.validate()
    if task.candidate == task.reference:
        return 0.5
    model = task.model
    component = task.candidate.target
    lam = task.params.gap(model.kind)
    cuts = sorted({*task.candidate.breakpoints, *task.reference.breakpoints})
    # Integrating g - 1/2 makes every region where the kernels coincide
    # contribute exactly zero, so heavy contrast tails cost nothing once the
    # clamp deactivates there.
    shift = 0.0
    segments = model.d_quadrature_segments(lam)
    for seg in segments:

        def integrand(s, _seg=seg):
            t = _seg.to_t(s)
            weight = model.d_density(lam, t) * _seg.jacobian(s)
            xi = task.candidate.psi(t)
            ps = task.reference.psi(t)
            # P[candidate beats reference | D = t]: the pivot's half-line event
            edge, below = model.kind.halfline(xi, ps)
            cdf = model.cond_cdf(component, lam, t, edge)
            g = np.where(xi == ps, 0.5, np.where(below, cdf, 1.0 - cdf))
            return (g - 0.5) * weight

        # adaptive_quadrature keeps only the cuts strictly inside the
        # segment, which drops a non-finite one too
        seg_cuts = []
        for bp in cuts:
            try:
                seg_cuts.append(seg.from_t(bp))
            except (ZeroDivisionError, ValueError):
                continue
        shift += adaptive_quadrature(
            integrand,
            seg.lo,
            seg.hi,
            breakpoints=seg_cuts,
            abs_tol=abs_tol / len(segments),
            max_panels=4000,
        )
    return min(max(0.5 + shift, 0.0), 1.0)


def derive_cell_seed(base_seed: int, pair_index: int, gap_index: int) -> int:
    """Deterministic 64-bit per-cell seed from the base seed and the cell's
    (pair, gap) indices; distinct cells get independent streams.
    """
    ss = np.random.SeedSequence([base_seed % 2 ** 64, pair_index, gap_index])
    return int(ss.generate_state(1, np.uint64)[0])


def column_tasks(
    model: ModelSpec,
    candidate: Estimator,
    reference: Estimator,
    gaps: Sequence[float],
    loss: LossFn,
    n_samples: int,
    base_seed: int,
    pair_index: int,
) -> tuple[ComparisonTask, ...]:
    """One column: the cells of one pair over the gaps in order, each on the
    seed derived from the base seed and its (pair, gap) indices. A gap
    outside the model's domain raises here, before any cell runs.
    """
    return tuple(
        ComparisonTask(
            model=model,
            params=model.kind.pinned_params(gap),
            candidate=candidate,
            reference=reference,
            loss=loss,
            n_samples=n_samples,
            seed=derive_cell_seed(base_seed, pair_index, j),
        )
        for j, gap in enumerate(gaps)
    )


def run_columns(
    columns: Sequence[Sequence[ComparisonTask]], oracle: bool = False
) -> list[list[tuple[GpnResult, Optional[float]]]]:
    """Monte Carlo GPN of every cell, with its oracle value when asked: one
    list per column, in cell order.

    The Monte Carlo cells of all columns run on one pool of one thread per
    usable CPU (numpy releases the GIL while it draws and computes), and
    each cell owns its generator, so the results do not depend on the
    thread count. The calling thread collects the cells in order and
    computes each oracle value as its cell arrives, so the first error
    raised is the one a serial loop would raise; any error cancels the
    cells not yet started.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_cells = sum(len(column) for column in columns)
    if not n_cells:
        return [[] for _ in columns]
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), n_cells)) as pool:
        try:
            futures = [[pool.submit(gpn_monte_carlo, task) for task in column]
                       for column in columns]
            return [
                [(future.result(), gpn_oracle(task) if oracle else None)
                 for task, future in zip(column, column_futures)]
                for column, column_futures in zip(columns, futures)
            ]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1
