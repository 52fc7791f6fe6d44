"""Generalized Pitman nearness of one estimator relative to another:
P[L(cand) < L(ref)] + P[L(cand) = L(ref)] / 2.

Both evaluation routes decide a comparison by the half-line event of the
task's loss: a seeded, paired Monte Carlo engine counts the draws on each
side of its edge, and a deterministic quadrature oracle integrates its
probability against the contrast density.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from itertools import groupby
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
        # A draw scores 1, 1/2 or 0; with w and t the win and tie fractions,
        # the score variance is w + t/4 - estimate^2. Held as the integer
        # 4 n^2 times that, it rounds once, so a pair and its swap get the
        # same standard error to the bit and a self-comparison gets 0.
        var_4n2 = (4 * wins + ties) * n - (2 * wins + ties) ** 2
        return cls(
            estimate=estimate,
            win_fraction=wins / n,
            tie_fraction=ties / n,
            n_samples=n,
            std_error=math.sqrt(var_4n2 / (4 * n ** 3)),
            seed=seed,
        )


@dataclass(frozen=True)
class ComparisonTask:
    """One GPN cell: a candidate/reference pair on one model at one
    parameter point. A task checks itself when it is built, so both engines
    take it as it comes.
    """

    model: ModelSpec
    params: RestrictedParams
    candidate: Estimator
    reference: Estimator
    loss: LossFn
    n_samples: int = 10000
    seed: int = 42

    def __post_init__(self):
        if self.candidate.target != self.reference.target:
            raise DomainError(
                f"estimators target different components: "
                f"{self.candidate.target} vs {self.reference.target}"
            )
        kind = self.model.kind
        if self.candidate.kind is not kind or self.reference.kind is not kind:
            raise DomainError("estimator kind does not match the model kind")
        if self.loss.problem_kind is not kind:
            raise DomainError(
                f"loss {self.loss.name!r} does not fit the {kind.value} model "
                f"{type(self.model).__name__}"
            )
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        kind.check_gap(self.params.gap(kind))


def gpn_monte_carlo(
    task: ComparisonTask, draws: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> GpnResult:
    """Estimate GPN by paired sampling: both kernels are evaluated on the
    same draws, so the win/tie/loss partition is shared and the variance
    small. Deterministic for a fixed seed.

    The draws are the model's draws at the identity gap from the task's
    seed, moved block by block to the task's parameters by kind.move, the
    last operation every sampler applies; so they are, bit for bit, the
    draws sample makes at those parameters from that seed. run_columns
    draws once for cells that share a seed and passes them on as draws.

    Each draw is decided by task.loss on the kernels at its contrast; a
    draw where the kernels agree or the pivot lands on the edge is a tie, so
    a pair and its swap sum to exactly 1. Every step is element-wise and
    exactly rounded, so the counts do not depend on the block size.

    A draw with a non-finite kernel value is neither a win, a tie nor a
    loss, and one with a contrast outside its kind's domain (an underflowed
    scale draw, say) says nothing about the model: the cell fails with a
    DomainError that counts them, and their numpy warnings are not shown.
    """
    n = task.n_samples
    x1, x2 = _identity_draws(task) if draws is None else draws
    if not len(x1) == len(x2) == n:
        raise DomainError(f"draws of lengths {len(x1)} and {len(x2)} for a cell of {n}")
    kind, params, target = task.model.kind, task.params, task.candidate.target
    theta = params.component(target)
    buf1, buf2 = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    wins = ties = valid = 0
    with np.errstate(all="ignore"):
        for i in range(0, n, _BLOCK):
            m = min(n - i, _BLOCK)
            b1 = kind.move(x1[i:i + m], params.theta1, out=buf1[:m])
            b2 = kind.move(x2[i:i + m], params.theta2, out=buf2[:m])
            t = kind.contrast(b2, b1)
            xi, ps = task.candidate.psi(t), task.reference.psi(t)
            edge, below = task.loss.halfline(xi, ps)
            z = kind.contrast(b1 if target == 1 else b2, theta)
            tie = (xi == ps) | (z == edge)
            ok = kind.in_domain(t) & np.isfinite(xi) & np.isfinite(ps)
            valid += int(np.count_nonzero(ok))
            wins += int(np.count_nonzero(((z < edge) == below) & ~tie))
            ties += int(np.count_nonzero(tie))
    if valid < n:
        raise DomainError(
            f"{n - valid} of {n} draws give a non-finite kernel value or a contrast "
            f"outside its domain for {task.candidate.name} vs {task.reference.name}"
        )
    return GpnResult.from_counts(wins, ties, n, task.seed)


def _identity_draws(task: ComparisonTask) -> tuple[np.ndarray, np.ndarray]:
    """The task's model sampled at the identity gap from the task's seed."""
    kind = task.model.kind
    rng = np.random.default_rng(task.seed)
    return task.model.sample(kind.pinned_params(kind.identity), rng, size=task.n_samples)


def gpn_oracle(task: ComparisonTask, abs_tol: float = 1e-8) -> float:
    """Deterministic GPN: the probability of the loss's half-line event
    integrated against the contrast density by adaptive quadrature, with
    kernel breakpoints inserted as panel boundaries. Each integrand call
    checks only that its nodes lie in the contrast's domain, then calls the
    model's unchecked _pdf and _cdf. A node outside it, or a kernel value
    that is not finite at a node, fails the cell with a DomainError, as it
    fails a draw of the Monte Carlo engine.
    """
    if task.candidate == task.reference:
        return 0.5
    model = task.model
    component = task.candidate.target
    lam = task.params.gap(model.kind)
    # a point outside the contrast's domain lies inside no segment
    cuts = [bp for bp in task.candidate.breakpoints + task.reference.breakpoints
            if model.kind.in_domain(bp)]
    # Integrating g - 1/2 makes every region where the kernels coincide
    # contribute exactly zero, so heavy contrast tails cost nothing once the
    # clamp deactivates there.
    shift = 0.0
    segments = model.d_quadrature_segments(lam)
    for seg in segments:

        def integrand(s, _seg=seg):
            t = _seg.to_t(s)
            model.kind.check_contrast(t)
            weight = model._pdf(lam, t) * _seg.jacobian(s)
            xi = task.candidate.psi(t)
            ps = task.reference.psi(t)
            if not (np.isfinite(xi).all() and np.isfinite(ps).all()):
                raise DomainError(
                    f"{task.candidate.name} vs {task.reference.name} gives a "
                    f"non-finite kernel value at a quadrature node"
                )
            # P[candidate beats reference | D = t]: the pivot's half-line event
            edge, below = task.loss.halfline(xi, ps)
            cdf = model._cdf(component, lam, t, edge)
            g = np.where(xi == ps, 0.5, np.where(below, cdf, 1.0 - cdf))
            return (g - 0.5) * weight

        shift += adaptive_quadrature(
            integrand,
            seg.lo,
            seg.hi,
            breakpoints=[seg.from_t(bp) for bp in cuts],
            abs_tol=abs_tol / len(segments),
            max_panels=4000,
        )
    return min(max(0.5 + shift, 0.0), 1.0)


def derive_cell_seed(base_seed: int, pair_index: int, gap_index: int) -> int:
    """Deterministic 64-bit seed from the base seed and two indices; distinct
    index pairs get independent streams. A column_tasks column runs on the
    seed of its (pair, 0) indices.
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
    """One column: the cells of one pair over the gaps in order, all on the
    column's seed, the one derived from the base seed and (pair, 0). Its
    cells share their draws (common random numbers): each cell's draws are
    the column's identity-gap draws moved to its gap, so the differences
    between gaps carry little sampling noise. Each cell checks itself as it
    is built, so a gap outside the model's domain, a loss of the other kind
    or a sample count below 1 raises here, before any cell runs.
    """
    seed = derive_cell_seed(base_seed, pair_index, 0)
    return tuple(
        ComparisonTask(
            model=model,
            params=model.kind.pinned_params(gap),
            candidate=candidate,
            reference=reference,
            loss=loss,
            n_samples=n_samples,
            seed=seed,
        )
        for gap in gaps
    )


def run_columns(
    columns: Sequence[Sequence[ComparisonTask]], oracle: bool = False
) -> list[list[tuple[GpnResult, Optional[float]]]]:
    """Monte Carlo GPN of every cell, with its oracle value when asked: one
    list per column, in cell order.

    Each run of consecutive cells of a column that share their model, seed
    and sample count is one job, which draws once and runs its cells on
    those draws in turn; every cell's result equals gpn_monte_carlo of the
    cell alone, so it depends neither on the grouping nor on the thread
    count. A column_tasks column is one job; a column of distinct seeds is
    one job per cell. The jobs run on the process's pool of one thread per
    usable CPU (numpy releases the GIL while it draws and computes), each
    holding one job's draws at a time. The calling thread collects the cells
    in order and computes each oracle value as its cell arrives, so the
    first error raised is the one a serial loop would raise; any error
    cancels the cells not yet started.
    """
    jobs = [list(job) for column in columns
            for _, job in groupby(column, key=lambda t: (t.model, t.seed, t.n_samples))]
    pool = _pool(_usable_cpus())
    failed = threading.Event()
    futures = [pool.submit(_run_job, job, failed) for job in jobs]
    try:
        outcomes = (outcome for future in futures for outcome in future.result())
        return [[_collect(task, next(outcomes), oracle) for task in column]
                for column in columns]
    except BaseException:
        # the pool outlives the call: a running job stops after its cell
        failed.set()
        for future in futures:
            future.cancel()
        raise


@functools.lru_cache(maxsize=None)
def _pool(workers: int):
    """The process's pool of that many threads, kept across calls: a fresh
    thread may take a fresh malloc arena that stays resident.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


def _run_job(job: list[ComparisonTask], failed: threading.Event) -> list:
    """The job's cells in order on one draw, each a GpnResult or the error
    it raised; stops after the first error, or once the runner has failed.
    """
    outcomes: list = []
    draws = None
    for task in job:
        if failed.is_set():
            break
        try:
            if draws is None:
                draws = _identity_draws(task)
            # called through the module global, which a tracer may replace
            outcomes.append(gpn_monte_carlo(task, draws))
        except Exception as error:
            outcomes.append(error)
            break
    return outcomes


def _collect(task: ComparisonTask, outcome, oracle: bool) -> tuple[GpnResult, Optional[float]]:
    """A cell's result with its oracle value, or the cell's error raised."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome, gpn_oracle(task) if oracle else None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1
