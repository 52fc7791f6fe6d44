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
import threading
from dataclasses import dataclass
from itertools import accumulate, groupby
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
    # a move to the identity (x + 0.0 or x * 1.0) changes no draw's value,
    # so it is skipped, and a pivot at the identity is the moved draw itself
    move1 = params.theta1 != kind.identity
    buf1, buf2 = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    wins = ties = valid = 0
    with np.errstate(all="ignore"):
        for i in range(0, n, _BLOCK):
            m = min(n - i, _BLOCK)
            b1 = kind.move(x1[i:i + m], params.theta1, out=buf1[:m]) if move1 else x1[i:i + m]
            b2 = kind.move(x2[i:i + m], params.theta2, out=buf2[:m])
            t = kind.contrast(b2, b1)
            xi, ps = _kernel_values(task.candidate, task.reference, t)
            edge, below = task.loss.halfline(xi, ps)
            z = b1 if target == 1 else b2
            if theta != kind.identity:
                z = kind.contrast(z, theta)
            tie = xi == ps
            tie |= z == edge
            ok = kind.in_domain(t)
            ok &= np.isfinite(xi)
            ok &= np.isfinite(ps)
            valid += int(np.count_nonzero(ok))
            # a draw is not a win where it falls on the reference's side or ties
            lost = z < edge
            lost ^= below
            lost |= tie
            wins += m - int(np.count_nonzero(lost))
            ties += int(np.count_nonzero(tie))
    if valid < n:
        raise DomainError(
            f"{n - valid} of {n} draws give a non-finite kernel value or a contrast "
            f"outside its domain for {task.candidate.name} vs {task.reference.name}"
        )
    return GpnResult.from_counts(wins, ties, n, task.seed)


def _kernel_values(candidate: Estimator, reference: Estimator, t):
    """The candidate's and the reference's kernel values (xi, ps) at t.
    Where one is the clamp of the other, in either order, their shared base
    kernel is evaluated once and clipped.
    """
    if candidate.base is reference:
        ps = reference.psi(t)
        return candidate.clip(ps, t), ps
    xi = candidate.psi(t)
    return xi, reference.clip(xi, t) if reference.base is candidate else reference.psi(t)


def _identity_draws(task: ComparisonTask) -> tuple[np.ndarray, np.ndarray]:
    """The task's model sampled at the identity gap from the task's seed."""
    kind = task.model.kind
    rng = np.random.default_rng(task.seed)
    return task.model.sample(kind.pinned_params(kind.identity), rng, size=task.n_samples)


def gpn_oracle(task: ComparisonTask, abs_tol: float = 1e-8) -> float:
    """Deterministic GPN: the probability of the loss's half-line event
    integrated against the contrast density by adaptive quadrature, with
    kernel breakpoints inserted as panel boundaries. The model's quadrature
    segments are integrated in lockstep: each integrand call maps each
    segment's nodes to contrasts by that segment's change of variable, and
    evaluates the density and both kernels once on all of them. It checks
    only that its nodes lie in the contrast's domain, then calls the model's
    unchecked _pdf, and its unchecked _cdf only at the nodes where the two
    kernels differ: where they agree the integrand is 1/2 whatever the
    pivot's law. A node outside the domain, or a kernel value that is not
    finite at a node, fails the cell with a DomainError, as it fails a draw
    of the Monte Carlo engine. numpy does not warn of an overflow or
    invalid value in a call: each has its right limit or fails the cell, at
    those checks or at the quadrature's finite-sum check.
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
    segments = model.d_quadrature_segments(lam)

    def integrand(s, sizes):
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = [0, *accumulate(sizes)]
            pieces = [s[a:b] for a, b in zip(offsets, offsets[1:])]
            t = np.concatenate([seg.to_t(p) for seg, p in zip(segments, pieces)])
            model.kind.check_contrast(t)
            jacobian = np.concatenate([seg.jacobian(p) for seg, p in zip(segments, pieces)])
            weight = model._pdf(lam, t) * jacobian
            xi, ps = _kernel_values(task.candidate, task.reference, t)
            if not (np.isfinite(xi).all() and np.isfinite(ps).all()):
                raise DomainError(
                    f"{task.candidate.name} vs {task.reference.name} gives a "
                    f"non-finite kernel value at a quadrature node"
                )
            # P[candidate beats reference | D = t]: the pivot's half-line event
            edge, below = task.loss.halfline(xi, ps)
            # where the kernels agree g is 1/2 whatever the pivot's CDF, and
            # a CDF of 1/2 gives it on either side of the edge
            live = xi != ps
            cdf = np.full_like(t, 0.5)
            cdf[live] = model._cdf(component, lam, t[live], edge[live])
            g = np.where(below, cdf, 1.0 - cdf)
            return (g - 0.5) * weight

    # called through the module global, which a tracer may replace
    shift = sum(adaptive_quadrature(
        integrand,
        [seg.lo for seg in segments],
        [seg.hi for seg in segments],
        breakpoints=[[seg.from_t(bp) for bp in cuts] for seg in segments],
        abs_tol=abs_tol / len(segments),
        max_panels=4000,
    ))
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
    cell alone, so it depends neither on the grouping nor on the timing of
    the threads. A column_tasks column is one job; a column of distinct
    seeds is one job per cell. The Monte Carlo stage is a two-stage
    pipeline on the process's two threads (numpy releases the GIL while it
    draws and computes): the evaluating thread runs the jobs' cells in
    order while the drawing thread draws the next job's sample, so at most
    two jobs' draws are alive at once. The calling thread waits for that
    stage, then computes the oracle values alone, in cell order, so the
    first error raised is the one a serial loop would raise; a failing cell
    stops the stage, and no later job draws or runs a cell.
    """
    jobs = [list(job) for column in columns
            for _, job in groupby(column, key=lambda t: (t.model, t.seed, t.n_samples))]
    failed = threading.Event()
    try:
        outcomes = iter(_threads()[0].submit(_run_jobs, jobs, failed).result())
    except BaseException:
        # the threads outlive the call: the running job stops after its cell
        failed.set()
        raise
    return [[_collect(task, next(outcomes), oracle) for task in column]
            for column in columns]


@functools.lru_cache(maxsize=None)
def _threads():
    """The process's evaluating and drawing threads, as one-thread
    executors started on their first job and kept across calls: a fresh
    thread may take a fresh malloc arena that stays resident, and a worker
    thread's arena takes far fewer page faults per pass than the calling
    thread's.
    """
    from concurrent.futures import ThreadPoolExecutor

    return (ThreadPoolExecutor(1, "pitnear-evaluate"),
            ThreadPoolExecutor(1, "pitnear-draw"))


def _run_jobs(jobs: list[list[ComparisonTask]], failed: threading.Event) -> list:
    """The Monte Carlo stage, on the evaluating thread: every job's cells in
    order, each a GpnResult or the error it or its draw raised, up to the
    first error or until the run has failed. It draws the first job itself,
    and asks the drawing thread for job k + 1's draws before it runs job k's
    cells.
    """
    drawer = _threads()[1]
    outcomes: list = []
    ahead = None
    for k, job in enumerate(jobs):
        if failed.is_set():
            break
        try:
            # this releases the last job's draws before the next job's are asked for
            draws = _identity_draws(job[0]) if ahead is None else ahead.result()
        except Exception as error:
            outcomes.append(error)
            break
        ahead = drawer.submit(_identity_draws, jobs[k + 1][0]) if k + 1 < len(jobs) else None
        for task in job:
            if failed.is_set():
                break
            try:
                # called through the module global, which a tracer may replace
                outcomes.append(gpn_monte_carlo(task, draws))
            except Exception as error:
                outcomes.append(error)
                failed.set()
                break
    if ahead is not None and not ahead.cancel():
        ahead.exception()  # the stage ends with the drawing thread idle
    return outcomes


def _collect(task: ComparisonTask, outcome, oracle: bool) -> tuple[GpnResult, Optional[float]]:
    """A cell's result with its oracle value, or the cell's error raised."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome, gpn_oracle(task) if oracle else None
