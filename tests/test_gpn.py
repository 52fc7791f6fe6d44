import importlib
import json
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pitnear.cli as cli
import pitnear.gpn as gpn
from pitnear.errors import DomainError
from pitnear.estimators import Estimator, LossFn, catalog, clamp, resolve_estimator
from pitnear.gpn import (
    ComparisonTask,
    GpnResult,
    column_tasks,
    derive_cell_seed,
    gpn_monte_carlo,
    gpn_oracle,
    run_columns,
)
from pitnear.models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    PowerScale,
    ProblemKind,
    RestrictedParams,
)

LOC_ABS = LossFn.from_name("location_abs")
SCALE_ABS = LossFn.from_name("scale_abs")

# Relative tolerance for calling two loss values a tie in the loss-based
# reference below: algebraically equal kernel branches give bit-identical
# losses, and the tolerance guards against association-order differences.
LOSS_TIE_EPS = 1e-12

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Oracle values of the 832 clamp-dominance cells stored with the benchmark,
# keyed by a label that ends in "<model> c<component> <cand>/<ref> gap <gap>".
CERTIFICATION_REFERENCE = PERFBENCH / "data" / "oracle_certify.json"

ANCHOR_NORMAL = BivariateNormal(3.0, 0.5, -0.9)
ANCHOR_GAMMA = GammaScale(30.0, 1.0)


def task_for(model, gap, cand_name, ref_name, n=2 ** 12, seed=42):
    comp = 1 if model.kind is ProblemKind.LOCATION else 2
    loss = LOC_ABS if model.kind is ProblemKind.LOCATION else SCALE_ABS
    return ComparisonTask(
        model,
        model.kind.pinned_params(gap),
        resolve_estimator(model, comp, cand_name),
        resolve_estimator(model, comp, ref_name),
        loss,
        n_samples=n,
        seed=seed,
    )


def unblocked_monte_carlo(task):
    """The comparison of the two losses on whole arrays at once: the
    reference that the blocked half-line comparison must match count for
    count.
    """
    rng = np.random.default_rng(task.seed)
    x1, x2 = task.model.sample(task.params, rng, size=task.n_samples)
    theta = task.params.component(task.candidate.target)
    loss_cand = task.loss.evaluate(task.candidate.evaluate(x1, x2), theta)
    loss_ref = task.loss.evaluate(task.reference.evaluate(x1, x2), theta)
    tol = np.maximum(loss_cand, loss_ref)
    np.maximum(tol, 1.0, out=tol)
    tol *= LOSS_TIE_EPS
    diff = loss_cand - loss_ref
    wins = int(np.count_nonzero(diff < -tol))
    ties = int(np.count_nonzero(np.abs(diff, out=diff) <= tol))
    return GpnResult.from_counts(wins, ties, task.n_samples, task.seed)


BLOCK_EDGE_SIZES = [1, 7, 2 ** 14 - 1, 2 ** 14 + 1, 3 * 2 ** 14 + 5]


class TestMonteCarlo:
    def test_self_comparison_is_exactly_half(self):
        est = resolve_estimator(ANCHOR_NORMAL, 1, "rmle")
        task = ComparisonTask(
            ANCHOR_NORMAL, RestrictedParams(0.0, 1.0), est, est, LOC_ABS, 2 ** 10, 5
        )
        r = gpn_monte_carlo(task)
        assert r.estimate == 0.5
        assert r.tie_fraction == 1.0
        assert r.win_fraction == 0.0

    def test_normal_anchor_cell(self):
        # published cell for this configuration at gap 0 is 0.743
        r = gpn_monte_carlo(task_for(ANCHOR_NORMAL, 0.0, "rmle", "pnlee", n=10 ** 5))
        assert r.estimate == pytest.approx(0.743, abs=0.02)

    def test_gamma_anchor_cell(self):
        # published cell for this configuration at ratio 1 is 0.758
        r = gpn_monte_carlo(task_for(ANCHOR_GAMMA, 1.0, "rmle", "ue", n=10 ** 5))
        assert r.estimate == pytest.approx(0.758, abs=0.02)

    def test_result_invariants(self):
        r = gpn_monte_carlo(task_for(ANCHOR_GAMMA, 1.5, "rmle_star", "rmle", n=2 ** 12))
        assert r.estimate == r.win_fraction + r.tie_fraction / 2.0
        assert r.win_fraction + r.tie_fraction <= 1.0
        # the plug-in se of a score in {0, 1/2, 1}, not the binomial one
        assert r.tie_fraction > 0.0
        assert r.std_error == pytest.approx(np.sqrt(
            (r.win_fraction + r.tie_fraction / 4.0 - r.estimate ** 2) / r.n_samples
        ), rel=1e-12)
        assert r.std_error < np.sqrt(r.estimate * (1.0 - r.estimate) / r.n_samples)
        assert 0.0 <= r.estimate <= 1.0

    def test_deterministic_for_seed(self):
        a = gpn_monte_carlo(task_for(ANCHOR_NORMAL, 0.5, "rmle", "pnlee", seed=99))
        b = gpn_monte_carlo(task_for(ANCHOR_NORMAL, 0.5, "rmle", "pnlee", seed=99))
        assert a == b

    def test_complement_on_shared_stream(self):
        fwd = gpn_monte_carlo(task_for(ANCHOR_NORMAL, 0.5, "rmle", "pnlee", seed=17))
        rev = gpn_monte_carlo(task_for(ANCHOR_NORMAL, 0.5, "pnlee", "rmle", seed=17))
        assert fwd.estimate + rev.estimate == 1.0
        assert fwd.tie_fraction == rev.tie_fraction
        assert fwd.std_error == rev.std_error

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize(
        "model, gap, cand, ref",
        [
            (ANCHOR_NORMAL, 0.5, "rmle", "pnlee"),
            (GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle"),
        ],
    )
    def test_blocked_counts_match_unblocked(self, model, gap, cand, ref, n):
        # the half-line count equals the loss-based count under the absolute
        # and the squared loss, so the two cells are equal too
        task = task_for(model, gap, cand, ref, n=n, seed=n)
        result = gpn_monte_carlo(task)
        for squared in (False, True):
            shaped = replace(task, loss=LossFn(model.kind, squared))
            assert gpn_monte_carlo(shaped) == unblocked_monte_carlo(shaped) == result

    def test_draw_on_the_edge_is_a_tie(self):
        # the kernels 0 and 2 put the half-line edge at 1, and the first
        # draw's pivot lands on it: both estimates are 1 from the truth, so
        # the draw is a tie in either order, and the pair sums to exactly 1
        zero = Estimator("zero", 1, ProblemKind.LOCATION, np.zeros_like)
        two = Estimator("two", 1, ProblemKind.LOCATION, lambda t: np.full_like(t, 2.0))
        draws = np.array([1.0, 0.0, 0.5, 3.0]), np.zeros(4)
        fwd, rev = (
            gpn_monte_carlo(ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.0),
                                           cand, ref, LOC_ABS, 4), draws)
            for cand, ref in [(zero, two), (two, zero)]
        )
        assert fwd.tie_fraction == rev.tie_fraction == 0.25
        assert (fwd.win_fraction, rev.win_fraction) == (0.5, 0.25)
        assert fwd.estimate + rev.estimate == 1.0
        assert fwd.std_error == rev.std_error

    @pytest.mark.parametrize(
        "model, gap, cand, ref",
        [
            (GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle"),
            (BivariateNormal(1.0, 80.0, 0.5), 1.0, "hp_star", "hp"),
        ],
    )
    def test_tie_fraction_is_the_kernels_tie_event(self, model, gap, cand, ref):
        # the MC ties are the draws where the two kernels agree, the event
        # whose mass the oracle's integral of 1{xi(t) = psi(t)} gives
        task = task_for(model, gap, cand, ref, n=2 ** 15 + 3, seed=11)
        x1, x2 = model.sample(task.params, np.random.default_rng(task.seed), task.n_samples)
        t = model.kind.contrast(x2, x1)
        agree = np.count_nonzero(task.candidate.psi(t) == task.reference.psi(t))
        result = gpn_monte_carlo(task)
        assert 0.0 < result.tie_fraction < 1.0
        assert result.tie_fraction == agree / task.n_samples

    def test_non_finite_loss_difference_fails_the_cell(self):
        # a draw with a NaN kernel value, in either order, has a NaN loss
        # difference: it is neither a win nor a tie, and it may not count as
        # a loss, so the cell fails and names how many draws gave one
        nan_tail = Estimator(
            "nan_tail", 1, ProblemKind.LOCATION, lambda t: np.where(t > 3.0, np.nan, 0.0)
        )
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        n = 3 * 2 ** 14 + 5
        task = ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 1.0), nan_tail, ref, LOC_ABS, n, 9)
        x1, x2 = ANCHOR_NORMAL.sample(task.params, np.random.default_rng(9), n)
        bad = int(np.count_nonzero(x2 - x1 > 3.0))
        assert 0 < bad < n
        for task in (task, replace(task, candidate=ref, reference=nan_tail)):
            with pytest.raises(DomainError, match=f"^{bad} of {n} draws give a non-finite"):
                gpn_monte_carlo(task)

    def test_draws_must_match_the_sample_count(self):
        task = task_for(ANCHOR_NORMAL, 0.5, "rmle", "pnlee", n=64)
        draws = ANCHOR_NORMAL.sample(RestrictedParams(0.0, 0.0), np.random.default_rng(1), 63)
        with pytest.raises(DomainError, match="lengths 63 and 63 for a cell of 64"):
            gpn_monte_carlo(task, draws)

    def test_validation_errors(self):
        # a task checks itself when it is built, and again when replace
        # builds a changed copy
        cand = resolve_estimator(ANCHOR_NORMAL, 1, "rmle")
        ref2 = resolve_estimator(ANCHOR_NORMAL, 2, "pnlee")
        with pytest.raises(DomainError):
            ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.0), cand, ref2, LOC_ABS)
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        with pytest.raises(DomainError, match="loss 'scale_abs' does not fit the location"):
            ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.0), cand, ref, SCALE_ABS)
        with pytest.raises(DomainError):
            ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.0), cand, ref, LOC_ABS, 0)
        task = ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.0), cand, ref, LOC_ABS)
        with pytest.raises(DomainError, match="does not fit"):
            replace(task, loss=SCALE_ABS)
        with pytest.raises(DomainError, match="n_samples"):
            replace(task, n_samples=0)
        # equal infinite parameters are ordered, but their gap is NaN
        with pytest.raises(DomainError, match="location gaps must be >= 0, got nan"):
            replace(task, params=RestrictedParams(np.inf, np.inf))
        rmle = resolve_estimator(ANCHOR_GAMMA, 2, "rmle")
        with pytest.raises(DomainError, match="scale gaps must be >= 1, got nan"):
            ComparisonTask(ANCHOR_GAMMA, RestrictedParams(np.inf, np.inf), rmle, rmle, SCALE_ABS)

    @pytest.mark.parametrize(
        "loss, n, match",
        [(SCALE_ABS, 64, "does not fit"), (LOC_ABS, 0, "n_samples must be >= 1")],
        ids=["loss_of_the_other_kind", "no_samples"],
    )
    def test_column_tasks_checks_each_cell(self, loss, n, match):
        # a bad column raises while it is built, before any cell can run
        cand = resolve_estimator(ANCHOR_NORMAL, 1, "rmle")
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        with pytest.raises(DomainError, match=match):
            column_tasks(ANCHOR_NORMAL, cand, ref, [0.0, 1.0], loss, n, 1, 0)


class TestOracle:
    def test_self_comparison_exact_half(self):
        est = resolve_estimator(ANCHOR_GAMMA, 2, "rmle")
        task = ComparisonTask(
            ANCHOR_GAMMA, RestrictedParams(1.0, 2.0), est, est, SCALE_ABS
        )
        assert gpn_oracle(task) == 0.5

    @pytest.mark.parametrize(
        "model, cand, ref, outside",
        [
            (GammaScale(0.5, 0.2), "rmle_star", "rmle", (0.0, -1.0, np.inf, np.nan)),
            (ANCHOR_NORMAL, "rmle", "pnlee", (np.inf, -np.inf, np.nan)),
        ],
        ids=["scale", "location"],
    )
    def test_breakpoints_outside_the_domain_are_ignored(self, model, cand, ref, outside):
        # a breakpoint where the contrast cannot lie is no panel edge: the
        # value is bit for bit the one without it
        task = task_for(model, 2.0, cand, ref)
        listed = replace(task.candidate, breakpoints=task.candidate.breakpoints + outside)
        assert gpn_oracle(replace(task, candidate=listed)) == gpn_oracle(task)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_kernel_value_fails_the_cell(self, bad):
        # the Monte Carlo engine fails a cell whose kernel is not finite on
        # some draws; the oracle fails it too, in either order, rather than
        # printing NaN or a number that ignores the bad region
        tail = Estimator(
            "tail", 1, ProblemKind.LOCATION, lambda t: np.where(t > 1.0, bad, 0.0)
        )
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        task = ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 1.0), tail, ref, LOC_ABS, 1000, 9)
        for task in (task, replace(task, candidate=ref, reference=tail)):
            with pytest.raises(DomainError, match="non-finite kernel value"):
                gpn_monte_carlo(task)
            with pytest.raises(DomainError, match="non-finite kernel value"):
                gpn_oracle(task)

    @pytest.mark.parametrize(
        "model,gap,cand,ref",
        [
            (ANCHOR_NORMAL, 0.0, "rmle", "pnlee"),
            (ANCHOR_NORMAL, 2.0, "rmle", "pnlee"),
            (ExponentialLocation(1.0, 2.0), 1.0, "pnlee_star", "pnlee"),
            (GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle"),
            (PowerScale(2.0, 0.5), 1.5, "pnsee_star", "pnsee"),
        ],
    )
    def test_matches_large_monte_carlo(self, model, gap, cand, ref):
        task = task_for(model, gap, cand, ref, n=10 ** 6, seed=314)
        mc = gpn_monte_carlo(task)
        val = gpn_oracle(task)
        assert abs(val - mc.estimate) <= 3.0 * max(mc.std_error, 1e-4)

    @pytest.mark.parametrize(
        "model, component, cand, ref",
        [
            (GammaScale(0.1, 0.1), 2, "rmle_star", "rmle"),
            (GammaScale(0.05, 0.05), 2, "rmle_star", "rmle"),
            (GammaScale(0.02, 0.02), 2, "rmle_star", "rmle"),
            (GammaScale(0.05, 0.05), 1, "ue", "pnsee"),
        ],
    )
    def test_small_shapes_match_monte_carlo(self, model, component, cand, ref):
        # many draws lie so near 0 that both scale losses are 1 to within
        # 1e-12; the half-line event still tells them apart, in both
        # engines. Counted as ties, they put the MC 11 se and 59 se below
        # the oracle at shapes 0.05 and 0.02
        task = ComparisonTask(
            model, model.kind.pinned_params(2.0),
            resolve_estimator(model, component, cand),
            resolve_estimator(model, component, ref),
            SCALE_ABS, n_samples=10 ** 5, seed=1,
        )
        mc = gpn_monte_carlo(task)
        assert abs(mc.estimate - gpn_oracle(task)) <= 4.0 * mc.std_error

    @pytest.mark.parametrize(
        "model, gap, cand, ref, squared",
        [
            (ANCHOR_NORMAL, 1.0, "rmle", "pnlee", "location_squared"),
            (ExponentialLocation(1.0, 2.0), 0.5, "pnlee_star", "pnlee", "location_squared"),
            (GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle", "scale_squared"),
            (PowerScale(2.0, 0.5), 1.5, "pnsee_star", "pnsee", "scale_squared"),
        ],
    )
    def test_squared_loss_matches_absolute(self, model, gap, cand, ref, squared):
        # a squared loss orders estimates as its absolute loss does
        t_abs = task_for(model, gap, cand, ref)
        t_sq = ComparisonTask(
            t_abs.model, t_abs.params, t_abs.candidate, t_abs.reference,
            LossFn.from_name(squared),
        )
        assert gpn_oracle(t_sq) == gpn_oracle(t_abs)

    @pytest.mark.parametrize(
        "model, component, cand, ref",
        [
            # refines as a long chain of bisections toward the s -> 0 endpoint
            (GammaScale(0.5, 0.2), 1, "rmle_star", "rmle"),
            (BivariateNormal(80.0, 30.0, 0.0), 1, "rmle", "pnlee"),
            # clamped stars of all four models, whose band is read from the
            # model's conditional median and whose kinks the catalog lists
            (ExponentialLocation(30.0, 40.0), 1, "pnlee_star", "pnlee"),
            (ExponentialLocation(30.0, 40.0), 2, "rmle_star", "rmle"),
            # moves by 1.6e-5 at gap 0.5 if the bound's kink at 0 is not listed
            (ExponentialLocation(30.0, 40.0), 2, "pnlee_star", "pnlee"),
            (PowerScale(2.0, 0.5), 1, "pnsee_star", "pnsee"),
            (GammaScale(30.0, 1.0), 2, "rmle_star", "rmle"),
            (BivariateNormal(1.0, 80.0, 0.5), 1, "hp_star", "hp"),
        ],
    )
    def test_certification_references_pinned(self, model, component, cand, ref):
        # a change to the quadrature partition moves these by more than 1e-10
        stored = json.loads(CERTIFICATION_REFERENCE.read_text())
        reference = dict(zip(stored["labels"], stored["oracle"]))
        head = f"{model} c{component} {cand}/{ref} gap "
        cells = {
            float(label.rsplit(" ", 1)[1]): value
            for label, value in reference.items()
            if head in label
        }
        assert len(cells) == (19 if model.kind is ProblemKind.SCALE else 23)
        for gap, value in cells.items():
            task = ComparisonTask(
                model,
                model.kind.pinned_params(gap),
                resolve_estimator(model, component, cand),
                resolve_estimator(model, component, ref),
                LOC_ABS if model.kind is ProblemKind.LOCATION else SCALE_ABS,
            )
            assert abs(gpn_oracle(task) - value) <= 1e-10, gap

    def test_dominance_spot_checks(self):
        for model, cand, ref in [
            (ExponentialLocation(1.0, 2.0), "rmle_star", "rmle"),
            (GammaScale(1.0, 1.0), "pnsee_star", "pnsee"),
        ]:
            comp = 1 if model.kind is ProblemKind.LOCATION else 2
            gaps = [0.0, 1.0, 3.0] if model.kind is ProblemKind.LOCATION else [1.0, 2.0, 4.0]
            for gap in gaps:
                task = ComparisonTask(
                    model,
                    model.kind.pinned_params(gap),
                    resolve_estimator(model, comp, cand),
                    resolve_estimator(model, comp, ref),
                    LOC_ABS if model.kind is ProblemKind.LOCATION else SCALE_ABS,
                )
                assert gpn_oracle(task) > 0.5 + 1e-6

    def test_integrand_calls_the_unchecked_bodies(self, monkeypatch):
        # the task has checked its arguments, so the integrand evaluates the
        # models' _cdf and _pdf bodies, not the checked public names
        tasks = [
            task_for(ANCHOR_NORMAL, 2.0, "rmle", "pnlee"),
            task_for(ExponentialLocation(1.0, 2.0), 1.0, "pnlee_star", "pnlee"),
            task_for(GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle"),
            task_for(PowerScale(2.0, 0.5), 1.5, "pnsee_star", "pnsee"),
        ]
        values = [gpn_oracle(task) for task in tasks]

        def checked(*args):
            raise AssertionError("the oracle called a checked model method")

        for cls in (BivariateNormal, ExponentialLocation, GammaScale, PowerScale):
            monkeypatch.setattr(cls, "cond_cdf", checked)
            monkeypatch.setattr(cls, "d_density", checked)
        assert [gpn_oracle(task) for task in tasks] == values

    def test_equal_kernels_call_no_conditional_cdf(self, monkeypatch):
        # two names for one kernel tie at every node: the integrand is 1/2
        # there, so the oracle gives exactly 1/2 without the pivot's law
        model = GammaScale(0.5, 0.2)
        received = []
        cdf = GammaScale._cdf
        monkeypatch.setattr(GammaScale, "_cdf", lambda self, c, lam, t, s: (
            received.append(t.size) or cdf(self, c, lam, t, s)))
        rmle = resolve_estimator(model, 2, "rmle")
        task = task_for(model, 2.0, "rmle", "rmle")
        assert gpn_oracle(replace(task, candidate=replace(rmle, name="copy"))) == 0.5
        assert received and sum(received) == 0

    @pytest.mark.parametrize("model, component, name", [
        (BivariateNormal(0.5, 5.0, 0.9), 1, "hp"),
        (GammaScale(0.5, 0.2), 2, "rmle"),
    ])
    def test_conditional_cdf_only_where_the_kernels_differ(self, monkeypatch, model, component, name):
        base = resolve_estimator(model, component, name)
        star = next(e for e in catalog(model, component) if e.base is base)
        nodes = {"cdf": [], "pdf": []}
        cls = type(model)
        cdf, pdf = cls._cdf, cls._pdf
        monkeypatch.setattr(cls, "_cdf", lambda self, c, lam, t, s: (
            nodes["cdf"].append(t) or cdf(self, c, lam, t, s)))
        monkeypatch.setattr(cls, "_pdf", lambda self, lam, t: (
            nodes["pdf"].append(t) or pdf(self, lam, t)))
        gpn_oracle(star_task(model, star_gaps(model)[2], star, base))
        received = np.concatenate(nodes["cdf"])
        assert (star.psi(received) != base.psi(received)).all()
        # the clamp is inactive at some nodes, and those are not passed on
        assert 0 < received.size < sum(t.size for t in nodes["pdf"])

    def test_both_engines_decide_by_the_task_loss(self, monkeypatch):
        # a loss whose half-line event is flipped turns every win into a
        # loss and keeps the ties, in both engines
        task = task_for(GammaScale(0.5, 0.2), 2.0, "rmle_star", "rmle")
        mc, oracle = gpn_monte_carlo(task), gpn_oracle(task)
        halfline = LossFn.halfline

        def flipped(loss, xi, psi):
            edge, below = halfline(loss, xi, psi)
            return edge, ~below

        monkeypatch.setattr(LossFn, "halfline", flipped)
        flipped_mc = gpn_monte_carlo(task)
        assert 0.0 < mc.tie_fraction < 1.0 and mc.estimate != 0.5
        assert flipped_mc.estimate + mc.estimate == 1.0
        assert flipped_mc.tie_fraction == mc.tie_fraction
        assert flipped_mc.std_error == mc.std_error
        assert abs(gpn_oracle(task) - (1.0 - oracle)) <= 1e-12

    def test_loss_shape_invariance_spot_check(self):
        # absolute and squared losses induce the same half-line event here
        sq = LossFn.from_name("location_squared")
        for gap in (0.0, 1.0, 2.5):
            t_abs = task_for(ANCHOR_NORMAL, gap, "rmle", "pnlee", n=10 ** 5, seed=8)
            t_sq = ComparisonTask(
                t_abs.model, t_abs.params, t_abs.candidate, t_abs.reference,
                sq, t_abs.n_samples, t_abs.seed,
            )
            assert gpn_monte_carlo(t_sq) == gpn_monte_carlo(t_abs)


# Models whose catalogs hold every kind of clamp: the normal mixing
# coefficient above 1, in (0, 1), below 0, exactly 1, and exactly 0 (where
# component 2's far end is NaN), and the other three models.
STAR_MODELS = [
    BivariateNormal(0.5, 5.0, 0.9),
    BivariateNormal(1.0, 1.0, 0.0),
    BivariateNormal(5.0, 0.5, 0.9),
    BivariateNormal(1.0, 2.0, 0.5),
    BivariateNormal(2.0, 1.0, 0.5),
    ExponentialLocation(1.0, 2.0),
    GammaScale(0.5, 0.2),
    GammaScale(30.0, 1.0),
    PowerScale(2.0, 0.5),
]
STARS = [(model, star) for model in STAR_MODELS for component in (1, 2)
         for star in catalog(model, component) if star.base is not None]


def star_gaps(model):
    return (0.0, 0.5, 2.0, 10.0) if model.kind is ProblemKind.LOCATION else (1.0, 1.5, 4.0, 100.0)


def star_task(model, gap, cand, ref, n=2 ** 12):
    return ComparisonTask(model, model.kind.pinned_params(gap), cand, ref,
                          LossFn(model.kind), n_samples=n, seed=7)


class TestSharedBaseKernel:
    @pytest.mark.parametrize("model, component, name", [
        (BivariateNormal(0.5, 5.0, 0.9), 1, "hp"),
        (ExponentialLocation(1.0, 2.0), 2, "pnlee"),
        (GammaScale(0.5, 0.2), 2, "rmle"),
        (PowerScale(2.0, 0.5), 1, "pnsee"),
    ])
    @pytest.mark.parametrize("star_first", [True, False], ids=["star_base", "base_star"])
    def test_base_kernel_evaluated_once_per_block_and_integrand_call(
        self, monkeypatch, model, component, name, star_first
    ):
        evaluations = []
        base = resolve_estimator(model, component, name)
        counted = replace(base, psi=lambda t: evaluations.append(t.size) or base.psi(t))
        star = clamp(counted, model)
        pair = (star, counted) if star_first else (counted, star)
        # four blocks of draws, the last of 5
        gpn_monte_carlo(star_task(model, 2.0, *pair, n=3 * 2 ** 14 + 5))
        assert evaluations == [2 ** 14] * 3 + [5]

        calls = []
        quadrature = gpn.adaptive_quadrature

        def counting(f, a, b, **kw):
            return quadrature(lambda x, sizes: calls.append(x.size) or f(x, sizes), a, b, **kw)

        monkeypatch.setattr(gpn, "adaptive_quadrature", counting)
        evaluations.clear()
        gpn_oracle(star_task(model, 2.0, *pair))
        assert calls and evaluations == calls

    @pytest.mark.parametrize("model, star", STARS)
    def test_cells_equal_those_of_a_star_without_its_base(self, model, star):
        # a copy without base and clip evaluates the base kernel twice
        alone = replace(star, base=None, clip=None)
        for gap in star_gaps(model):
            for pair, copy in (((star, star.base), (alone, star.base)),
                               ((star.base, star), (star.base, alone))):
                task, twice = star_task(model, gap, *pair), star_task(model, gap, *copy)
                assert gpn_monte_carlo(task) == gpn_monte_carlo(twice)
                assert gpn_oracle(task) == gpn_oracle(twice)

    @pytest.mark.parametrize("model, star", STARS)
    def test_star_pair_and_its_swap_sum_to_one(self, model, star):
        for gap in star_gaps(model):
            fwd = star_task(model, gap, star, star.base)
            rev = star_task(model, gap, star.base, star)
            assert gpn_monte_carlo(fwd).estimate + gpn_monte_carlo(rev).estimate == 1.0
            # the oracle integrates cdf - 1/2 and (1 - cdf) - 1/2, each
            # rounded, so a swap may sum to 1 less one ulp
            assert abs(gpn_oracle(fwd) + gpn_oracle(rev) - 1.0) <= 2.0 ** -52


@pytest.fixture
def fast_thread_switches():
    """Switch threads every 10 us instead of 5 ms, to stress the pipeline."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def columns_for(model, pairs, gaps, loss, n_samples, base_seed=42):
    """One column per (candidate, reference) pair, pair i on index i."""
    return [
        column_tasks(model, cand, ref, gaps, loss, n_samples, base_seed, i)
        for i, (cand, ref) in enumerate(pairs)
    ]


class TestRunColumns:
    def test_grid_shape_and_order(self):
        pairs = [
            (
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle_star"),
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle"),
            ),
            (
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle"),
                resolve_estimator(ANCHOR_GAMMA, 2, "ue"),
            ),
        ]
        gaps = [1.0, 2.0, 3.0]
        columns = columns_for(ANCHOR_GAMMA, pairs, gaps, SCALE_ABS, 2 ** 10)
        assert [[t.params.theta2 for t in column] for column in columns] == [gaps, gaps]
        results = run_columns(columns)
        assert [len(column) for column in results] == [3, 3]
        assert [[r.seed for r, _ in column] for column in results] == [
            [t.seed for t in column] for column in columns
        ]
        assert all(value is None for column in results for _, value in column)

    def test_empty_input(self):
        assert run_columns([]) == []
        assert run_columns([(), ()], oracle=True) == [[], []]

    def test_empty_column_between_full_ones(self):
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        a, b = columns_for(
            ANCHOR_NORMAL,
            [(resolve_estimator(ANCHOR_NORMAL, 1, "rmle"), ref),
             (resolve_estimator(ANCHOR_NORMAL, 1, "pdt"), ref)],
            [0.0, 1.0], LOC_ABS, 2 ** 10,
        )
        results = run_columns([a, (), b])
        assert [[r for r, _ in column] for column in results] == [
            [gpn_monte_carlo(t) for t in a], [], [gpn_monte_carlo(t) for t in b],
        ]

    def test_deterministic(self):
        pair = [
            (
                resolve_estimator(ANCHOR_NORMAL, 1, "rmle"),
                resolve_estimator(ANCHOR_NORMAL, 1, "pnlee"),
            )
        ]
        a = run_columns(columns_for(ANCHOR_NORMAL, pair, [0.0, 1.0], LOC_ABS, 2 ** 10, 3))
        b = run_columns(columns_for(ANCHOR_NORMAL, pair, [0.0, 1.0], LOC_ABS, 2 ** 10, 3))
        assert a == b

    @pytest.mark.parametrize("draw_delay", [0.0, 0.02], ids=["prompt_draws", "late_draws"])
    def test_matches_cell_by_cell(self, monkeypatch, fast_thread_switches, draw_delay):
        # the pipeline's results equal the cells run one by one, whether the
        # evaluating thread waits for each job's draws or finds them ready
        identity_draws = gpn._identity_draws
        monkeypatch.setattr(gpn, "_identity_draws",
                            lambda task: time.sleep(draw_delay) or identity_draws(task))
        pairs = [
            (
                resolve_estimator(ANCHOR_NORMAL, 1, "rmle"),
                resolve_estimator(ANCHOR_NORMAL, 1, "pnlee"),
            ),
            (
                resolve_estimator(ANCHOR_NORMAL, 1, "pdt"),
                resolve_estimator(ANCHOR_NORMAL, 1, "rmle"),
            ),
        ]
        gaps = [0.0, 0.5, 2.0]
        n = 2 ** 14 + 3
        columns = columns_for(ANCHOR_NORMAL, pairs, gaps, LOC_ABS, n, base_seed=7)
        tasks = [
            [
                ComparisonTask(
                    ANCHOR_NORMAL, RestrictedParams(0.0, gap), cand, ref, LOC_ABS,
                    n_samples=n, seed=derive_cell_seed(7, i, 0),
                )
                for gap in gaps
            ]
            for i, (cand, ref) in enumerate(pairs)
        ]
        assert [list(column) for column in columns] == tasks
        assert [[r for r, _ in column] for column in run_columns(columns)] == [
            [gpn_monte_carlo(t) for t in column] for column in tasks
        ]

    @pytest.mark.parametrize("n", [1, 2 ** 14 - 1, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
    @pytest.mark.parametrize(
        "model, component, names, gaps",
        [
            (ANCHOR_NORMAL, 1, ("rmle", "pnlee"), [0.0, 0.5, 2.0]),
            (ExponentialLocation(1.0, 2.0), 1, ("pnlee_star", "pnlee"), [0.0, 0.5, 2.0]),
            (GammaScale(0.5, 0.2), 2, ("rmle_star", "rmle"), [1.0, 2.0, 5.0]),
            (PowerScale(2.0, 0.5), 2, ("pnsee_star", "pnsee"), [1.0, 1.5, 4.0]),
        ],
    )
    def test_column_cells_equal_lone_cells(self, model, component, names, gaps, n):
        # a column draws once and moves the draws to each gap; every cell
        # equals the cell run alone, and the comparison on sample's own
        # draws at the cell's parameters
        cand, ref = (resolve_estimator(model, component, name) for name in names)
        loss = LOC_ABS if model.kind is ProblemKind.LOCATION else SCALE_ABS
        column = column_tasks(model, cand, ref, gaps, loss, n, 5, 3)
        [cells] = run_columns([column])
        for task, (result, _) in zip(column, cells):
            assert result == gpn_monte_carlo(task) == unblocked_monte_carlo(task)

    def test_one_draw_per_run_of_shared_seeds(self, monkeypatch):
        # a job is a run of consecutive cells that share model, seed and
        # sample count: a column_tasks column draws once, and a mixed column
        # of seeds (11, 11, 12, 11), off the pinned points, draws three
        # times; every cell still equals the cell run alone and the
        # comparison on sample's own draws at its parameters
        seeds = []
        identity_draws = gpn._identity_draws

        def counting(task):
            seeds.append(task.seed)
            return identity_draws(task)

        monkeypatch.setattr(gpn, "_identity_draws", counting)
        cand = resolve_estimator(ANCHOR_NORMAL, 1, "rmle")
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        mixed = [
            ComparisonTask(ANCHOR_NORMAL, RestrictedParams(-1.5, theta2), cand, ref, LOC_ABS,
                           n_samples=2 ** 10, seed=seed)
            for theta2, seed in [(-1.5, 11), (-0.5, 11), (-1.0, 12), (0.5, 11)]
        ]
        column = column_tasks(ANCHOR_NORMAL, cand, ref, [0.5 * k for k in range(7)],
                              LOC_ABS, 2 ** 10, 42, 0)
        results = run_columns([mixed, column])
        assert sorted(seeds) == sorted([11, 12, 11, derive_cell_seed(42, 0, 0)])
        assert [[r for r, _ in cells] for cells in results] == [
            [gpn_monte_carlo(t) for t in mixed], [gpn_monte_carlo(t) for t in column],
        ]
        assert [r for r, _ in results[0]] == [unblocked_monte_carlo(t) for t in mixed]

    def test_oracle_cells_match_cell_by_cell(self):
        pair = [
            (
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle_star"),
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle"),
            )
        ]
        gaps = [1.0, 1.5, 3.0]
        [column] = run_columns(columns_for(ANCHOR_GAMMA, pair, gaps, SCALE_ABS, 64), oracle=True)
        for (_, value), gap in zip(column, gaps):
            task = ComparisonTask(
                ANCHOR_GAMMA, RestrictedParams(1.0, gap), *pair[0], SCALE_ABS, n_samples=64
            )
            assert value == gpn_oracle(task)

    def test_cell_error_comes_out_in_cell_order(self):
        # each failing kernel raises on the evaluating thread; the runner
        # raises the error of the first failing cell in (column, gap) order,
        # even when a later cell would fail sooner
        def failing(error, delay=0.0):
            def psi(t):
                time.sleep(delay)
                raise error("kernel failed")

            return Estimator("failing", 1, ProblemKind.LOCATION, psi)

        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        ok = (resolve_estimator(ANCHOR_NORMAL, 1, "rmle"), ref)
        for pairs, expected in [
            ([ok, (failing(FloatingPointError), ref)], FloatingPointError),
            ([(failing(ZeroDivisionError, delay=0.2), ref), (failing(KeyError), ref)],
             ZeroDivisionError),
        ]:
            with pytest.raises(expected):
                run_columns(columns_for(ANCHOR_NORMAL, pairs, [0.0, 1.0], LOC_ABS, 2 ** 15))

    def test_error_cancels_cells_not_started(self):
        # the failing first cell stops the run before the seven cells
        # behind it, 50 ms each, start
        ran = []

        def failing_psi(t):
            raise FloatingPointError("kernel failed")

        def recording_psi(t):
            ran.append(t.size)
            time.sleep(0.05)
            return t

        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        failing = Estimator("failing", 1, ProblemKind.LOCATION, failing_psi)
        recording = Estimator("recording", 1, ProblemKind.LOCATION, recording_psi)
        first = column_tasks(ANCHOR_NORMAL, failing, ref, [0.0], LOC_ABS, 64, 42, 0)
        rest = column_tasks(ANCHOR_NORMAL, recording, ref, [0.5 * k for k in range(7)],
                            LOC_ABS, 64, 42, 1)
        with pytest.raises(FloatingPointError):
            run_columns([first, rest])
        assert len(ran) < 7

    def test_job_stops_at_its_first_failing_cell(self):
        # cells that share a seed run as one job, in order; the cells behind
        # a failing one never run
        ran = []

        def failing_psi(t):
            raise FloatingPointError("kernel failed")

        def recording_psi(t):
            ran.append(t.size)
            return t

        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        column = [
            ComparisonTask(ANCHOR_NORMAL, RestrictedParams(0.0, 0.5 * k),
                           Estimator(name, 1, ProblemKind.LOCATION, psi), ref, LOC_ABS,
                           n_samples=64, seed=3)
            for k, (name, psi) in enumerate([("failing", failing_psi)]
                                            + [("recording", recording_psi)] * 3)
        ]
        with pytest.raises(FloatingPointError):
            run_columns([column])
        assert ran == []

    def test_at_most_two_jobs_draws_alive(self, monkeypatch):
        # the evaluating thread draws the first job and asks the drawing
        # thread for job k + 1's draws before it runs job k's cells, and lets
        # job k's draws go before it asks for job k + 2's: each draw after
        # the first finds exactly one other job's draws alive
        lock = threading.Lock()
        alive = [0]
        seen = []
        drawn_on = []
        identity_draws = gpn._identity_draws

        def release():
            with lock:
                alive[0] -= 1

        def counting(task):
            draws = identity_draws(task)
            with lock:
                alive[0] += len(draws)
                seen.append(alive[0])
            drawn_on.append(threading.current_thread().name.split("_")[0])
            for x in draws:
                weakref.finalize(x, release)
            return draws

        monkeypatch.setattr(gpn, "_identity_draws", counting)
        pairs = [
            (resolve_estimator(ANCHOR_NORMAL, 1, cand), resolve_estimator(ANCHOR_NORMAL, 1, ref))
            for cand, ref in [("rmle", "pnlee"), ("pdt", "rmle"), ("rmle", "pdt"),
                              ("pnlee", "rmle"), ("pdt", "pnlee")]
        ]
        columns = columns_for(ANCHOR_NORMAL, pairs, [0.0, 1.0], LOC_ABS, 2 ** 14 + 3)
        results = run_columns(columns)
        assert seen == [2] + [4] * 4
        assert drawn_on == ["pitnear-evaluate"] + ["pitnear-draw"] * 4
        assert alive == [0]
        assert [[r for r, _ in column] for column in results] == [
            [gpn_monte_carlo(t) for t in column] for column in columns
        ]

    def test_run_right_after_a_failed_run(self):
        # a failure leaves no job queued or half done behind it: a healthy
        # run that follows at once returns the lone cells' results
        def failing_psi(t):
            raise FloatingPointError("kernel failed")

        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        failing = Estimator("failing", 1, ProblemKind.LOCATION, failing_psi)
        pairs = [(resolve_estimator(ANCHOR_NORMAL, 1, name), ref) for name in ("rmle", "pdt")]
        with pytest.raises(FloatingPointError):
            run_columns([column_tasks(ANCHOR_NORMAL, failing, ref, [0.0], LOC_ABS, 2 ** 16, 42, 0)]
                        + columns_for(ANCHOR_NORMAL, pairs, [0.0, 1.0], LOC_ABS, 2 ** 16))
        columns = columns_for(ANCHOR_NORMAL, pairs, [0.0, 1.0], LOC_ABS, 2 ** 14 + 3, 9)
        results = []
        runner = threading.Thread(target=lambda: results.append(run_columns(columns)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert results == [[[(gpn_monte_carlo(t), None) for t in column] for column in columns]]

    def test_job_after_a_failure_draws_nothing(self, monkeypatch):
        # the first job's cell fails; the second job's draws were asked for
        # before it ran, but no later job draws, and no later cell runs
        drawn = []
        ran = []
        identity_draws = gpn._identity_draws

        def recording_draws(task):
            drawn.append(task.seed)
            return identity_draws(task)

        def failing_psi(t):
            raise FloatingPointError("kernel failed")

        def recording_psi(t):
            ran.append(t.size)
            return t

        monkeypatch.setattr(gpn, "_identity_draws", recording_draws)
        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        failing = Estimator("failing", 1, ProblemKind.LOCATION, failing_psi)
        recording = Estimator("recording", 1, ProblemKind.LOCATION, recording_psi)
        columns = [column_tasks(ANCHOR_NORMAL, failing, ref, [0.0], LOC_ABS, 64, 42, 0)] + [
            column_tasks(ANCHOR_NORMAL, recording, ref, [0.0, 1.0], LOC_ABS, 64, 42, i)
            for i in range(1, 4)
        ]
        with pytest.raises(FloatingPointError):
            run_columns(columns)
        assert drawn[0] == columns[0][0].seed
        assert set(drawn) <= {columns[0][0].seed, columns[1][0].seed}
        assert ran == []

    @pytest.mark.parametrize("failing_job", [0, 1])
    def test_draw_error_comes_out_at_its_jobs_first_cell(self, monkeypatch, failing_job):
        # job 0 draws on the evaluating thread and job 1 on the drawing
        # thread; either way the error of a draw is its job's first cell's,
        # raised after the cells before it ran and before any cell after it
        ran = []
        identity_draws = gpn._identity_draws

        def recording_psi(t):
            ran.append(t.size)
            return t

        ref = resolve_estimator(ANCHOR_NORMAL, 1, "pnlee")
        recording = Estimator("recording", 1, ProblemKind.LOCATION, recording_psi)
        columns = [column_tasks(ANCHOR_NORMAL, recording, ref, [0.0, 1.0], LOC_ABS, 64, 42, i)
                   for i in range(3)]

        def failing_draws(task):
            if task.seed == columns[failing_job][0].seed:
                raise KeyError("draw failed")
            return identity_draws(task)

        monkeypatch.setattr(gpn, "_identity_draws", failing_draws)
        with pytest.raises(KeyError, match="draw failed"):
            run_columns(columns)
        assert len(ran) == 2 * failing_job

    def test_cell_seeds_distinct(self):
        seeds = {derive_cell_seed(42, i, j) for i in range(4) for j in range(8)}
        assert len(seeds) == 32

    def test_gap_domain_validation(self):
        # a scale gap below 1 is rejected when the column is built
        with pytest.raises(DomainError):
            column_tasks(
                ANCHOR_GAMMA,
                resolve_estimator(ANCHOR_GAMMA, 2, "rmle"),
                resolve_estimator(ANCHOR_GAMMA, 2, "ue"),
                [0.5], SCALE_ABS, 64, 42, 0,
            )

    def test_oracle_column(self):
        pair = [
            (
                resolve_estimator(ANCHOR_NORMAL, 1, "rmle"),
                resolve_estimator(ANCHOR_NORMAL, 1, "pnlee"),
            )
        ]
        [[(_, value)]] = run_columns(
            columns_for(ANCHOR_NORMAL, pair, [0.0], LOC_ABS, 2 ** 10), oracle=True
        )
        assert value == pytest.approx(0.7300, abs=1e-3)


def test_benchmark_tracer_patch_points_exist(monkeypatch):
    # the benchmark's tracer patches each point through its owner's own
    # vars, so a name deleted or moved to a base class breaks its traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for owner, attr, _, _ in tracing.patch_points():
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.restored()
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_benchmark_tracer_keeps_the_call_shapes(monkeypatch):
    # the tracer calls each patched name as the package does, and wraps the
    # quadrature's integrand as traced(f, a, b, **kwargs): a traced oracle
    # cell and a traced table with oracle give their untraced results and
    # record integrand spans
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    task = ComparisonTask(
        ANCHOR_GAMMA, ANCHOR_GAMMA.kind.pinned_params(2.0),
        resolve_estimator(ANCHOR_GAMMA, 1, "rmle_star"), resolve_estimator(ANCHOR_GAMMA, 1, "rmle"),
        SCALE_ABS,
    )
    table = {"n_samples": 2000, "seed": 3, "oracle": True, "out": "csv"}
    untraced = gpn.gpn_oracle(task), cli.run_table(4, **table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = gpn.gpn_oracle(task), cli.run_table(4, **table)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.summary()["quadrature.integrand"]["count"] > 0
