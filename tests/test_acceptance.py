"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line.

Monte Carlo sample counts are powers of two where exact fraction arithmetic
matters (reflexivity and complement identities hold bitwise then).
"""

import csv
import io
import math

import numpy as np

from pitnear.cli import TABLES, run_table
from pitnear.estimators import (
    LossFn,
    catalog,
    clamp,
    normal_nu_family,
    resolve_estimator,
)
from pitnear.gpn import (
    LOCATION_DOMINANCE_GAPS,
    SCALE_DOMINANCE_GAPS,
    ComparisonTask,
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
)
from pitnear.specfun import gamma_median, regularized_gamma_p

from reference_tables import ANCHORS, REFERENCE

ACCEPTANCE_SEED = 42
TABLE_SAMPLES = 10 ** 5


def _report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def _loss(kind):
    return LossFn.from_name(
        "location_abs" if kind is ProblemKind.LOCATION else "scale_abs"
    )


def _nu_mid(model):
    a = model.alpha
    if a > 1.0:
        return (1.0 + a) / 2.0
    if a >= 0.0:
        return (a + 1.0) / 2.0
    return a / 2.0


def _certification_cases():
    """(model, component, candidate, reference) tuples whose clamp regions
    stay active across the whole dominance grid; model scales are sized so
    every cell's strict margin is resolvable by the oracle.
    """
    cases = []
    case1 = BivariateNormal(80.0, 30.0, 0.0)   # mixing coefficient in [0, 1)
    case3 = BivariateNormal(1.0, 80.0, 0.5)    # mixing coefficient > 1
    case4 = BivariateNormal(80.0, 1.0, 0.5)    # mixing coefficient < 0
    for model, pairs in [
        (case1, [("rmle", "pnlee"), ("psi_nu", "pnlee")]),
        (case3, [("rmle", "pnlee"), ("hp_star", "hp"),
                 ("psi_nu", "pnlee"), ("psi_nu_hp", "hp")]),
        (case4, [("rmle", "pnlee"), ("pdt", "pnlee"), ("rmle", "pdt"),
                 ("psi_nu", "pnlee"), ("psi_nu", "pdt")]),
    ]:
        for cand, ref in pairs:
            if cand.startswith("psi_nu"):
                est = normal_nu_family(model, _nu_mid(model), hp_tail=cand.endswith("hp"))
            else:
                est = resolve_estimator(model, 1, cand)
            cases.append((model, 1, est, resolve_estimator(model, 1, ref)))
    for model in (case1, case3, case4):
        cases.append(
            (model, 2, resolve_estimator(model, 2, "pnlee_star"),
             resolve_estimator(model, 2, "pnlee"))
        )
    exp = ExponentialLocation(30.0, 40.0)
    for comp in (1, 2):
        for cand, ref in [("pnlee_star", "pnlee"), ("rmle_star", "rmle")]:
            cases.append(
                (exp, comp, resolve_estimator(exp, comp, cand),
                 resolve_estimator(exp, comp, ref))
            )
    for cfg in [(0.5, 0.2), (1.0, 1.0), (30.0, 1.0)]:
        g = GammaScale(*cfg)
        for cand, ref in [("rmle_star", "rmle"), ("pnsee_star", "pnsee"), ("ue_star", "ue")]:
            cases.append((g, 1, resolve_estimator(g, 1, cand), resolve_estimator(g, 1, ref)))
        for cand, ref in [("rmle_star", "rmle"), ("pnsee_star", "pnsee"), ("rmle", "ue")]:
            cases.append((g, 2, resolve_estimator(g, 2, cand), resolve_estimator(g, 2, ref)))
    for cfg in [(1.0, 1.0), (2.0, 0.5)]:
        p = PowerScale(*cfg)
        for comp in (1, 2):
            cases.append(
                (p, comp, resolve_estimator(p, comp, "pnsee_star"),
                 resolve_estimator(p, comp, "pnsee"))
            )
    return cases


def test_criterion_1_table_reproduction():
    """All 252 cells of tables 1-6 at n=1e5 within +-0.02 of the published
    values, including the four spot anchors.
    """
    worst = 0.0
    worst_cell = None
    failures = []
    got = {}
    for tbl in range(1, 7):
        spec = TABLES[tbl]
        text = run_table(tbl, n_samples=TABLE_SAMPLES, seed=ACCEPTANCE_SEED, out="csv")
        reader = csv.reader(io.StringIO(text))
        next(reader)
        values = [float(row[2]) for row in reader if row]
        grid = np.array(values).reshape(len(spec.configs), len(spec.gaps)).T
        got[tbl] = grid
        diff = np.abs(grid - np.array(REFERENCE[tbl]))
        k = np.unravel_index(np.argmax(diff), diff.shape)
        if diff[k] > worst:
            worst, worst_cell = float(diff[k]), (tbl, spec.gaps[k[0]], spec.configs[k[1]])
        bad = np.argwhere(diff > 0.02)
        failures += [(tbl, tuple(b)) for b in bad]
    anchor_bad = [
        key for key, val in ANCHORS.items()
        if abs(got[key[0]][key[1], key[2]] - val) > 0.02
    ]
    ok = not failures and not anchor_bad
    _report(
        1, "table reproduction", ok,
        f"252 cells at n=1e5, seed={ACCEPTANCE_SEED}; worst |diff|={worst:.4f} "
        f"at table {worst_cell}; anchors checked: {len(ANCHORS)}",
    )
    assert not failures, f"cells beyond 0.02: {failures}"
    assert not anchor_bad


def test_criterion_2_dominance_certification():
    """Oracle GPN > 0.5 + 1e-6 for every certified (improved, base) pair at
    every gap of the dominance grid.
    """
    failures = []
    min_margin = math.inf
    n_cells = 0
    for model, comp, cand, ref in _certification_cases():
        gaps = (
            LOCATION_DOMINANCE_GAPS
            if model.kind is ProblemKind.LOCATION
            else SCALE_DOMINANCE_GAPS
        )
        loss = _loss(model.kind)
        for gap in gaps:
            task = ComparisonTask(model, model.kind.pinned_params(gap), cand, ref, loss)
            val = gpn_oracle(task, abs_tol=1e-8)
            n_cells += 1
            min_margin = min(min_margin, val - 0.5)
            if not val > 0.5 + 1e-6:
                failures.append((type(model).__name__, comp, cand.name, ref.name, gap, val))
    ok = not failures
    _report(
        2, "dominance certification", ok,
        f"{n_cells} (pair, gap) cells; min margin above 1/2 = {min_margin:.2e}",
    )
    assert not failures, failures


def test_criterion_3_oracle_monte_carlo_equivalence():
    """20 randomly selected (pair, gap) cells: |oracle - MC(1e6)| <= 4 se."""
    cases = _certification_cases()
    rng = np.random.default_rng(20250809)
    picks = rng.choice(len(cases), size=20, replace=True)
    tasks = []
    for i, pick in enumerate(picks):
        model, comp, cand, ref = cases[pick]
        gaps = (
            LOCATION_DOMINANCE_GAPS
            if model.kind is ProblemKind.LOCATION
            else SCALE_DOMINANCE_GAPS
        )
        gap = float(gaps[rng.integers(len(gaps))])
        tasks.append(ComparisonTask(
            model, model.kind.pinned_params(gap), cand, ref, _loss(model.kind),
            n_samples=10 ** 6, seed=derive_cell_seed(ACCEPTANCE_SEED, int(pick), i),
        ))
    # run_columns takes each oracle value at gpn_oracle's default abs_tol, 1e-8
    [results] = run_columns([tasks], oracle=True)
    worst = 0.0
    failures = []
    for task, (mc, val) in zip(tasks, results):
        gap_se = abs(val - mc.estimate) / max(mc.std_error, 1e-12)
        worst = max(worst, gap_se)
        if abs(val - mc.estimate) > 4.0 * mc.std_error:
            failures.append((type(task.model).__name__, task.candidate.name, task.reference.name,
                             task.params.gap(task.model.kind), val, mc.estimate))
    ok = not failures
    _report(
        3, "oracle-MC equivalence", ok,
        f"20 cells at n=1e6; worst |oracle-MC| = {worst:.2f} se",
    )
    assert not failures, failures


def test_criterion_4_special_function_accuracy():
    """Gamma-median residuals below 1e-12 on the ten listed shapes, with the
    Chen-Rubin bracket wherever it applies.
    """
    alphas = [0.2, 0.5, 0.7, 1.0, 1.2, 2.0, 2.5, 5.0, 7.0, 31.0]
    worst = 0.0
    bracket_ok = True
    for a in alphas:
        m = gamma_median(a)
        worst = max(worst, abs(regularized_gamma_p(a, m) - 0.5))
        if a >= 1.0 / 3.0 and not (a - 1.0 / 3.0 < m < a):
            bracket_ok = False
    ok = worst <= 1e-12 and bracket_ok
    _report(
        4, "special-function accuracy", ok,
        f"10 shapes; worst median residual {worst:.2e}; bracket holds: {bracket_ok}",
    )
    assert worst <= 1e-12
    assert bracket_ok


def _random_comparison_pool():
    pool = []
    for model in (
        BivariateNormal(1.0, 2.0, -0.4),
        BivariateNormal(0.5, 5.0, 0.9),
        ExponentialLocation(1.0, 2.0),
        GammaScale(1.0, 1.0),
        GammaScale(5.0, 2.0),
        PowerScale(2.0, 0.5),
    ):
        for comp in (1, 2):
            ests = catalog(model, comp)
            for a in ests:
                for b in ests:
                    pool.append((model, comp, a, b))
    return pool


def _check_reflexivity(n_inputs=1000):
    pool = _random_comparison_pool()
    rng = np.random.default_rng(1)
    for k in range(n_inputs):
        model, comp, a, _ = pool[int(rng.integers(len(pool)))]
        gap = float(rng.uniform(0.0, 4.0)) if model.kind is ProblemKind.LOCATION \
            else float(rng.uniform(1.0, 5.0))
        task = ComparisonTask(
            model, model.kind.pinned_params(gap), a, a, _loss(model.kind),
            n_samples=256, seed=int(rng.integers(2 ** 63)),
        )
        r = gpn_monte_carlo(task)
        if r.estimate != 0.5 or r.tie_fraction != 1.0:
            return False, f"reflexivity broke at input {k}"
    return True, None


def _check_complement(n_inputs=1000):
    pool = _random_comparison_pool()
    rng = np.random.default_rng(2)
    for k in range(n_inputs):
        model, comp, a, b = pool[int(rng.integers(len(pool)))]
        gap = float(rng.uniform(0.0, 4.0)) if model.kind is ProblemKind.LOCATION \
            else float(rng.uniform(1.0, 5.0))
        seed = int(rng.integers(2 ** 63))
        fwd = ComparisonTask(model, model.kind.pinned_params(gap), a, b,
                             _loss(model.kind), n_samples=1024, seed=seed)
        rev = ComparisonTask(model, model.kind.pinned_params(gap), b, a,
                             _loss(model.kind), n_samples=1024, seed=seed)
        rf, rb = gpn_monte_carlo(fwd), gpn_monte_carlo(rev)
        if rf.estimate + rb.estimate != 1.0 or rf.tie_fraction != rb.tie_fraction:
            return False, f"complement broke at input {k}"
    return True, None


def _check_idempotence(n_inputs=1200):
    rng = np.random.default_rng(3)
    cases = [
        (BivariateNormal(1.0, 1.0, 0.0), 1),
        (BivariateNormal(0.5, 5.0, 0.9), 1),
        (BivariateNormal(5.0, 0.5, 0.9), 2),
        (ExponentialLocation(1.0, 2.0), 1),
        (ExponentialLocation(2.0, 1.0), 2),
        (GammaScale(0.5, 0.2), 1),
        (GammaScale(30.0, 1.0), 2),
        (PowerScale(2.0, 0.5), 1),
        (PowerScale(1.0, 1.0), 2),
    ]
    for model, comp in cases:
        if model.kind is ProblemKind.LOCATION:
            t = rng.uniform(-30.0, 30.0, n_inputs)
        else:
            t = np.exp(rng.uniform(-5.0, 5.0, n_inputs))
        for est in catalog(model, comp):
            once = clamp(est, model)
            twice = clamp(once, model)
            if not np.array_equal(once.psi(t), twice.psi(t)):
                return False, f"idempotence broke: {type(model).__name__} {est.name}"
    return True, None


def _check_equivariance(n_inputs=1000):
    rng = np.random.default_rng(4)
    x1 = rng.uniform(-40.0, 40.0, n_inputs)
    x2 = rng.uniform(-40.0, 40.0, n_inputs)
    for model in (BivariateNormal(2.0, 1.0, 0.3), ExponentialLocation(1.0, 2.0)):
        for comp in (1, 2):
            for est in catalog(model, comp):
                base = est.evaluate(x1, x2)
                for c in (-5.0, 1.3, 100.0):
                    if not np.allclose(est.evaluate(x1 + c, x2 + c), base + c,
                                       rtol=1e-9, atol=1e-7):
                        return False, f"location equivariance broke: {est.name}"
    y1 = np.exp(rng.uniform(-3.0, 3.0, n_inputs))
    y2 = np.exp(rng.uniform(-3.0, 3.0, n_inputs))
    for model in (GammaScale(0.5, 0.2), GammaScale(5.0, 2.0), PowerScale(1.0, 1.0)):
        for comp in (1, 2):
            for est in catalog(model, comp):
                base = est.evaluate(y1, y2)
                for b in (0.1, 1.0, 7.0):
                    if not np.allclose(est.evaluate(b * y1, b * y2), b * base,
                                       rtol=1e-10):
                        return False, f"scale equivariance broke: {est.name}"
    return True, None


def _check_case_coincidences(n_inputs_per_case=1200):
    rng = np.random.default_rng(5)
    n_cfg, n_obs = 40, 30
    assert n_cfg * n_obs >= n_inputs_per_case
    made = {"I": 0, "III": 0, "IV": 0}
    while min(made.values()) * n_obs < n_inputs_per_case:
        s1, s2 = rng.uniform(0.1, 10.0, 2)
        rho = rng.uniform(-0.95, 0.95)
        model = BivariateNormal(float(s1), float(s2), float(rho))
        a = model.alpha
        case = "I" if 0.0 <= a < 1.0 else "III" if a > 1.0 else "IV"
        made[case] += 1
        x1 = rng.uniform(-20.0, 20.0, n_obs)
        x2 = rng.uniform(-20.0, 20.0, n_obs)
        cat = {e.name: e for e in catalog(model, 1)}
        if case == "I":
            hp = cat["hp"].evaluate(x1, x2)
            if not (np.array_equal(hp, cat["pdt"].evaluate(x1, x2))
                    and np.array_equal(hp, cat["rmle"].evaluate(x1, x2))):
                return False, f"case I coincidence broke at alpha={a}"
        elif case == "III":
            if not np.array_equal(cat["pdt"].evaluate(x1, x2), cat["pnlee"].evaluate(x1, x2)):
                return False, f"case III coincidence broke at alpha={a}"
        else:
            if not np.array_equal(cat["hp"].evaluate(x1, x2), cat["rmle"].evaluate(x1, x2)):
                return False, f"case IV coincidence broke at alpha={a}"
    return True, None


def test_criterion_5_structural_invariants():
    """Reflexivity, complement, clamp idempotence, equivariance, and the
    case-coincidence identities as randomized property checks (>= 1000
    randomized inputs each).
    """
    checks = {
        "reflexivity": _check_reflexivity(),
        "complement": _check_complement(),
        "idempotence": _check_idempotence(),
        "equivariance": _check_equivariance(),
        "case coincidences": _check_case_coincidences(),
    }
    bad = {name: msg for name, (ok, msg) in checks.items() if not ok}
    _report(
        5, "structural invariants", not bad,
        "reflexivity/complement/idempotence/equivariance/coincidences, "
        ">=1000 randomized inputs each" + (f"; failed: {bad}" if bad else ""),
    )
    assert not bad, bad


def test_criterion_6_median_consistency():
    """cond_cdf at the closed-form conditional median is 0.5 +- 1e-10 on a
    5x5 (gap, t) grid for every model and component.
    """
    worst = 0.0
    for model in (
        BivariateNormal(3.0, 0.5, -0.9),
        ExponentialLocation(1.0, 2.0),
        GammaScale(0.5, 0.2),
        PowerScale(2.0, 0.5),
    ):
        if model.kind is ProblemKind.LOCATION:
            lams, ts = [0.0, 0.5, 1.0, 2.0, 5.0], [-3.0, -1.0, 0.0, 1.5, 4.0]
        else:
            lams, ts = [1.0, 1.5, 2.0, 3.0, 5.0], [0.25, 0.5, 1.0, 2.0, 4.0]
        for comp in (1, 2):
            for lam in lams:
                for t in ts:
                    m = model.cond_median(comp, lam, t)
                    worst = max(worst, abs(model.cond_cdf(comp, lam, t, m) - 0.5))
    ok = worst <= 1e-10
    _report(
        6, "median consistency", ok,
        f"4 models x 2 components x 5x5 grid; worst |cdf(median)-1/2| = {worst:.2e}",
    )
    assert worst <= 1e-10
