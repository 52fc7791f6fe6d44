"""The benchmark's workloads. Each builds its inputs from the seed, lists the
top-level calls of one pass, and checks every output (outside the timed
region) against the engine's stated error or against stored references.

Every workload is a closed loop: one process, one thread, one call in flight.
Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pitnear.cli as cli
import pitnear.gpn as gpn
from pitnear.estimators import LossFn, normal_nu_family, resolve_estimator
from pitnear.models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    PowerScale,
    ProblemKind,
    RestrictedParams,
)

DATA = Path(__file__).resolve().parent / "data"

# Agreement bound between a Monte Carlo estimate and the oracle, in standard
# errors of the estimate.
MC_SE_BOUND = 5.0


@dataclass
class Call:
    """One top-level call into the program. ``run`` returns the output that
    ``check`` judges; ``check`` returns one message per failed cell.
    """

    key: str
    run: Callable[[], object]
    cells: int
    check: Callable[[object], list[str]]


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _mc_vs_oracle(label: str, gpn_value: float, se: float, oracle: float) -> list[str]:
    if not (0.0 <= gpn_value <= 1.0 and 0.0 <= oracle <= 1.0):
        return [f"{label}: value outside [0, 1]: mc={gpn_value!r} oracle={oracle!r}"]
    if not abs(gpn_value - oracle) <= MC_SE_BOUND * se:
        return [
            f"{label}: |mc - oracle| = {abs(gpn_value - oracle):.3g} "
            f"exceeds {MC_SE_BOUND:g} se = {MC_SE_BOUND * se:.3g}"
        ]
    return []


class TablesMC:
    """``run_table(t, n_samples=1e5, out="csv")`` for the six built-in
    tables: 252 Monte Carlo cells and no oracle. Each cell must lie within
    5 se of the oracle value stored in ``data/tables_oracle.json``.
    """

    name = "tables_mc"
    n_samples = 100_000
    tables = (1, 2, 3, 4, 5, 6)
    cells_per_table = 42
    recheck_calls = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict[str, list[float]] = {}

    def sizes(self) -> dict:
        return {"tables": len(self.tables),
                "cells_per_pass": len(self.tables) * self.cells_per_table,
                "n_samples": self.n_samples}

    def load_reference(self) -> None:
        self.reference = json.loads((DATA / "tables_oracle.json").read_text())["oracle"]

    def calls(self, k: int) -> list[Call]:
        # Every pass repeats the same tables at the same seed, so repeated
        # passes must print byte-identical CSV.
        return [
            Call(
                key=f"table{t}",
                run=lambda t=t: cli.run_table(t, n_samples=self.n_samples,
                                              seed=self.seed, out="csv"),
                cells=self.cells_per_table,
                check=lambda text, t=t: self._check(t, text),
            )
            for t in self.tables
        ]

    def _check(self, table: int, text: str) -> list[str]:
        header, rows = _csv_rows(text)
        oracle = self.reference[str(table)]
        if header[:7] != ["pair", "gap", "gpn", "std_error", "tie_fraction", "n", "seed"] \
                or len(rows) != len(oracle):
            return [f"table {table}: unexpected CSV layout"] * self.cells_per_table
        errors = []
        for i, (row, ref) in enumerate(zip(rows, oracle)):
            label = f"table {table} row {i} ({row[0]} gap {row[1]})"
            if int(row[5]) != self.n_samples:
                errors.append(f"{label}: n={row[5]}")
                continue
            errors += _mc_vs_oracle(label, float(row[2]), float(row[3]), ref)
        return errors


# The clamp-dominance gap grids, fixed here so that the workload does not
# change when the program's grids do.
LOCATION_GAPS = tuple(round(0.25 * k, 2) for k in range(21)) + (10.0, 100.0)
SCALE_GAPS = tuple(round(1.0 + 0.25 * k, 2) for k in range(17)) + (10.0, 100.0)


def _nu_mid(model: BivariateNormal) -> float:
    a = model.alpha
    if a > 1.0:
        return (1.0 + a) / 2.0
    if a >= 0.0:
        return (a + 1.0) / 2.0
    return a / 2.0


def certification_cases() -> list[tuple]:
    """The 40 (model, component, candidate, reference) cases of the clamp
    dominance certification, resolved through the public catalog.
    """
    cases = []
    normal_a = BivariateNormal(80.0, 30.0, 0.0)   # mixing coefficient in [0, 1)
    normal_b = BivariateNormal(1.0, 80.0, 0.5)    # mixing coefficient > 1
    normal_c = BivariateNormal(80.0, 1.0, 0.5)    # mixing coefficient < 0
    for model, pairs in [
        (normal_a, [("rmle", "pnlee"), ("psi_nu", "pnlee")]),
        (normal_b, [("rmle", "pnlee"), ("hp_star", "hp"),
                    ("psi_nu", "pnlee"), ("psi_nu_hp", "hp")]),
        (normal_c, [("rmle", "pnlee"), ("pdt", "pnlee"), ("rmle", "pdt"),
                    ("psi_nu", "pnlee"), ("psi_nu", "pdt")]),
    ]:
        for cand, ref in pairs:
            if cand.startswith("psi_nu"):
                est = normal_nu_family(model, _nu_mid(model), hp_tail=cand.endswith("hp"))
            else:
                est = resolve_estimator(model, 1, cand)
            cases.append((model, 1, est, resolve_estimator(model, 1, ref)))
    for model in (normal_a, normal_b, normal_c):
        cases.append((model, 2, resolve_estimator(model, 2, "pnlee_star"),
                      resolve_estimator(model, 2, "pnlee")))
    exp = ExponentialLocation(30.0, 40.0)
    for comp in (1, 2):
        for cand, ref in [("pnlee_star", "pnlee"), ("rmle_star", "rmle")]:
            cases.append((exp, comp, resolve_estimator(exp, comp, cand),
                          resolve_estimator(exp, comp, ref)))
    for shapes in [(0.5, 0.2), (1.0, 1.0), (30.0, 1.0)]:
        g = GammaScale(*shapes)
        for cand, ref in [("rmle_star", "rmle"), ("pnsee_star", "pnsee"), ("ue_star", "ue")]:
            cases.append((g, 1, resolve_estimator(g, 1, cand), resolve_estimator(g, 1, ref)))
        for cand, ref in [("rmle_star", "rmle"), ("pnsee_star", "pnsee"), ("rmle", "ue")]:
            cases.append((g, 2, resolve_estimator(g, 2, cand), resolve_estimator(g, 2, ref)))
    for shapes in [(1.0, 1.0), (2.0, 0.5)]:
        p = PowerScale(*shapes)
        for comp in (1, 2):
            cases.append((p, comp, resolve_estimator(p, comp, "pnsee_star"),
                          resolve_estimator(p, comp, "pnsee")))
    return cases


def certification_tasks() -> list[tuple[str, gpn.ComparisonTask]]:
    """The 832 (label, task) oracle cells in canonical order: cases outer,
    gaps inner.
    """
    cells = []
    for i, (model, comp, cand, ref) in enumerate(certification_cases()):
        if model.kind is ProblemKind.LOCATION:
            gaps, loss = LOCATION_GAPS, LossFn.from_name("location_abs")
        else:
            gaps, loss = SCALE_GAPS, LossFn.from_name("scale_abs")
        for gap in gaps:
            params = (RestrictedParams(0.0, gap) if model.kind is ProblemKind.LOCATION
                      else RestrictedParams(1.0, gap))
            label = f"case {i} {model} c{comp} {cand.name}/{ref.name} gap {gap:g}"
            cells.append((label, gpn.ComparisonTask(model, params, cand, ref, loss)))
    return cells


class OracleCertify:
    """``gpn_oracle(task, abs_tol=1e-8)`` once per cell over the 832 cells of
    the clamp-dominance certification. The seed only shuffles the cell
    order. Each value must exceed 1/2 + 1e-6 and match the value stored in
    ``data/oracle_certify.json`` to 1e-10.
    """

    name = "oracle_certify"
    abs_tol = 1e-8
    recheck_calls = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = certification_tasks()
        self.reference: list[float] = []

    def sizes(self) -> dict:
        return {"cases": 40, "cells_per_pass": len(self.cells), "abs_tol": self.abs_tol}

    def load_reference(self) -> None:
        self.reference = json.loads((DATA / "oracle_certify.json").read_text())["oracle"]

    def calls(self, k: int) -> list[Call]:
        order = np.random.default_rng([self.seed, k]).permutation(len(self.cells))
        return [
            Call(
                key=str(i),
                run=lambda task=self.cells[i][1]: gpn.gpn_oracle(task, abs_tol=self.abs_tol),
                cells=1,
                check=lambda value, i=i: self._check(i, value),
            )
            for i in map(int, order)
        ]

    def _check(self, i: int, value: float) -> list[str]:
        label = self.cells[i][0]
        if not value > 0.5 + 1e-6:
            return [f"{label}: oracle {value!r} does not exceed 1/2 + 1e-6"]
        if not abs(value - self.reference[i]) <= 1e-10:
            return [f"{label}: oracle {value!r} differs from reference {self.reference[i]!r}"]
        return []


# The catalog's clamp-improved (star) estimators paired with their bases.
STAR_PAIRS = {
    ("normal", 1): [("hp_star", "hp")],
    ("normal", 2): [("pnlee_star", "pnlee"), ("rmle_star", "rmle")],
    ("exponential", 1): [("pnlee_star", "pnlee"), ("rmle_star", "rmle")],
    ("exponential", 2): [("pnlee_star", "pnlee"), ("rmle_star", "rmle")],
    ("gamma", 1): [("rmle_star", "rmle"), ("pnsee_star", "pnsee"), ("ue_star", "ue")],
    ("gamma", 2): [("rmle_star", "rmle"), ("pnsee_star", "pnsee")],
    ("power", 1): [("pnsee_star", "pnsee")],
    ("power", 2): [("pnsee_star", "pnsee")],
}


def _draw_model(rng: np.random.Generator, name: str, component: int) -> dict:
    if name == "normal":
        while True:
            s1, s2 = rng.uniform(0.5, 5.0, 2)
            rho = rng.uniform(-0.9, 0.9)
            # hp_star exists only when the mixing coefficient exceeds 1,
            # that is when rho * sigma2 > sigma1.
            if component == 2 or rho * s2 > s1:
                return {"name": name, "sigma1": float(s1), "sigma2": float(s2),
                        "rho": float(rho)}
    if name == "exponential":
        s1, s2 = rng.uniform(0.5, 5.0, 2)
        return {"name": name, "sigma1": float(s1), "sigma2": float(s2)}
    high = 5.0 if name == "gamma" else 3.0
    a1, a2 = rng.uniform(0.5, high, 2)
    return {"name": name, "alpha1": float(a1), "alpha2": float(a2)}


class PointQueries:
    """240 one-cell ``run_config_dict`` calls per pass, each one star-vs-base
    pair at one gap with n_samples=1e4, the oracle on and CSV output. The
    calls cycle through the four models and both components; model
    parameters, pair, gap and call seed are drawn from the workload seed and
    the pass number, so no two passes repeat a model. Each cell's Monte
    Carlo value must lie within 5 se of its oracle value.
    """

    name = "point_queries"
    calls_per_pass = 240
    n_samples = 10_000
    recheck_calls = 24

    def __init__(self, seed: int):
        self.seed = seed
        self.first = self.configs(0)

    def sizes(self) -> dict:
        return {"calls_per_pass": self.calls_per_pass, "cells_per_call": 1,
                "n_samples": self.n_samples}

    def load_reference(self) -> None:
        pass

    def configs(self, k: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, k])
        combos = list(STAR_PAIRS)
        out = []
        for i in range(self.calls_per_pass):
            name, component = combos[i % len(combos)]
            model = _draw_model(rng, name, component)
            pairs = STAR_PAIRS[(name, component)]
            cand, ref = pairs[int(rng.integers(len(pairs)))]
            if name in ("normal", "exponential"):
                gap, loss = float(rng.uniform(0.0, 3.0)), "location_abs"
            else:
                gap, loss = float(rng.uniform(1.0, 4.0)), "scale_abs"
            out.append({
                "model": model, "component": component, "pairs": [[cand, ref]],
                "gaps": [gap], "loss": loss, "n_samples": self.n_samples,
                "seed": int(rng.integers(2 ** 31)), "oracle": True, "output": "csv",
            })
        return out

    def calls(self, k: int) -> list[Call]:
        configs = self.first if k == 0 else self.configs(k)
        return [
            Call(
                key=f"{k}.{i}",
                run=lambda cfg=cfg: cli.run_config_dict(cfg),
                cells=1,
                check=lambda text, cfg=cfg: self._check(cfg, text),
            )
            for i, cfg in enumerate(configs)
        ]

    def _check(self, cfg: dict, text: str) -> list[str]:
        header, rows = _csv_rows(text)
        label = f"{cfg['model']} c{cfg['component']} {cfg['pairs'][0]} gap {cfg['gaps'][0]!r}"
        if header[-1] != "oracle" or len(rows) != 1:
            return [f"{label}: unexpected CSV layout"]
        row = rows[0]
        return _mc_vs_oracle(label, float(row[2]), float(row[3]), float(row[-1]))


def memory_probe_task(seed: int) -> gpn.ComparisonTask:
    """The Monte Carlo cell whose peak traced memory per draw is reported:
    the heaviest table path, a gamma cell at the tables' sample count.
    """
    model = GammaScale(0.5, 0.2)
    return gpn.ComparisonTask(
        model, RestrictedParams(1.0, 2.0),
        resolve_estimator(model, 2, "rmle_star"), resolve_estimator(model, 2, "rmle"),
        LossFn.from_name("scale_abs"), n_samples=TablesMC.n_samples, seed=seed,
    )


WORKLOADS = {w.name: w for w in (TablesMC, OracleCertify, PointQueries)}
