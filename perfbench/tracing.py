"""Span recorder for the traced benchmark run.

Wraps the public functions of each ``pitnear`` module at the place where
they are looked up (``from .x import y`` binds a copy into the importing
module, so the importer's name is the one patched), records one span per
call with a parent link, and restores every original name afterwards.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from array import array
from pathlib import Path

import numpy as np


def _no_size(*args, **kwargs) -> int:
    return 0


def _elems_of_second(first, x, *args, **kwargs) -> int:
    return int(np.size(x))


def _elems_of_first(x, *args, **kwargs) -> int:
    return int(np.size(x))


def _draws(self, params, rng, size=None) -> int:
    return 1 if size is None else int(size)


def patch_points():
    """(owner, attribute, span name, size function) for every wrapped name.

    The size function maps the call's arguments to the work count stored on
    the span: array elements for the special functions, draws for sampling.
    """
    import pitnear.cli as cli
    import pitnear.estimators as estimators
    import pitnear.gpn as gpn
    import pitnear.models as models

    points = [
        (gpn, "adaptive_quadrature", "quadrature.adaptive", _no_size),
        (cli, "run_table", "cli.run_table", _no_size),
        (cli, "run_config_dict", "cli.run_config_dict", _no_size),
        (cli, "resolve_estimator", "cli.resolve_estimator", _no_size),
        (gpn, "gpn_monte_carlo", "gpn.monte_carlo", _no_size),
        (gpn, "gpn_oracle", "gpn.oracle", _no_size),
        (models, "regularized_gamma_p", "specfun.gammainc", _elems_of_second),
        (models, "normal_cdf", "specfun.normal_cdf", _elems_of_first),
        (models, "gamma_median", "specfun.gamma_median", _no_size),
        (estimators, "gamma_median", "specfun.gamma_median", _no_size),
        (estimators, "catalog", "estimators.catalog", _no_size),
        (estimators.Estimator, "evaluate", "estimators.evaluate", _no_size),
        (estimators.LossFn, "evaluate", "estimators.loss", _no_size),
    ]
    for cls in (models.BivariateNormal, models.ExponentialLocation,
                models.GammaScale, models.PowerScale):
        points += [
            (cls, "sample", "models.sample", _draws),
            (cls, "cond_cdf", "models.cond_cdf", _no_size),
            (cls, "d_density", "models.d_density", _no_size),
        ]
    return points


class Tracer:
    """In-memory spans: name, parent, start and end (ns), time covered by
    child spans, and a work count. Span ids are indices into the arrays.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, size: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0)
        self.child.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        t = time.perf_counter_ns()
        self._stack.pop()
        self.end[i] = t
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        i = self._open(self._intern(name), size)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, size_of=_no_size):
        name_id = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id, size_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_quadrature(self, name: str, fn):
        """adaptive_quadrature, with its integrand wrapped too: one integrand
        span is one 15-node Gauss-Kronrod panel.
        """
        name_id = self._intern(name)
        open_, close, wrap = self._open, self._close, self.wrap

        @functools.wraps(fn)
        def traced(f, a, b, **kwargs):
            i = open_(name_id, 0)
            try:
                return fn(wrap("quadrature.integrand", f, _elems_of_first), a, b, **kwargs)
            finally:
                close(i)

        return traced

    def install(self) -> None:
        for owner, attr, name, size_of in patch_points():
            original = vars(owner)[attr]
            if attr == "adaptive_quadrature":
                traced = self._wrap_quadrature(name, original)
            else:
                traced = self.wrap(name, original, size_of)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched name holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed work count."""
        totals = {name: [0, 0, 0, 0] for name in self.names}
        for nid, t0, t1, child, size in zip(self.name, self.start, self.end,
                                            self.child, self.size):
            acc = totals[self.names[nid]]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child
            acc[3] += size
        return {
            name: {"count": count, "total_s": total * 1e-9,
                   "self_s": self_ns * 1e-9, "size": size}
            for name, (count, total, self_ns, size) in totals.items()
        }

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON columns; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "size": list(self.size),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics (without the two measured outside the spans)."""

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0.0 if field.endswith("_s") else 0)

    draws = get("models.sample", "size")
    sample_s = get("models.sample", "total_s")
    oracle_calls = get("gpn.oracle", "count")
    panels = get("quadrature.integrand", "count")
    return {
        "models.sample_s": sample_s,
        "models.draws": draws,
        "models.sample_ns_per_draw": sample_s * 1e9 / draws if draws else 0.0,
        "models.cond_cdf_s": get("models.cond_cdf", "total_s"),
        "models.d_density_s": get("models.d_density", "total_s"),
        "estimators.catalog_builds": get("estimators.catalog", "count"),
        "estimators.catalog_s": get("estimators.catalog", "total_s"),
        "estimators.evaluate_s": get("estimators.evaluate", "total_s"),
        "estimators.loss_s": get("estimators.loss", "total_s"),
        "gpn.mc_calls": get("gpn.monte_carlo", "count"),
        "gpn.mc_self_s": get("gpn.monte_carlo", "self_s"),
        "gpn.oracle_calls": oracle_calls,
        "gpn.oracle_self_s": get("gpn.oracle", "self_s"),
        "quadrature.calls": get("quadrature.adaptive", "count"),
        "quadrature.panels": panels,
        "quadrature.panels_per_cell": panels / oracle_calls if oracle_calls else 0.0,
        "quadrature.integrand_s": get("quadrature.integrand", "total_s"),
        "quadrature.self_s": get("quadrature.adaptive", "self_s"),
        "specfun.gammainc_calls": get("specfun.gammainc", "count"),
        "specfun.gammainc_elems": get("specfun.gammainc", "size"),
        "specfun.gammainc_s": get("specfun.gammainc", "total_s"),
        "specfun.normal_cdf_elems": get("specfun.normal_cdf", "size"),
        "specfun.normal_cdf_s": get("specfun.normal_cdf", "total_s"),
        "specfun.gamma_median_calls": get("specfun.gamma_median", "count"),
        "specfun.gamma_median_s": get("specfun.gamma_median", "total_s"),
        "cli.self_s": sum(v["self_s"] for k, v in summary.items() if k.startswith("cli.")),
    }
