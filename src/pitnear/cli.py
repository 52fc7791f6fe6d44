"""Command-line harness: reproduce the six built-in simulation tables or run
a custom comparison sweep from a JSON config, emitting aligned markdown or
CSV with full seed provenance.

Exit codes: 0 success, 2 usage/schema error, 3 unknown estimator,
4 numerical failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import click

from .errors import (
    ConfigError,
    DomainError,
    PitnearError,
    UnknownEstimatorError,
    UnsupportedCaseError,
)
from .estimators import LossFn, _family_names, resolve_estimator
from .gpn import ComparisonTask, column_tasks, derive_cell_seed, run_columns
from .models import BivariateNormal, GammaScale, finite_number, model_from_config

__all__ = ["main", "run_table", "TABLES", "TableSpec"]


@dataclass(frozen=True)
class TableSpec:
    """One built-in simulation table: a fixed pair swept over the gap grid of
    the model's kind for six model configurations.
    """

    title: str
    model_cls: type
    configs: tuple[tuple[float, ...], ...]
    component: int
    candidate: str
    reference: str

    @property
    def gaps(self) -> tuple[float, ...]:
        # seven gaps 0.5 apart, from the gap of equal parameters
        return tuple(self.model_cls.kind.identity + 0.5 * k for k in range(7))

    @property
    def loss(self) -> LossFn:
        return LossFn(self.model_cls.kind)


_GAMMA_CONFIGS = ((0.5, 0.2), (0.2, 0.8), (1.0, 1.0), (5.0, 2.0), (1.0, 30.0), (30.0, 1.0))

TABLES: dict[int, TableSpec] = {
    1: TableSpec(
        title="restricted MLE vs unrestricted Pitman-nearest estimator, smaller mean",
        model_cls=BivariateNormal,
        configs=(
            (3.0, 0.5, -0.9), (0.5, 5.0, -0.5), (1.0, 1.0, 0.0),
            (15.0, 2.0, 0.2), (1.0, 30.0, 0.5), (30.0, 1.0, 0.9),
        ),
        component=1,
        candidate="rmle",
        reference="pnlee",
    ),
    2: TableSpec(
        title="clamped vs plain order-respecting blend estimator, smaller mean",
        model_cls=BivariateNormal,
        configs=(
            (0.1, 5.0, 0.2), (1.0, 25.0, 0.2), (0.5, 2.0, 0.5),
            (5.0, 15.0, 0.5), (0.5, 5.0, 0.9), (2.0, 15.0, 0.9),
        ),
        component=1,
        candidate="hp_star",
        reference="hp",
    ),
    3: TableSpec(
        title="restricted MLE vs clipped-weight blend estimator, smaller mean",
        model_cls=BivariateNormal,
        configs=(
            (5.0, 0.1, 0.2), (25.0, 1.0, 0.2), (2.0, 0.5, 0.5),
            (15.0, 5.0, 0.5), (5.0, 0.5, 0.9), (15.0, 2.0, 0.9),
        ),
        component=1,
        candidate="rmle",
        reference="pdt",
    ),
    4: TableSpec(
        title="clamped vs plain restricted MLE, larger gamma scale",
        model_cls=GammaScale,
        configs=_GAMMA_CONFIGS,
        component=2,
        candidate="rmle_star",
        reference="rmle",
    ),
    5: TableSpec(
        title="clamped vs plain Pitman-nearest estimator, larger gamma scale",
        model_cls=GammaScale,
        configs=_GAMMA_CONFIGS,
        component=2,
        candidate="pnsee_star",
        reference="pnsee",
    ),
    6: TableSpec(
        title="restricted MLE vs unbiased estimator, larger gamma scale",
        model_cls=GammaScale,
        configs=_GAMMA_CONFIGS,
        component=2,
        candidate="rmle",
        reference="ue",
    ),
}


def _config_label(values: Sequence[float]) -> str:
    return "(" + ",".join(f"{v:g}" for v in values) + ")"


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        out.append("| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |")
    return out


def run_table(
    table_id: int,
    n_samples: int = 10000,
    seed: int = 42,
    oracle: bool = False,
    out: str = "md",
) -> str:
    """Reproduce one built-in table; returns the rendered text. The same as
    running the config {"table": table_id} with these settings.
    """
    return run_config_dict(
        {"table": table_id, "n_samples": n_samples, "seed": seed,
         "oracle": oracle, "output": out}
    )


# Largest accepted n_samples. A run holds two jobs' draws, 16 B per draw
# each, so up to 320 MB at 10**7 draws.
MAX_SAMPLES = 10**7

_CONFIG_FIELDS = {
    "table", "model", "component", "pairs", "gaps", "loss",
    "n_samples", "seed", "oracle", "output",
}


def _is_int(value) -> bool:
    # bool subclasses int, but true/false is never a count, seed or index
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_pairs(raw) -> list[tuple[str, str, Optional[float]]]:
    if not isinstance(raw, list) or not raw or not all(isinstance(p, list) for p in raw):
        raise ConfigError(
            "field 'pairs' must be a non-empty list of [candidate, reference] lists"
        )
    pairs = []
    for p in raw:
        if len(p) == 2:
            cand, ref = p
            nu = None
        elif len(p) == 3:
            cand, ref, nu = p
            nu = finite_number(nu, "pair nu")
        else:
            raise ConfigError(
                "each pair must be [candidate, reference] or [candidate, reference, nu]"
            )
        if not (isinstance(cand, str) and isinstance(ref, str)):
            raise ConfigError("estimator names in 'pairs' must be strings")
        pairs.append((cand, ref, nu))
    return pairs


@dataclass(frozen=True)
class _Column:
    """A run's column: markdown heading, CSV pair label, one cell per gap."""

    heading: str
    pair: str
    tasks: tuple[ComparisonTask, ...]


@dataclass(frozen=True)
class _RunPlan:
    """A validated config: its cells, column by column, and how to print them.
    Only a custom sweep's markdown shows each estimate's standard error.
    """

    title: str
    gaps: tuple[float, ...]
    columns: tuple[_Column, ...]
    oracle: bool
    output: str
    show_se: bool


def _column(model, pair, gaps, loss, n_samples, base_seed, index, heading) -> _Column:
    """A resolved (candidate, reference) pair over the gaps. A table column
    is headed by its model configuration, a sweep column by its pair.
    """
    candidate, reference = pair
    name = f"{candidate.name}/{reference.name}"
    tasks = column_tasks(model, candidate, reference, gaps, loss, n_samples, base_seed, index)
    return _Column(heading or name, f"{name}@{heading}" if heading else name, tasks)


def _resolve_pair(model, component, cand, ref, nu):
    """A pair's two estimators. Only a pair that names a psi_nu family takes nu."""
    pair = tuple(resolve_estimator(model, component, name, nu) for name in (cand, ref))
    if nu is not None and not {cand, ref} & set(_family_names(model, component)):
        raise UnsupportedCaseError(
            f"pair [{cand}, {ref}] names no psi_nu family, so it takes no nu"
        )
    return pair


def _model_label(model) -> str:
    # dataclass fields only: cached properties are not part of the model spec
    inner = ",".join(f"{f.name}={getattr(model, f.name):g}" for f in fields(model))
    return f"{type(model).__name__}({inner})"


def _validate_config(cfg: dict) -> _RunPlan:
    """Check a config against the schema and build its run plan. A table has
    one column per model configuration, each a one-pair sweep on its own
    derived base seed; a custom sweep has one column per pair.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    has_table = "table" in cfg
    has_custom = any(k in cfg for k in ("model", "pairs", "gaps", "loss", "component"))
    if has_table and has_custom:
        raise ConfigError("config must set either 'table' or a custom sweep, not both")
    if not has_table:
        for field in ("model", "component", "pairs", "gaps", "loss"):
            if field not in cfg:
                raise ConfigError(f"custom sweep config missing field '{field}'")
    n_samples = cfg.get("n_samples", 10000)
    seed = cfg.get("seed", 42)
    oracle = cfg.get("oracle", False)
    output = cfg.get("output", "md")
    if output not in ("csv", "md"):
        raise ConfigError(f"field 'output' must be 'csv' or 'md', got {output!r}")
    if not _is_int(n_samples) or not 1 <= n_samples <= MAX_SAMPLES:
        raise ConfigError(
            f"field 'n_samples' must be an integer in 1..{MAX_SAMPLES}, got {n_samples!r}"
        )
    if not _is_int(seed):
        raise ConfigError(f"field 'seed' must be an integer, got {seed!r}")
    if not isinstance(oracle, bool):
        raise ConfigError(f"field 'oracle' must be true or false, got {oracle!r}")
    # each column as (model, component, (candidate, reference, nu) names,
    # base seed, pair index, heading of a table column or None)
    if has_table:
        table = cfg["table"]
        if not _is_int(table) or table not in TABLES:
            raise ConfigError(f"field 'table' must be an integer 1..6, got {table!r}")
        spec = TABLES[table]
        gaps, loss = spec.gaps, spec.loss
        title = (
            f"# table {table}: {spec.candidate} vs {spec.reference} "
            f"({spec.title}); loss={loss.name}, n={n_samples}, seed={seed}"
        )
        specs = [
            (spec.model_cls(*config), spec.component, (spec.candidate, spec.reference, None),
             derive_cell_seed(seed, table, col), 0, _config_label(config))
            for col, config in enumerate(spec.configs)
        ]
    else:
        component = cfg["component"]
        if not _is_int(component) or component not in (1, 2):
            raise ConfigError(f"field 'component' must be 1 or 2, got {component!r}")
        gaps = cfg["gaps"]
        if not isinstance(gaps, list) or not gaps:
            raise ConfigError("field 'gaps' must be a non-empty list of numbers")
        gaps = tuple(finite_number(g, "each gap") for g in gaps)
        pairs = _parse_pairs(cfg["pairs"])
        model = model_from_config(cfg["model"])
        try:
            loss = LossFn.from_name(cfg["loss"])
        except UnsupportedCaseError as e:
            raise ConfigError(str(e)) from None
        title = (
            f"# {_model_label(model)}, component={component}, "
            f"loss={loss.name}, n={n_samples}, seed={seed}"
        )
        specs = [(model, component, pair, seed, i, None) for i, pair in enumerate(pairs)]
    # last: resolving builds each model's catalog, the costliest check, and
    # each cell checks itself as it is built. An unknown name stays an
    # UnknownEstimatorError; a missing nu, one outside the family's range, a
    # nu on a pair without a family, a gap outside the domain or a loss of
    # the other kind is a config value error.
    try:
        resolved = [
            _resolve_pair(model, component, cand, ref, nu)
            for model, component, (cand, ref, nu), *_ in specs
        ]
        columns = tuple(
            _column(model, pair, gaps, loss, n_samples, base_seed, index, heading)
            for (model, _, _, base_seed, index, heading), pair in zip(specs, resolved)
        )
    except UnknownEstimatorError:
        raise
    except (UnsupportedCaseError, DomainError) as e:
        raise ConfigError(str(e)) from None
    return _RunPlan(title, gaps, columns, oracle, output, show_se=not has_table)


def _render(plan: _RunPlan, cells) -> str:
    """A run's results, one list per column of the plan, as CSV or as a
    markdown table with one row per gap.
    """
    if plan.output == "csv":
        header = ["pair", "gap", "gpn", "std_error", "tie_fraction", "n", "seed"]
        if plan.oracle:
            header.append("oracle")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for column, column_cells in zip(plan.columns, cells):
            for gap, (r, value) in zip(plan.gaps, column_cells):
                row = [
                    column.pair, repr(gap), repr(r.estimate), repr(r.std_error),
                    repr(r.tie_fraction), r.n_samples, r.seed,
                ]
                if plan.oracle:
                    row.append(repr(value))
                writer.writerow(row)
        return buf.getvalue()

    header = ["gap"]
    for column in plan.columns:
        header.append(column.heading)
        if plan.show_se:
            header.append("se")
        if plan.oracle:
            header.append(column.heading + " oracle")
    body = []
    for gap, row_cells in zip(plan.gaps, zip(*cells)):
        row = [f"{gap:g}"]
        for r, value in row_cells:
            row.append(f"{r.estimate:.3f}")
            if plan.show_se:
                row.append(f"{r.std_error:.4f}")
            if plan.oracle:
                row.append(f"{value:.3f}")
        body.append(row)
    return "\n".join([plan.title, ""] + _md_table(header, body)) + "\n"


def run_config_dict(cfg: dict) -> str:
    """Validate and execute a config mapping; returns the rendered text. All
    cells of the run go through one run_columns call.
    """
    plan = _validate_config(cfg)
    return _render(plan, run_columns([c.tasks for c in plan.columns], plan.oracle))


def _load_config(path: str | Path) -> dict:
    """Read and parse a JSON run config whose root must be an object."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):  # before _run writes the options into it
        raise ConfigError("config root must be a JSON object")
    return cfg


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, UnknownEstimatorError):
        return 3
    if isinstance(exc, ConfigError):
        return 2
    return 4


_shared_options = [
    click.option("--samples", type=int, default=None,
                 help=f"Monte Carlo draws per cell, at most {MAX_SAMPLES}."),
    click.option("--seed", type=int, default=None, help="Base seed for per-cell streams."),
    click.option("--oracle", is_flag=True, default=False,
                 help="Add the deterministic quadrature value per cell."),
    click.option("--out", type=click.Choice(["csv", "md"]), default=None,
                 help="Output format."),
    click.option("--output-file", type=click.Path(dir_okay=False), default=None,
                 help="Write the rendered table here instead of stdout."),
]


def _apply_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


def _run(load_config, samples, seed, oracle, out, output_file) -> None:
    """The body of both commands: load the config, let the options override
    its fields, run it and write the text.
    """
    try:
        cfg = load_config()
        if samples is not None:
            cfg["n_samples"] = samples
        if seed is not None:
            cfg["seed"] = seed
        if oracle:
            cfg["oracle"] = True
        if out is not None:
            cfg["output"] = out
        text = run_config_dict(cfg)
    except (PitnearError, ArithmeticError) as e:
        # an overflow in float arithmetic, as from extreme model fields, is
        # a numerical failure like the package's own
        click.echo(f"error: {e}", err=True)
        sys.exit(_exit_code(e))
    if output_file:
        try:
            Path(output_file).write_text(text, encoding="utf-8")
        except OSError as e:
            click.echo(f"error: cannot write output file {output_file}: {e}", err=True)
            sys.exit(2)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Compare estimators of order-restricted parameters by Pitman nearness."""


@main.command("table")
@click.argument("table_id", type=int)
@_apply_options
def table_command(table_id, **options):
    """Reproduce built-in simulation table TABLE_ID (1-6), i.e. run the
    config {"table": TABLE_ID}.
    """
    _run(lambda: {"table": table_id}, **options)


@main.command("run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_apply_options
def run_command(config, **options):
    """Run the comparison sweep described by a JSON CONFIG file."""
    _run(lambda: _load_config(config), **options)


if __name__ == "__main__":
    main()
