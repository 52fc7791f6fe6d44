"""The oracle at the corners of its written domain, one JSON line per cell.

A cell is a model, a target component, an ordered pair of distinct catalog
estimators and a gap. The models take shapes from near the gamma median's
floor to the shape cap of 500 (and power shapes of 1e300), and the gaps run
from the identity and one ulp above it to 1e300, the largest float and inf.
Each line gives the cell and its outcome: the oracle's value as float.hex,
or the type and message of the error it raises. A numpy RuntimeWarning is
raised as an error, so it shows as an outcome.

Write the scan, or re-run it against a written file, printing each cell
whose outcome changed (exit status 1 if any did):

    PYTHONPATH=src python -W error::RuntimeWarning tests/domain_scan.py > tests/data/domain_scan.jsonl
    PYTHONPATH=src python -W error::RuntimeWarning tests/domain_scan.py --check tests/data/domain_scan.jsonl

A change that moves an outcome writes the file again and lists the moved
cells with its reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from itertools import permutations
from typing import Iterator, NamedTuple

from pitnear.estimators import LossFn, catalog
from pitnear.gpn import ComparisonTask, gpn_oracle
from pitnear.models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    ModelSpec,
    PowerScale,
    ProblemKind,
)

# every kind of normal clamp (mixing coefficient above 1, in (0, 1), below
# 0, exactly 1 and exactly 0), small and large exponential scales, gamma
# shape sums from 0.002 (near gamma_median's floor) to the cap of 500, and
# power shapes from 0.01 to 1e300
MODELS: tuple[ModelSpec, ...] = (
    BivariateNormal(0.5, 5.0, 0.9),
    BivariateNormal(1.0, 1.0, 0.0),
    BivariateNormal(5.0, 0.5, 0.9),
    BivariateNormal(1.0, 2.0, 0.5),
    BivariateNormal(2.0, 1.0, 0.5),
    ExponentialLocation(1.0, 2.0),
    ExponentialLocation(30.0, 40.0),
    ExponentialLocation(1e-3, 1e3),
    GammaScale(0.5, 0.2),
    GammaScale(1.0, 1.0),
    GammaScale(30.0, 1.0),
    GammaScale(2.0, 5.0),
    GammaScale(0.05, 0.05),
    GammaScale(0.2, 0.8),
    GammaScale(0.001, 0.001),
    GammaScale(250.0, 250.0),
    PowerScale(1.0, 1.0),
    PowerScale(2.0, 0.5),
    PowerScale(0.01, 0.01),
    PowerScale(1e300, 1e300),
)

# the identity, one ulp above it, moderate gaps, then huge ones
_HUGE = (1e60, 1e150, 1e300, sys.float_info.max, math.inf)
GAPS = {
    ProblemKind.LOCATION: (0.0, math.ulp(0.0), 0.5, 2.0, 1e4, *_HUGE),
    ProblemKind.SCALE: (1.0, math.nextafter(1.0, 2.0), 2.0, 1e4, 1e100, 1e200, 1e250,
                        1e301, 1e303, *_HUGE),
}


class Cell(NamedTuple):
    model: ModelSpec
    component: int
    candidate: str
    reference: str
    gap: float

    def key(self) -> dict:
        return {"model": repr(self.model), "component": self.component,
                "pair": [self.candidate, self.reference], "gap": repr(self.gap)}


def cells() -> Iterator[Cell]:
    """Every cell of the scan, in the order of the written file."""
    for model in MODELS:
        for component in (1, 2):
            names = [e.name for e in catalog(model, component)]
            for cand, ref in permutations(names, 2):
                for gap in GAPS[model.kind]:
                    yield Cell(model, component, cand, ref, gap)


def outcome(cell: Cell) -> str:
    """The cell's oracle value as float.hex, or 'Type: message' of its
    error; a RuntimeWarning is raised as an error.
    """
    model = cell.model
    estimators = {e.name: e for e in catalog(model, cell.component)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            task = ComparisonTask(model, model.kind.pinned_params(cell.gap),
                                  estimators[cell.candidate], estimators[cell.reference],
                                  LossFn(model.kind))
            return float.hex(gpn_oracle(task))
        except Exception as error:
            return f"{type(error).__name__}: {error}"


def record(cell: Cell) -> dict:
    return {**cell.key(), "outcome": outcome(cell)}


def changes(written: list[dict], scanned: list[dict]) -> list[str]:
    """One line per cell whose outcome differs, or that only one side has."""
    def keyed(records):
        return {json.dumps({k: r[k] for k in r if k != "outcome"}): r["outcome"] for r in records}

    old, new = keyed(written), keyed(scanned)
    lines = [f"{key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}"
             for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]
    if not lines and list(old) != list(new):
        lines.append("the cells are the same but in another order")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="re-run the scan and print each cell whose outcome differs from FILE")
    args = parser.parse_args(argv)
    if args.check is None:
        for cell in cells():
            print(json.dumps(record(cell)))
        return 0
    with open(args.check, encoding="utf-8") as f:
        written = [json.loads(line) for line in f]
    changed = changes(written, [record(cell) for cell in cells()])
    for line in changed:
        print(line)
    print(f"{len(changed)} of {len(written)} cells changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
