"""The committed domain scan (tests/domain_scan.py): the file lists the
scan's cells, every outcome is a probability or a numerical error, and a
fixed slice of cells reproduces its written outcomes.
"""

import json
from pathlib import Path

import pytest

import domain_scan

WRITTEN = Path(__file__).resolve().parent / "data" / "domain_scan.jsonl"
# every 43rd cell: about 200 cells over every model, in well under a second
SLICE = slice(None, None, 43)


@pytest.fixture(scope="module")
def written():
    with WRITTEN.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_the_file_lists_the_scans_cells_in_order(written):
    assert [{k: v for k, v in r.items() if k != "outcome"} for r in written] == [
        cell.key() for cell in domain_scan.cells()
    ]


def test_every_outcome_is_a_probability_or_a_numerical_error(written):
    for r in written:
        outcome = r["outcome"]
        if not outcome.startswith(("DomainError: ", "ConvergenceError: ")):
            assert 0.0 <= float.fromhex(outcome) <= 1.0, r


def test_a_slice_reproduces_its_written_outcomes(written):
    cells = list(domain_scan.cells())[SLICE]
    assert len(cells) >= 200
    assert {cell.model for cell in cells} == set(domain_scan.MODELS)
    assert domain_scan.changes(written[SLICE], [domain_scan.record(c) for c in cells]) == []


def test_changes_names_each_moved_cell(written):
    moved = [dict(r) for r in written[:3]]
    moved[1]["outcome"] = "DomainError: moved"
    (line,) = domain_scan.changes(written[:3], moved)
    assert line.endswith(f"{written[1]['outcome']} -> DomainError: moved")
    assert domain_scan.changes(written[:3], written[2::-1]) == [
        "the cells are the same but in another order"
    ]
