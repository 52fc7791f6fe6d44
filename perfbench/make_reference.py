"""Regenerate the stored oracle values that the benchmark's correctness gate
compares against, from the package sources in ``src/``:

    python3 perfbench/make_reference.py

``data/tables_oracle.json`` holds the oracle value of every cell of tables
1-6, in the row order of ``run_table(..., out="csv")``.
``data/oracle_certify.json`` holds the 832 clamp-dominance oracle values in
the canonical cell order of ``workloads.certification_tasks``.
"""

from __future__ import annotations

import csv
import io
import json
import sys

from run import HERE, _import_workloads


def main() -> int:
    workloads = _import_workloads()
    import pitnear.cli as cli
    import pitnear.gpn as gpn

    data = HERE / "data"
    data.mkdir(exist_ok=True)
    tables = {}
    for t in workloads.TablesMC.tables:
        text = cli.run_table(t, n_samples=1, oracle=True, out="csv")
        tables[str(t)] = [float(row[-1]) for row in list(csv.reader(io.StringIO(text)))[1:]]
    (data / "tables_oracle.json").write_text(json.dumps({"oracle": tables}, indent=1) + "\n")

    cells = workloads.certification_tasks()
    values = [gpn.gpn_oracle(task, abs_tol=workloads.OracleCertify.abs_tol)
              for _, task in cells]
    doc = {"labels": [label for label, _ in cells], "oracle": values}
    (data / "oracle_certify.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
