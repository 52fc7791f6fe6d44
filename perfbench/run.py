"""Benchmark of the pitnear package, run from the root of a source checkout:

    python3 perfbench/run.py --workload tables_mc --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout that holds this
directory; nothing needs installing. Workloads are defined in
``workloads.py`` and explained in ``README.md``.

``--trace 0`` measures the end-to-end metrics: repeated passes over the
workload's calls until they have taken ``--seconds`` (at least two passes),
each output checked outside the timed region. ``--trace 1`` runs pass 0 once with
every layer's public functions wrapped in spans and once plain, and reports
the per-layer metrics. Either way the metrics are printed one per line with
their units, then a provenance record, and last one JSON line
``{"correct", "attempted", "failed", "metrics"}``. Records and spans are
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
SHOWN_FAILURES = 10


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import plus input set-up once and exit")
    return parser.parse_args(argv)


def _import_workloads():
    """Import the benchmark workloads, and with them pitnear from ``src``."""
    if not (SRC / "pitnear" / "__init__.py").is_file():
        raise HarnessError(f"no pitnear sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import pitnear

    if not Path(pitnear.__file__).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"pitnear was imported from {pitnear.__file__}, not {SRC}")
    return workloads


def _workload_class(workloads, name: str):
    if name not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {name!r}; valid: {', '.join(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def _setup_probe(args) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    _workload_class(workloads, args.workload)(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_seconds(args) -> float:
    """Import plus input set-up, timed once in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, wl) -> dict:
    import numpy
    import pitnear

    digest = hashlib.sha256()
    for path in sorted((SRC / "pitnear").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": wl.sizes(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "pitnear": pitnear.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _run_pass(calls):
    """Run the calls in order; returns outputs (an exception for a call that
    raised), per-call latencies and the pass wall time, all in seconds.
    """
    outputs, latencies = [], []
    t_pass = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            out = call.run()
        except Exception as exc:  # a failed cell; the benchmark keeps going
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, time.perf_counter() - t_pass


def _gate(calls, outputs) -> tuple[int, list[str]]:
    """Cells attempted and one message per failed cell."""
    attempted, failures = 0, []
    for call, out in zip(calls, outputs):
        attempted += call.cells
        if isinstance(out, Exception):
            trace = "".join(traceback.format_exception(out))
            failures += [f"call {call.key} raised:\n{trace}"] * call.cells
        else:
            failures += call.check(out)[:call.cells]
    return attempted, failures


def _mismatches(calls, first, second) -> list[str]:
    return [
        f"call {call.key}: output differs between two runs of the same input"
        for call, a, b in zip(calls, first, second)
        if isinstance(a, Exception) or isinstance(b, Exception) or a != b
    ]


def _measure(args, wl) -> tuple[dict, dict, int, list[str]]:
    """Untraced passes until ``args.seconds`` of pass time; end-to-end metrics.

    Every timing is a median over passes: throughput, and the 50th and 95th
    percentile of the call latencies within each pass. The set-up probes run
    between passes, so that all metrics sample the same stretch of time.
    """
    setup, rates, p50s, p95s, failures = [], [], [], [], []
    attempted = calls_timed = 0
    first = None
    measured_s = 0.0
    k = 0
    while k < MIN_PASSES or measured_s < args.seconds:
        calls = wl.calls(k)
        outputs, latencies, wall = _run_pass(calls)
        measured_s += wall
        rates.append(sum(c.cells for c in calls) / wall)
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        p50s.append(q[49] * 1e3)
        p95s.append(q[94] * 1e3)
        calls_timed += len(latencies)
        n, bad = _gate(calls, outputs)
        attempted += n
        failures += bad
        if k == 0:
            first = (calls, outputs)
        k += 1
        if len(setup) < SETUP_PROBES:
            setup.append(_setup_seconds(args))
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(args))

    # Determinism: the first calls of pass 0 again, untimed.
    calls, outputs = first
    again, _, _ = _run_pass(calls[:wl.recheck_calls])
    failures += _mismatches(calls, outputs, again)

    metrics = {
        "setup_s": statistics.median(setup),
        "cells_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(p50s),
        "call_p95_ms": statistics.median(p95s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": k,
        "measured_s": measured_s,
        "calls_per_pass": len(calls),
        "calls_timed": calls_timed,
        "pass_cells_per_s": rates,
        "pass_p50_ms": p50s,
        "pass_p95_ms": p95s,
        "setup_samples_s": setup,
        "recheck_calls": len(again),
    }
    return metrics, extra, attempted, failures


def _peak_bytes_per_draw(workloads, seed: int) -> float:
    import pitnear.gpn as gpn

    task = workloads.memory_probe_task(seed)
    tracemalloc.start()
    try:
        gpn.gpn_monte_carlo(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / task.n_samples


def _traced(args, workloads, workload_class) -> tuple[dict, dict, int, list[str], object]:
    """Pass 0 traced, then the same calls untraced; per-layer metrics."""
    from tracing import Tracer, per_layer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl = workload_class(args.seed)
        calls = wl.calls(0)
        traced_out, _, traced_wall = _run_pass(calls)
    finally:
        tracer.uninstall()
    failures = [] if tracer.restored() else ["tracing left a patched name in place"]
    wl.load_reference()
    plain_out, _, plain_wall = _run_pass(calls)
    failures += _mismatches(calls, traced_out, plain_out)
    attempted = 0
    for outputs in (traced_out, plain_out):
        n, bad = _gate(calls, outputs)
        attempted += n
        failures += bad

    summary = tracer.summary()
    metrics = per_layer(summary)
    metrics["models.peak_bytes_per_draw"] = _peak_bytes_per_draw(workloads, args.seed)
    metrics["trace.overhead"] = traced_wall / plain_wall
    extra = {
        "spans": len(tracer.start),
        "traced_pass_s": traced_wall,
        "untraced_pass_s": plain_wall,
        "span_summary": summary,
    }
    tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.json.gz")
    return metrics, extra, attempted, failures, wl


def _declared(trace: int) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.setup_probe:
            _setup_probe(args)
            return 0
        workloads = _import_workloads()
        workload_class = _workload_class(workloads, args.workload)
        declared = _declared(args.trace)
        RESULTS.mkdir(exist_ok=True)
        if args.trace:
            metrics, extra, attempted, failures, wl = _traced(args, workloads, workload_class)
        else:
            wl = workload_class(args.seed)
            wl.load_reference()
            metrics, extra, attempted, failures = _measure(args, wl)
        names = {m["name"] for m in declared}
        if names != set(metrics):
            raise HarnessError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                               f"{sorted(names)}")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = min(len(failures), attempted)
    provenance = _provenance(args, wl)
    for msg in failures[:SHOWN_FAILURES]:
        print(f"FAILED {msg}", file=sys.stderr)
    for m in declared:
        print(f"{m['name']:<30} {metrics[m['name']]!r:>24} {m['unit']}")
    print(f"{'fail_frac':<30} {failed / attempted!r:>24} ({failed}/{attempted} cells)")
    for key, value in extra.items():
        if key != "span_summary":
            print(f"# {key}: {value}")
    for name, row in extra.get("span_summary", {}).items():
        print(f"# span {name:<24} calls={row['count']:<8} total_s={row['total_s']:.6f} "
              f"self_s={row['self_s']:.6f} size={row['size']}")
    print("# provenance: " + json.dumps(provenance))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, provenance=provenance, extra=extra,
                  fail_frac=failed / attempted, failures=failures[:100])
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
