"""Run one benchmark workload and print its metrics as one JSON line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every unit untraced and traced and prints the per-layer
metrics (calls and self time per traced layer function, the workload's own
counters, and the tracing overhead).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; a run record with sample
counts, medians and quartiles is written under ``.perfbench/records/``.
The exit code is 0 only when every output matched its pinned reference
and every premise held.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "q3": values[0]}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "q3": q3}


def _sample_metric(values: List[float]) -> Dict[str, Any]:
    return {"value": statistics.median(values), "samples": len(values),
            "median": statistics.median(values), **_quartiles(values)}


def _unit_metric(m: Any, name: str) -> Dict[str, Any]:
    """Mean over units of each unit's median, with the spread of all samples."""
    medians = m.unit_medians(name)
    return {**_sample_metric(m.scaled(name)),
            "value": statistics.fmean(medians.values())}


def _single(value: float) -> Dict[str, Any]:
    return {"value": value, "samples": 1, "median": value, "q1": value,
            "q3": value}


def end_to_end(m: Any) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of an untraced run, with their spread.

    Times are scaled to the calibration host's speed (``HostSpeed``).  A
    time's value is the mean over the workload's units of each unit's
    median; ``evals_per_s`` is the units' (pinned) evaluations over the
    sum of their median ``run_s``.
    """
    run_s = m.unit_medians("run_s")
    evaluations = m.unit_medians("evaluations", scaled=False)
    return {
        "setup_s": _unit_metric(m, "setup_s"),
        "run_s": _unit_metric(m, "run_s"),
        "evals_per_s": _single(sum(evaluations.values())
                               / sum(run_s[unit] for unit in evaluations)),
        "peak_rss_mb": _single(m.peak_rss_mb),
        "job_p50_s": _unit_metric(m, "job_s"),
    }


def unscaled(m: Any) -> Dict[str, Dict[str, Any]]:
    """The raw wall times behind the scaled ones, and the factors used."""
    factors = [factor for values in m.factors.values() for factor in values]
    return {
        "setup_s": _sample_metric(m.samples["setup_s"]),
        "run_s": _sample_metric(m.samples["run_s"]),
        "job_p50_s": _sample_metric(m.samples["job_s"]),
        "host_speed_factor": _sample_metric(factors),
    }


def per_layer(m: Any, trace_dir: Path, names: List[str]) -> tuple:
    """Per-layer metrics of a traced run, plus the merged span table.

    Calls, self times and the pool wait are totals over the traced units
    divided by their number, so they do not grow with the pass count.  A
    layer value the workload never produced (a layer it does not reach)
    reads 0; a value whose name ``BENCHMARK.json`` does not list is an error.
    """
    from tracing import SPAN_NAMES, merge_traces

    table, counts, pids = merge_traces(str(trace_dir))
    units = m.traced_units
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = table[name]["calls"] / units
        metrics[f"{name}.s"] = table[name]["self_s"] / units

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    batch_calls = table["graph.distance_delta.DistanceSession.preview_batch"]["calls"]
    edits_calls = table["core.opacity_session.OpacitySession.evaluate_edits"]["calls"]
    metrics.update({
        "graph.distance_delta.preview_batch_candidates_per_call":
            ratio(counts.get("preview_batch_candidates", 0), batch_calls),
        "graph.distance_delta.from_scratch_share":
            ratio(counts.get("from_scratch", 0), counts.get("previews", 0)),
        "core.opacity_session.evaluate_edits_candidates_per_call":
            ratio(counts.get("evaluate_edits_candidates", 0), edits_calls),
        "core.lookahead.combos_per_step":
            ratio(counts.get("combos", 0), counts.get("lookahead_steps", 0)),
        "api.batch.pool_wait_s":
            table.get("api.batch.pool_wait", {}).get("total_s", 0.0) / units,
    })
    metrics.update(m.layer)
    untraced = statistics.median(m.samples["run_s"])
    traced = statistics.median(m.samples["traced_run_s"])
    metrics.update({
        "trace.run_s_untraced": untraced,
        "trace.run_s_traced": traced,
        "trace.overhead_s": traced - untraced,
        "trace.child_processes_per_unit":
            len(pids - {os.getpid()}) / units,
    })
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {name: _single(metrics.get(name, 0)) for name in names}, table


def _commit() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Spill files and other temporaries stay inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))

    import numpy

    from oracle import Oracle
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    trace_dir = WORK / "trace" / args.workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    tracer = Tracer(str(trace_dir)) if args.trace else None
    oracle = Oracle()
    m = WORKLOADS[args.workload](args.seed, args.seconds, tracer, oracle)

    # Reported before the metrics, which cannot be computed when every
    # unit failed.
    premises: Dict[str, bool] = {}
    for name, holds in m.premises:
        premises[name] = premises.get(name, True) and holds
    for failure in oracle.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, holds in premises.items():
        if not holds:
            print(f"perfbench: PREMISE FAILED {name}", file=sys.stderr)
    correct = (all(premises.values()) and oracle.failed == 0
               and oracle.attempted > 0)
    table = None
    try:
        if args.trace:
            metrics, table = per_layer(m, trace_dir,
                                       [entry["name"] for entry in wanted])
        else:
            metrics = end_to_end(m)
    except (statistics.StatisticsError, ZeroDivisionError):
        print("perfbench: no unit succeeded, so no metric can be computed",
              file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "correct": correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "failures": oracle.failures,
        "premises": premises,
        "metrics": {entry["name"]: {"unit": entry["unit"],
                                    **metrics[entry["name"]]}
                    for entry in wanted},
    }
    if table is not None:
        record["layers"] = table
    else:
        record["unscaled"] = unscaled(m)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]]["value"],
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }))
    return 0 if correct else 1


def _child_pids() -> List[int]:
    """Processes whose parent is this one (read from ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; the parent pid
        # is the second field after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop every process this one still has running, and wait for each.

    Shared memory (the grid-shm workload) starts ``multiprocessing``'s
    resource tracker, which outlives the pools that used it and would
    otherwise end only after the benchmark has exited; a forkserver, if one
    was started, behaves the same.  Both are stopped their own way (the
    tracker then removes any segment still registered).  Any other child
    left over is sent SIGTERM.  Every one is waited for.
    """
    import multiprocessing.forkserver
    import multiprocessing.resource_tracker
    import signal

    for helper in (multiprocessing.resource_tracker._resource_tracker,
                   multiprocessing.forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
