"""Command-line interface for the L-opacity reproduction.

Subcommands
-----------
* ``anonymize`` — anonymize an edge-list file (or a built-in dataset sample)
  with any registered algorithm and write the result.
* ``sweep`` — run a multi-axis grid (θ and algorithms via flags; dataset,
  size, seed, L, look-ahead via repeatable ``--axis name=v1,v2``) as
  grouped checkpointed passes that share each sample and its distances:
  one anonymization per θ group, one sample load and one L_max distance
  computation per sample group.
* ``batch`` — execute a JSON job spec of anonymization requests, fanning
  the jobs across worker processes.
* ``serve`` — run the anonymization service: an HTTP job API
  (``POST /jobs`` and friends) over a persistent SQLite run store that
  dedups identical requests and resumes interrupted grids from their last
  persisted checkpoint after a restart.
* ``opacity`` — report the L-opacity of a graph for a given L.
* ``tables`` — print the reproduction of Tables 1-3.
* ``figure`` — compute one figure's series and print it.

Examples
--------
::

    repro-lopacity opacity --dataset gnutella --size 100 --length 2
    repro-lopacity anonymize --dataset google --size 60 --algorithm rem \
        --theta 0.5 --length 1 --output anonymized.edges
    repro-lopacity anonymize --dataset enron --size 80 --algorithm rem-ins \
        --timeout 30 --progress
    repro-lopacity sweep --dataset gnutella --size 60 \
        --algorithms rem rem-ins --thetas 0.9 0.8 0.7 0.6 0.5
    repro-lopacity sweep --axis dataset=gnutella,google --axis l=1,2 \
        --thetas 0.9 0.7 0.5
    repro-lopacity batch jobs.json --max-workers 4 --output results.json
    repro-lopacity tables
    repro-lopacity figure --name fig6 --dataset google --size 50

A batch job spec is either a JSON array of request objects, or an object
with ``defaults`` merged into every job::

    {
      "defaults": {"dataset": "gnutella", "sample_size": 60, "theta": 0.5},
      "max_workers": 4,
      "jobs": [
        {"algorithm": "rem"},
        {"algorithm": "rem-ins", "insertion_candidate_cap": 100},
        {"algorithm": "gaded-max"},
        {"algorithm": "rem", "length_threshold": 2, "theta": 0.7}
      ]
    }

Each job object takes the fields of
:class:`repro.api.AnonymizationRequest` (``algorithm``, ``dataset`` +
``sample_size`` or ``edges``, ``theta``, ``length_threshold``,
``lookahead``, ``seed``, ``max_steps``, ``insertion_candidate_cap``,
``swap_sample_size``, ``scan_workers``, ``scale_tier``,
``scale_budget_bytes``, ``timeout_seconds``, ``include_utility``,
``request_id``).  Results are written as a JSON array of response objects
in job order; a failing job yields an ``error`` response without aborting
the rest of the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api import (
    AnonymizationRequest,
    BatchRunner,
    ConsoleProgressObserver,
    anonymize as api_anonymize,
    available_algorithms,
)
from repro.graph.distance_store import SCALE_TIERS
from repro.datasets import dataset_names
from repro.errors import ConfigurationError, ReproError
from repro.experiments import (
    figure6_series,
    figure7_series,
    figure8_series,
    figure10_series,
    format_series,
    format_table,
    render_series_chart,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.graph.io import read_edge_list, write_edge_list


def _graph_source(args: argparse.Namespace) -> dict:
    """The request fields naming the input graph: ``--input`` or a sample."""
    if args.input:
        graph, _labels = read_edge_list(args.input)
        return dict(edges=tuple(graph.edges()), num_vertices=graph.num_vertices)
    return dict(dataset=args.dataset, sample_size=args.size)


def _cmd_opacity(args: argparse.Namespace) -> int:
    from repro.api import compute_opacity

    request = AnonymizationRequest(**_graph_source(args), seed=args.seed,
                                   length_threshold=args.length)
    report = compute_opacity(request)
    print(f"vertices={report.num_vertices} edges={report.num_edges}")
    print(f"L={args.length} max L-opacity={report.max_opacity:.4f} "
          f"types at max={report.types_at_max}")
    for type_key, within, total, opacity in report.worst_types:
        print(f"  type {type_key}: {within}/{total} = {opacity:.3f}")
    return 0


def _request_from_args(args: argparse.Namespace) -> AnonymizationRequest:
    """Build the service-layer request described by the CLI arguments."""
    return AnonymizationRequest(
        **_graph_source(args),
        algorithm=args.algorithm,
        theta=args.theta,
        length_threshold=args.length,
        lookahead=args.lookahead,
        seed=args.seed,
        scan_workers=args.scan_workers,
        insertion_candidate_cap=args.insertion_cap,
        timeout_seconds=args.timeout,
        include_utility=True,
    )


def _cmd_anonymize(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    observer = ConsoleProgressObserver() if args.progress else None
    response = api_anonymize(request, observer=observer)
    metrics = response.metrics or {}
    print(response.summary())
    print(f"degree EMD={metrics.get('degree_emd', 0.0):.4f} "
          f"geodesic EMD={metrics.get('geodesic_emd', 0.0):.4f} "
          f"mean |dCC|={metrics.get('mean_cc_diff', 0.0):.4f}")
    if args.output:
        write_edge_list(response.anonymized_graph(), args.output,
                        header=f"L-opaque graph (L={args.length}, theta={args.theta})")
        print(f"wrote {args.output}")
    return 0 if response.success else 1


#: ``--axis`` spellings -> (GridRequest axis name, value parser).
_AXIS_ALIASES = {
    "dataset": ("dataset", str),
    "size": ("sample_size", int),
    "sample_size": ("sample_size", int),
    "algorithm": ("algorithm", str),
    "l": ("length_threshold", int),
    "length": ("length_threshold", int),
    "lookahead": ("lookahead", int),
    "seed": ("seed", int),
    "theta": ("theta", float),
}


def _parse_axes(specs: List[str]) -> dict:
    """Parse repeated ``--axis name=v1,v2,...`` options into a grid-axis dict."""
    axes: dict = {}
    for spec in specs:
        name, separator, raw = spec.partition("=")
        key = name.strip().lower()
        if not separator or key not in _AXIS_ALIASES:
            raise ReproError(
                f"bad --axis {spec!r}; expected name=v1,v2,... with name in "
                f"{sorted(_AXIS_ALIASES)}")
        field, cast = _AXIS_ALIASES[key]
        try:
            values = tuple(cast(piece.strip()) for piece in raw.split(",")
                           if piece.strip())
        except ValueError as exc:
            raise ReproError(f"bad --axis value in {spec!r}: {exc}") from exc
        if not values:
            raise ReproError(f"--axis {spec!r} lists no values")
        if field == "dataset":
            unknown = sorted(set(values) - set(dataset_names()))
            if unknown:
                raise ReproError(f"unknown dataset(s) {unknown} in --axis "
                                 f"{spec!r}; known: {list(dataset_names())}")
        elif field == "algorithm":
            unknown = sorted(set(values) - set(available_algorithms()))
            if unknown:
                raise ReproError(
                    f"unknown algorithm(s) {unknown} in --axis {spec!r}; "
                    f"known: {list(available_algorithms())}")
        if field in axes:
            raise ReproError(
                f"--axis {spec!r} repeats axis {field!r}; list every value "
                f"in one option (name=v1,v2,...)")
        axes[field] = values
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import GridRequest, run_grid

    if args.max_workers < 0:
        raise ReproError(f"--max-workers must be >= 0, got {args.max_workers}")
    axes = _parse_axes(args.axis or [])
    base = AnonymizationRequest(
        **_graph_source(args),
        theta=args.thetas[0],
        length_threshold=args.length,
        lookahead=args.lookahead,
        seed=args.seed,
        scan_workers=args.scan_workers,
        insertion_candidate_cap=args.insertion_cap,
        include_utility=not args.no_utility,
        scale_tier=args.scale_tier,
        scale_budget_bytes=(args.scale_budget_mb * 1024 * 1024
                            if args.scale_budget_mb is not None else None),
    )
    # Flags provide the algorithm/θ axes; explicit --axis entries win.
    axes.setdefault("algorithm", tuple(args.algorithms))
    axes.setdefault("theta", tuple(args.thetas))
    request = GridRequest.from_axes(
        base,
        datasets=axes.get("dataset"),
        sample_sizes=axes.get("sample_size"),
        algorithms=axes.get("algorithm"),
        length_thresholds=axes.get("length_threshold"),
        lookaheads=axes.get("lookahead"),
        seeds=axes.get("seed"),
        thetas=axes.get("theta"))
    response = run_grid(request, max_workers=args.max_workers,
                        shared_memory=args.shared_memory == "on")
    print(f"{len(request.requests)} runs in {response.num_groups} group(s) "
          f"over {response.num_sample_groups} sample group(s)")
    for entry in response.responses:
        print(entry.summary())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(response.to_dict(), handle, indent=2)
        print(f"wrote {args.output}")
    return 0 if response.ok else 1


def _load_batch_spec(path: str) -> tuple:
    """Read a job-spec file; returns ``(requests, max_workers_from_spec)``."""
    try:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read batch spec {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"batch spec {path!r} is not valid JSON: {exc}") from exc
    if isinstance(payload, list):
        defaults, jobs, max_workers = {}, payload, None
    elif isinstance(payload, dict):
        defaults = payload.get("defaults", {})
        jobs = payload.get("jobs", [])
        max_workers = payload.get("max_workers")
    else:
        raise ReproError("batch spec must be a JSON array of jobs or an object "
                         "with a 'jobs' array")
    if not isinstance(defaults, dict):
        raise ReproError(f"'defaults' must be an object, got {type(defaults).__name__}")
    if not isinstance(jobs, list) or not jobs:
        raise ReproError("batch spec contains no jobs")
    if max_workers is not None and (not isinstance(max_workers, int)
                                    or isinstance(max_workers, bool)
                                    or max_workers < 0):
        raise ReproError(f"'max_workers' must be a non-negative integer, "
                         f"got {max_workers!r}")
    requests = []
    for index, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise ReproError(f"job {index} must be an object, got {type(job).__name__}")
        requests.append(AnonymizationRequest.from_dict({**defaults, **job}))
    return requests, max_workers


def _cmd_batch(args: argparse.Namespace) -> int:
    requests, spec_workers = _load_batch_spec(args.spec)
    max_workers = args.max_workers if args.max_workers is not None else spec_workers
    if max_workers is not None and max_workers < 0:
        raise ReproError(f"--max-workers must be >= 0, got {max_workers}")
    runner = BatchRunner(max_workers=max_workers, data_dir=args.data_dir)
    responses = runner.run(requests)
    for index, response in enumerate(responses):
        label = response.request.request_id or f"job {index}"
        print(f"[{label}] {response.summary()}")
    payload = [response.to_dict() for response in responses]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0 if all(response.ok for response in responses) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import JobManager, RunStore, create_server

    store = RunStore(args.db)
    try:
        manager = JobManager(
            store, data_dir=args.data_dir, max_workers=args.max_workers,
            shared_memory=args.shared_memory == "on",
            scale_tier=args.scale_tier,
            scale_budget_bytes=(args.scale_budget_mb * 1024 * 1024
                                if args.scale_budget_mb is not None else None),
            scan_workers=args.scan_workers)
    except ReproError:
        store.close()
        raise
    if args.reset:
        summary = store.init_db(reset=True)
        print(f"reset {summary['db_path']} "
              f"(backups: {', '.join(summary['backups']) or 'none'})")
    resumed = manager.start()
    if resumed:
        print(f"resuming {len(resumed)} interrupted job(s): "
              f"{', '.join(resumed)}", flush=True)
    server = create_server(args.host, args.port, manager, store)
    host, port = server.server_address[:2]
    # Tests and scripts parse this line to find an ephemeral port (0).
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        manager.stop()
        store.close()
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    print("Table 1 — original datasets")
    print(format_table(table1_rows()))
    print("\nTable 2 — original dataset properties (published)")
    print(format_table(table2_rows()))
    print("\nTable 3 — sampled graph properties (published vs measured proxies)")
    print(format_table(table3_rows(sample_sizes=args.sizes, seed=args.seed,
                                   measure=not args.no_measure)))
    return 0


#: The ``figure`` flags each figure's builder does not take.
_FIGURE_UNUSED_FLAGS = {"fig6": ("--theta",), "fig7": ("-L", "--theta"),
                        "fig8": ("--theta",),
                        "fig10": ("--size", "--thetas", "-L")}


def _cmd_figure(args: argparse.Namespace) -> int:
    given = {"--size": args.size, "--thetas": args.thetas, "-L": args.length,
             "--theta": args.theta}
    ignored = [flag for flag in _FIGURE_UNUSED_FLAGS.get(args.name, ())
               if given[flag] is not None]
    if ignored:
        raise ConfigurationError(
            f"figure {args.name} does not take {', '.join(ignored)}")
    thetas = tuple(args.thetas) if args.thetas else (0.9, 0.8, 0.7, 0.6, 0.5)
    size = args.size if args.size is not None else 50
    length = args.length if args.length is not None else 1

    def emit(series, x_label, y_label, title):
        if args.chart:
            print(render_series_chart(series, x_label=x_label, y_label=y_label,
                                      title=title))
        else:
            print(format_series(series, x_label=x_label, y_label=y_label))

    if args.name == "fig6":
        series = figure6_series(args.dataset, length_threshold=length,
                                sample_size=size, thetas=thetas)
        emit(series, "theta", "distortion", f"Figure 6 — {args.dataset}, L={length}")
    elif args.name == "fig7":
        both = figure7_series(args.dataset, sample_size=size, thetas=thetas)
        for metric, series in both.items():
            print(f"== {metric} ==")
            emit(series, "theta", metric, f"Figure 7 — {args.dataset}")
    elif args.name == "fig8":
        series = figure8_series(args.dataset, length_threshold=length,
                                sample_size=size, thetas=thetas)
        emit(series, "theta", "mean_cc_diff", f"Figure 8 — {args.dataset}, L={length}")
    elif args.name == "fig10":
        # Figure 10 sweeps sample sizes and L at one theta.
        series = figure10_series(
            args.dataset, theta=args.theta if args.theta is not None else 0.5)
        emit(series, "size", "runtime_s", f"Figure 10 — {args.dataset}")
    else:
        print(f"unknown figure {args.name!r}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lopacity",
        description="L-opacity: linkage-aware graph anonymization (EDBT 2014 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_graph_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--input", help="edge-list file to load (overrides --dataset)")
        sub.add_argument("--dataset", default="gnutella", choices=dataset_names())
        sub.add_argument("--size", type=int, default=100, help="sample size (nodes)")
        sub.add_argument("--seed", type=int, default=0)

    opacity = subparsers.add_parser("opacity", help="report L-opacity of a graph")
    add_graph_arguments(opacity)
    opacity.add_argument("--length", "-L", type=int, default=1)
    opacity.set_defaults(func=_cmd_opacity)

    anonymize = subparsers.add_parser("anonymize", help="run an anonymization algorithm")
    add_graph_arguments(anonymize)
    anonymize.add_argument("--algorithm", default="rem", choices=available_algorithms())
    anonymize.add_argument("--theta", type=float, default=0.5)
    anonymize.add_argument("--length", "-L", type=int, default=1)
    anonymize.add_argument("--lookahead", type=int, default=1)
    anonymize.add_argument("--scan-workers", type=int, default=None,
                           dest="scan_workers",
                           help="shard each L >= 3 candidate scan across a "
                                "pool of this many worker processes (0 or 1 = "
                                "serial, the default); identical edits "
                                "either way")
    anonymize.add_argument("--insertion-cap", type=int, default=None)
    anonymize.add_argument("--timeout", type=float, default=None,
                           help="wall-clock budget in seconds (best-effort stop)")
    anonymize.add_argument("--progress", action="store_true",
                           help="print one line per applied greedy step")
    anonymize.add_argument("--output", help="write the anonymized edge list here")
    anonymize.set_defaults(func=_cmd_anonymize)

    sweep = subparsers.add_parser(
        "sweep", help="run a multi-axis grid as grouped checkpointed "
                      "anonymization passes over shared samples")
    add_graph_arguments(sweep)
    sweep.add_argument("--algorithms", nargs="+", default=["rem"],
                       choices=available_algorithms(),
                       help="algorithms swept over the θ grid")
    sweep.add_argument("--thetas", type=float, nargs="+",
                       default=[0.9, 0.8, 0.7, 0.6, 0.5],
                       help="θ grid (deduplicated and executed descending)")
    sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                       help="additional grid axis (repeatable): dataset, "
                            "size, algorithm, l/length, lookahead, seed, or "
                            "theta with comma-separated values; overrides "
                            "the corresponding flag")
    sweep.add_argument("--length", "-L", type=int, default=1)
    sweep.add_argument("--lookahead", type=int, default=1)
    sweep.add_argument("--scan-workers", type=int, default=None,
                       dest="scan_workers",
                       help="scan-pool size per run (0 or 1 = serial, the "
                            "default; ignored inside pooled grid workers)")
    sweep.add_argument("--insertion-cap", type=int, default=None)
    sweep.add_argument("--no-utility", action="store_true",
                       help="skip the per-θ utility metrics")
    sweep.add_argument("--max-workers", type=int, default=0,
                       help="worker processes for the groups "
                            "(0 = run in-process)")
    sweep.add_argument("--shared-memory", choices=("on", "off"), default="on",
                       dest="shared_memory",
                       help="zero-copy shared-memory data plane for pooled "
                            "grids: the parent loads each sample and runs "
                            "each L_max distance computation once, workers "
                            "attach read-only views and fan out per θ-sweep "
                            "group (default: on; 'off' lets every worker "
                            "load its own samples, one task per sample group "
                            "when the grid has several, per θ-sweep group "
                            "otherwise; ignored with --max-workers 0)")
    sweep.add_argument("--scale-tier", choices=SCALE_TIERS, default="auto",
                       dest="scale_tier",
                       help="distance-plane scale tier: dense keeps the full "
                            "n x n matrix in memory, tiled streams L_max row "
                            "tiles through a bounded cache with temp-file "
                            "spill, auto picks dense only while it fits the "
                            "byte budget (default: auto)")
    sweep.add_argument("--scale-budget-mb", type=int, default=None,
                       dest="scale_budget_mb",
                       help="byte budget of the scale tier in MiB: the "
                            "auto-tier dense/tiled threshold and the tiled "
                            "tile-cache bound (default: 512)")
    sweep.add_argument("--output", help="write the JSON sweep response here")
    sweep.set_defaults(func=_cmd_sweep)

    batch = subparsers.add_parser(
        "batch", help="execute a JSON job spec across worker processes")
    batch.add_argument("spec", help="path to the JSON job spec ('-' for stdin)")
    batch.add_argument("--max-workers", type=int, default=None,
                       help="worker processes (0 = run in-process; default: auto)")
    batch.add_argument("--data-dir", default=None,
                       help="directory with real SNAP dataset files")
    batch.add_argument("--output", help="write the JSON results here (default: stdout)")
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve", help="run the anonymization service: an HTTP job API over "
                      "a persistent, resumable SQLite run store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 = pick an ephemeral port; the "
                            "chosen one is printed on startup)")
    serve.add_argument("--db", default="repro_runs.db",
                       help="path of the SQLite run store")
    serve.add_argument("--data-dir", default=None,
                       help="directory with real SNAP dataset files")
    serve.add_argument("--max-workers", type=int, default=0,
                       help="0 = execute jobs in the service process with "
                            "checkpoint streaming and per-θ resume "
                            "(default); n > 0 = fan each job's θ-sweep "
                            "groups across a pool of n processes (responses "
                            "persist per sample group, so an interrupted "
                            "job resumes at sample-group granularity)")
    serve.add_argument("--shared-memory", choices=("on", "off"), default="on",
                       dest="shared_memory",
                       help="zero-copy shared-memory data plane for pooled "
                            "job execution (default: on; ignored with "
                            "--max-workers 0)")
    serve.add_argument("--scale-tier", choices=SCALE_TIERS, default="auto",
                       dest="scale_tier",
                       help="default distance-plane scale tier applied to "
                            "submitted jobs that leave theirs on 'auto' "
                            "(default: auto)")
    serve.add_argument("--scale-budget-mb", type=int, default=None,
                       dest="scale_budget_mb",
                       help="default scale-tier byte budget in MiB applied "
                            "to submitted jobs that set none (default: 512)")
    serve.add_argument("--scan-workers", type=int, default=None,
                       dest="scan_workers",
                       help="default parallel-scan pool size applied at "
                            "execution time to submitted jobs that set no "
                            "scan_workers (fingerprints unchanged)")
    serve.add_argument("--reset", action="store_true",
                       help="archive and re-initialize the run store before "
                            "serving (rolling window of 3 backups)")
    serve.set_defaults(func=_cmd_serve)

    tables = subparsers.add_parser("tables", help="print Tables 1-3")
    tables.add_argument("--sizes", type=int, nargs="*", default=[100])
    tables.add_argument("--seed", type=int, default=42)
    tables.add_argument("--no-measure", action="store_true",
                        help="print only the published values")
    tables.set_defaults(func=_cmd_tables)

    figure = subparsers.add_parser("figure", help="compute one figure's series")
    figure.add_argument("--name", required=True, choices=("fig6", "fig7", "fig8", "fig10"))
    figure.add_argument("--dataset", default="google", choices=dataset_names())
    figure.add_argument("--size", type=int,
                        help="sample size (fig6/7/8; default 50)")
    figure.add_argument("--length", "-L", type=int,
                        help="path length bound L (fig6/8; default 1)")
    figure.add_argument("--theta", type=float,
                        help="privacy threshold (fig10; default 0.5)")
    figure.add_argument("--thetas", type=float, nargs="*",
                        help="privacy thresholds (fig6/7/8)")
    figure.add_argument("--chart", action="store_true",
                        help="render an ASCII chart instead of the numeric series")
    figure.set_defaults(func=_cmd_figure)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Domain errors (bad parameters, malformed job specs, unknown
    algorithms) are reported as one ``error:`` line with exit code 2
    instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
