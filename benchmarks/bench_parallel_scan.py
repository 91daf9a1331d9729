"""Intra-group parallel candidate scanning: one θ-group, many workers.

The tentpole scenario of the scan pool (DESIGN.md §14): a *single*
anonymization run — one sample, one θ — whose per-step candidate scans
shard across ``scan_workers`` processes, each a forked copy of the run's
session.  The §12 plane cannot help here (there is only one θ-group);
the scan pool parallelizes *inside* it.

Two assertions, mirroring the other accelerator benchmarks:

* **Bit-identity, every size** — the parallel run's step sequence,
  opacities, and evaluation counters equal the serial batched run's.
* **Throughput, core-gated** — candidate evaluations per second must
  beat the serial batched scan by ``MIN_SPEEDUP`` whenever the machine
  actually has ``WORKERS`` cores; on smaller boxes the numbers are
  printed for inspection but a speedup is physically impossible.

The tiled-tier companion (`bench_parallel_scan_tiled_rss`) re-runs the
scenario on `scale_tier="tiled"` in a fresh ``spawn`` subprocess and
asserts the peak-RSS deltas — the measuring parent's own, and the pool
workers' over the parent's baseline — stay under the tile budget plus a
fixed overhead slack, i.e. each worker streams the tiles of its private
store instead of materializing the matrix.

Both run at L = 3: L <= 2 scans score from type positions or
common-neighbour counts and never start a pool.  Each asserts its premise
first — the run took greedy steps and at least one scan ran pooled — so
neither can pass by measuring nothing.
"""

import multiprocessing
import os
import resource
import time

from benchmarks.conftest import smoke
from repro.api import AnonymizationRequest, AnonymizationResponse, anonymize
from repro.api.registry import default_registry
from repro.graph.distance_store import dense_matrix_bytes
from repro.graph.matrices import distance_dtype

DATASET = "gnutella"
#: The scan must dominate pool startup.  rem-ins at L=3 scans every
#: absent edge in its insertion phase through distance slabs — ~20k
#: candidate evaluations per step at n=200 (~4.5s/step serial), the exact
#: single-θ-group workload the pool shards; the smoke shape keeps tens of
#: thousands of evaluations at CI cost.
SAMPLE_SIZE = smoke(300, 200)
ALGORITHM = "rem-ins"
LENGTH = 3
THETA = 0.1
MAX_STEPS = smoke(3, 2)
WORKERS = 4
#: Required candidate-evaluations/sec win over the serial batched scan
#: when the cores exist (the acceptance bar of PR 10).
MIN_SPEEDUP = 1.5

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "anonymized_edges", "stop_reason")


def _request(**overrides) -> AnonymizationRequest:
    params = dict(dataset=DATASET, sample_size=SAMPLE_SIZE, seed=0,
                  algorithm=ALGORITHM, theta=THETA, length_threshold=LENGTH,
                  max_steps=MAX_STEPS)
    params.update(overrides)
    return AnonymizationRequest(**params)


def _run(request: AnonymizationRequest):
    """:func:`repro.api.anonymize`, also returning the run's ``debug_info``."""
    graph = request.resolve_graph()
    algorithm = default_registry().create(request.algorithm,
                                          **request.algorithm_params())
    result = algorithm.anonymize(graph)
    return AnonymizationResponse.from_result(request, result), result.debug_info


def bench_parallel_scan(benchmark):
    benchmark.group = (f"parallel scan, {DATASET} n={SAMPLE_SIZE} "
                       f"L={LENGTH} x{WORKERS}w")

    start = time.perf_counter()
    serial = anonymize(_request())
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel, debug_info = benchmark.pedantic(
        _run, args=(_request(scan_workers=WORKERS),),
        rounds=1, iterations=1)
    parallel_s = time.perf_counter() - start

    assert serial.ok and parallel.ok
    # Premise: the run took steps and its scans really were sharded.
    assert parallel.num_steps > 0
    assert debug_info["parallel_scans"] > 0
    cores = os.cpu_count() or 1
    serial_eps = serial.evaluations / serial_s if serial_s else float("inf")
    parallel_eps = (parallel.evaluations / parallel_s
                    if parallel_s else float("inf"))
    speedup = parallel_eps / serial_eps if serial_eps else float("inf")
    print(f"\n  serial batched:  {serial.evaluations} evaluations in "
          f"{serial_s:8.3f}s ({serial_eps:10.0f} eval/s)"
          f"\n  parallel x{WORKERS}w:   {parallel.evaluations} evaluations in "
          f"{parallel_s:8.3f}s ({parallel_eps:10.0f} eval/s)"
          f"\n  throughput speedup {speedup:.2f}x on {cores} core(s) "
          f"(asserting >= {MIN_SPEEDUP}x only when cores >= {WORKERS})")

    # Deterministic acceptance, asserted at every size: the sharded scan
    # is bit-identical to the serial batched scan.
    for field in PARITY_FIELDS:
        assert getattr(parallel, field) == getattr(serial, field), field
    if cores >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel scan throughput {speedup:.2f}x below "
            f"{MIN_SPEEDUP}x on {cores} cores")


# -- tiled tier: bounded tile streaming under the byte budget ----------

#: Same premise as bench_scale_tier: the dense matrix must not fit the
#: budget + slack, so the RSS bound is unsatisfiable if any process
#: materializes it.  At L=3 gnutella n=12000 starts at maxLO ≈ 0.083, so
#: RSS_THETA = 0.05 makes the run take a pooled greedy step.
RSS_SAMPLE_SIZE = smoke(16000, 12000)
RSS_MAX_STEPS = smoke(2, 1)
RSS_THETA = 0.05
RSS_WORKERS = 2
BUDGET_BYTES = 8 << 20
#: Interpreter + numpy temporaries + the sample's edge arrays + the
#: budget-capped stacked scan slabs — all O(n + m + budget).
OVERHEAD_SLACK = 64 << 20


def _measure_parallel_tiled_run(queue, sample_size, budget_bytes):
    warm = AnonymizationRequest(dataset=DATASET, sample_size=50, seed=0,
                                algorithm="rem", theta=THETA,
                                length_threshold=LENGTH)
    anonymize(warm)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    request = AnonymizationRequest(dataset=DATASET, sample_size=sample_size,
                                   seed=0, algorithm="rem", theta=RSS_THETA,
                                   length_threshold=LENGTH,
                                   max_steps=RSS_MAX_STEPS,
                                   scan_workers=RSS_WORKERS,
                                   scale_tier="tiled",
                                   scale_budget_bytes=budget_bytes)
    response, debug_info = _run(request)
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # The pool workers were forked from this process and joined when the
    # session closed, so RUSAGE_CHILDREN holds their high-water mark.
    rss_workers = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    queue.put((rss0, rss1, rss_workers, response.num_steps,
               debug_info["parallel_scans"], response.error))


def bench_parallel_scan_tiled_rss(benchmark):
    dense_bytes = dense_matrix_bytes(RSS_SAMPLE_SIZE, distance_dtype(LENGTH))
    benchmark.group = (f"parallel tiled scan RSS, {DATASET} "
                       f"n={RSS_SAMPLE_SIZE} budget={BUDGET_BYTES >> 20}MiB "
                       f"x{RSS_WORKERS}w")
    # Premise: the RSS bound below is unsatisfiable for the dense tier.
    assert dense_bytes > BUDGET_BYTES + OVERHEAD_SLACK

    def run_child():
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        child = context.Process(target=_measure_parallel_tiled_run,
                                args=(queue, RSS_SAMPLE_SIZE, BUDGET_BYTES))
        child.start()
        result = queue.get(timeout=540)
        child.join(timeout=60)
        return result

    start = time.perf_counter()
    rss0, rss1, rss_workers, steps, pooled, error = benchmark.pedantic(
        run_child, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    bound = BUDGET_BYTES + OVERHEAD_SLACK
    delta = rss1 - rss0
    worker_delta = max(0, rss_workers - rss0)
    print(f"\n  dense matrix would need {dense_bytes / 2**20:8.1f} MiB"
          f"\n  parent peak-RSS delta:   {delta / 2**20:8.1f} MiB"
          f"\n  worker peak over base:   {worker_delta / 2**20:8.1f} MiB"
          f"\n  bound (budget + slack):  {bound / 2**20:8.1f} MiB"
          f"\n  run: {steps} step(s), {pooled} pooled scan(s) in "
          f"{elapsed:.1f}s")
    assert error is None
    # Premise: the run took steps through the pool, or the worker bound
    # below measures nothing.
    assert steps > 0
    assert pooled > 0
    # Every process of the sharded tiled scan streams tiles under the
    # byte budget — nobody materializes the n x n matrix.
    assert delta <= bound, (
        f"parent peak RSS delta {delta / 2**20:.1f} MiB exceeds "
        f"{bound / 2**20:.1f} MiB")
    assert worker_delta <= bound, (
        f"scan-worker peak RSS {worker_delta / 2**20:.1f} MiB over the "
        f"parent baseline exceeds {bound / 2**20:.1f} MiB")
