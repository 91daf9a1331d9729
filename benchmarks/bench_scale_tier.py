"""Out-of-core scale tier: peak RSS stays under the tile-cache budget.

The tentpole claim of the `DistanceStore` seam (DESIGN.md §13): an
anonymization run whose dense ``n × n`` matrix would blow the configured
byte budget completes on ``scale_tier="tiled"`` without ever holding
more than the budget's worth of distance tiles — cold tiles spill to a
temp file and the LRU keeps the resident set bounded.  The run takes real
greedy steps, so the bound covers the candidate-pruning pass and the
applied deltas, not just the initial distance computation; premise
asserts check that it did.

The run executes in a fresh ``spawn`` subprocess so ``ru_maxrss`` is an
honest per-run high-water mark (in this process, earlier benchmarks
would already have pushed the peak past anything this one allocates).
The child warms the dataset/import machinery at a tiny sample size,
snapshots its peak RSS, runs the real sample on the tiled tier, and
reports the delta.  The assertion leaves ``OVERHEAD_SLACK`` of headroom
for the interpreter, the sample's edge arrays, and evaluation
temporaries — all O(n + m), none of it the n×n matrix — and the premise
check guarantees the bound would be *unsatisfiable* if the dense matrix
were materialized.
"""

import multiprocessing
import resource
import time

from benchmarks.conftest import smoke
from repro.api import AnonymizationRequest, anonymize
from repro.graph.distance_store import dense_matrix_bytes
from repro.graph.matrices import distance_dtype

DATASET = "gnutella"
#: Full shape: a 244 MiB dense matrix against an 8 MiB tile budget.
#: The smoke shape keeps the same 10x-over-budget premise at CI cost.
SAMPLE_SIZE = smoke(16000, 10000)
LENGTH = 2
#: Low enough that the sample is far from opaque, so the run is ended by
#: the step cap, never by reaching θ before its first step.
THETA = 0.01
MAX_STEPS = 2
BUDGET_BYTES = 8 << 20
#: Non-distance overhead allowance: interpreter + numpy temporaries +
#: the sample's edge arrays + per-tile evaluation slabs.  Measured
#: 40-48 MiB across the two shapes; the premise check below asserts the
#: dense matrix alone would exceed budget + slack, so the RSS bound
#: cannot be met by a run that materializes it.
OVERHEAD_SLACK = 64 << 20


def _measure_tiled_run(queue, sample_size, budget_bytes):
    warm = AnonymizationRequest(dataset=DATASET, sample_size=50, seed=0,
                                algorithm="rem", theta=THETA,
                                length_threshold=LENGTH, max_steps=MAX_STEPS)
    anonymize(warm)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    request = AnonymizationRequest(dataset=DATASET, sample_size=sample_size,
                                   seed=0, algorithm="rem", theta=THETA,
                                   length_threshold=LENGTH,
                                   max_steps=MAX_STEPS,
                                   scale_tier="tiled",
                                   scale_budget_bytes=budget_bytes)
    response = anonymize(request)
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    queue.put((rss0, rss1, response.error, response.final_opacity,
               response.num_steps, response.evaluations))


def _run_child():
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    child = context.Process(target=_measure_tiled_run,
                            args=(queue, SAMPLE_SIZE, BUDGET_BYTES))
    child.start()
    result = queue.get(timeout=540)
    child.join(timeout=60)
    return result


def bench_scale_tier(benchmark):
    dense_bytes = dense_matrix_bytes(SAMPLE_SIZE, distance_dtype(LENGTH))
    benchmark.group = (f"scale tier, {DATASET} n={SAMPLE_SIZE} L={LENGTH} "
                       f"budget={BUDGET_BYTES >> 20}MiB")
    # Premise: the RSS bound below is unsatisfiable for the dense tier.
    assert dense_bytes > BUDGET_BYTES + OVERHEAD_SLACK

    start = time.perf_counter()
    rss0, rss1, error, opacity, steps, evaluations = benchmark.pedantic(
        _run_child, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    overhead = rss1 - rss0
    print(f"\n  dense matrix would need:  {dense_bytes / 2**20:8.1f} MiB"
          f"\n  tile-cache budget:        {BUDGET_BYTES / 2**20:8.1f} MiB"
          f"\n  peak RSS over baseline:   {overhead / 2**20:8.1f} MiB"
          f"\n  tiled run:                {elapsed:8.2f} s"
          f"  (opacity={opacity:.4f}, steps={steps}, "
          f"evaluations={evaluations})")

    # The step cap, not θ, ends the run, so success is not expected.
    assert error is None, error
    # Premise: the run took real greedy steps through the pruning pass.
    assert steps == MAX_STEPS
    assert evaluations > 1
    assert overhead <= BUDGET_BYTES + OVERHEAD_SLACK, (
        f"peak RSS overhead {overhead / 2**20:.1f} MiB exceeds the "
        f"{(BUDGET_BYTES + OVERHEAD_SLACK) / 2**20:.1f} MiB bound")
    assert overhead < dense_bytes
