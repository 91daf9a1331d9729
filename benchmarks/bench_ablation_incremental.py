"""Ablation: delta-evaluated candidate scans vs from-scratch recounts.

The greedy heuristics spend nearly all of their runtime evaluating tentative
edge edits (the runtime wall of Figures 9-11).  Two orthogonal knobs govern
that cost, and the product ships only their optimized ends:

* incremental evaluation — every scan goes through an ``OpacitySession``
  that updates only the distance-matrix rows an edit can touch, where the
  scratch reference (``tests.oracles.ScratchSession``) recomputes the
  bounded matrix and the Algorithm 1 recount per candidate;
* batched scans — ``score_combinations`` scores the single-edge
  candidates of a greedy step in stacked numpy passes (shared removal
  slab, grouped bincount), where the per-candidate reference
  (``tests.oracles.PerCandidateSession``) scores them one at a time.

The two references run through ``AnonymizerConfig.open_session``, the seam
every algorithm opens its session with.  This bench measures candidate
evaluations per second along both axes on the same workload and verifies
every configuration chooses bit-identical edits.

``max_steps`` caps the greedy loop so the measurement stays smoke-sized:
all configurations walk the exact same steps, so evaluations/sec is an
apples-to-apples throughput comparison.
"""

import time

import pytest

from benchmarks.conftest import smoke
from repro.core import EdgeRemovalAnonymizer
from repro.datasets import load_sample
from tests.oracles import PerCandidateSession, ScratchSession, run_on

DATASET = "google"
SAMPLE_SIZES = smoke((40, 80), (40, 80))
LENGTH = 2
THETA = 0.3
MAX_STEPS = 4

#: (evaluation, scan) points of the ablation grid and the session each runs
#: on (``None`` = the product's); the first entry is the fully-optimized
#: default, the last the from-scratch reference.
CONFIGURATIONS = {
    ("incremental", "batched"): None,
    ("incremental", "per_candidate"): PerCandidateSession,
    ("scratch", "per_candidate"): ScratchSession,
}

#: At the largest sample, incremental/per-candidate must beat scratch and
#: batched must beat per-candidate, each by at least this much; the measured
#: margins are ~3-6x and ~2-3x locally, so 2x absorbs scheduler noise.
#: Under the CI smoke knob only the bit-identity assertions run — a shared
#: runner must not fail the build on a timing measurement.
MIN_SPEEDUP_LARGEST = smoke(2.0, None)


def _run(graph, key):
    anonymizer = EdgeRemovalAnonymizer(
        length_threshold=LENGTH, theta=THETA, seed=0, max_steps=MAX_STEPS)
    session_class = CONFIGURATIONS[key]
    started = time.perf_counter()
    if session_class is None:
        result = anonymizer.anonymize(graph)
    else:
        result, evaluations = run_on(session_class, anonymizer, graph)
        # Premise: the reference really ran, on every evaluation.
        assert evaluations == result.evaluations
    elapsed = time.perf_counter() - started
    return result, result.evaluations / max(elapsed, 1e-9)


@pytest.mark.parametrize("size", SAMPLE_SIZES)
def bench_incremental_vs_scratch(benchmark, size):
    benchmark.group = f"candidate evaluations/sec, {DATASET} L={LENGTH}"
    graph = load_sample(DATASET, size, seed=0)
    results, rates = {}, {}
    default, *references = CONFIGURATIONS
    for key in references:
        results[key], rates[key] = _run(graph, key)
    results[default], rates[default] = benchmark.pedantic(
        _run, args=(graph, default), rounds=1, iterations=1)
    print(f"\n  |V|={size}:")
    for key in CONFIGURATIONS:
        print(f"    {key[0]:>11s}/{key[1]:<13s} {rates[key]:>10,.0f} evals/s")

    # Every configuration must walk the identical greedy trajectory ...
    reference = results["scratch", "per_candidate"]
    for key in list(CONFIGURATIONS)[:2]:
        observed = results[key]
        assert [(step.operation, step.edges, step.max_opacity_after)
                for step in observed.steps] == \
               [(step.operation, step.edges, step.max_opacity_after)
                for step in reference.steps]
        assert observed.final_opacity == reference.final_opacity
        assert observed.evaluations == reference.evaluations
    # ... and each optimization layer must pay off where the matrices are
    # big enough for fixed per-step overheads not to dominate.
    if MIN_SPEEDUP_LARGEST is not None and size == max(SAMPLE_SIZES):
        incremental_over_scratch = (rates["incremental", "per_candidate"]
                                    / rates["scratch", "per_candidate"])
        batched_over_per_candidate = (rates["incremental", "batched"]
                                      / rates["incremental", "per_candidate"])
        assert incremental_over_scratch >= MIN_SPEEDUP_LARGEST
        assert batched_over_per_candidate >= MIN_SPEEDUP_LARGEST
