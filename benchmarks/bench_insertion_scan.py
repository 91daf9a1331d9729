"""Rem-Ins's insertion scan at a paper size, step-capped.

Algorithm 5 follows every removal with the insertion that yields the
lowest maximum opacity, scored over every eligible absent edge: about
500k candidates per step on a 1000-node sample.  The candidates are
decoded as one endpoint array (``EligiblePairs.pairs``) and scored in
chunks from the common-neighbour counts at L = 2, each chunk reading
only its own members' cells.

The unit runs uncapped ``rem-ins`` on an ACM sample of 1000 nodes at
L = 2 for ``MAX_STEPS`` steps and asserts its premise: exactly
``MAX_STEPS`` greedy steps, ended by the cap, each of them with an
insertion.  It prints the insertion phase's seconds per step.  Smoke
mode (``REPRO_BENCH_SMOKE=1``) runs a 200-node sample and only checks
the premise.
"""

import time
from unittest import mock

from benchmarks.conftest import run_once, smoke
from repro.core import EdgeRemovalInsertionAnonymizer
from repro.datasets import load_sample

DATASET = "acm"
SAMPLE_SIZE = smoke(1000, 200)
LENGTH = 2
THETA = 0.05
MAX_STEPS = 3


def _capped_run(graph):
    anonymizer = EdgeRemovalInsertionAnonymizer(
        length_threshold=LENGTH, theta=THETA, seed=0, max_steps=MAX_STEPS)
    phase = EdgeRemovalInsertionAnonymizer._insertion_phase
    seconds = []

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return phase(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - started)

    with mock.patch.object(EdgeRemovalInsertionAnonymizer, "_insertion_phase",
                           timed):
        result = anonymizer.anonymize(graph)
    return result, seconds


def bench_insertion_scan(benchmark):
    graph = load_sample(DATASET, SAMPLE_SIZE, seed=0)
    result, seconds = run_once(benchmark, _capped_run, graph)
    print(f"\n== Insertion scan: {DATASET} n={SAMPLE_SIZE}, L={LENGTH}, "
          f"rem-ins uncapped, theta={THETA}, max_steps={MAX_STEPS} ==")
    print(f"  steps={result.num_steps} evaluations={result.evaluations} "
          f"opacity={result.final_opacity:.4f} "
          f"insertion phase per step="
          f"{sum(seconds) / max(1, len(seconds)):.3f}s "
          f"({', '.join(f'{value:.3f}' for value in seconds)})")

    # Premise: the step cap, not θ, ended the run, and every step inserted.
    assert result.num_steps == MAX_STEPS
    assert result.stop_reason == "max_steps"
    assert [step.operation for step in result.steps] == \
        ["remove+insert"] * MAX_STEPS
