"""Look-ahead 2 at Fig 9's largest setting, step-capped.

Fig 9 also runs the Removal heuristic with look-ahead 2 on a 1000-node
Google sample at L=1 down to θ=0.1.  Whenever no single removal lowers the
maximum opacity, a step scores every pair of candidate edges (a uniform
sample of ``max_combinations`` of them beyond the cap).  At L=1 those
pairs are scored by composition: a pair's count change is the sum of its
two edges' own type hits, so a whole level is a few array operations over
the candidates' type positions, and one batched replay of the tie-break
picks the winner.

The unit runs with a step cap so it costs seconds, and asserts its
premise: exactly ``MAX_STEPS`` greedy steps, ended by the cap, and more
evaluations than the look-ahead-1 run at the same cap — so the size-2
levels ran.  It also asserts the observer cadence: a scan reports once
per scored chunk, so the run makes no more ``on_evaluation`` calls than
scored chunks plus steps plus one (the initial evaluation).  It prints
candidate evaluations per second.  Smoke mode (``REPRO_BENCH_SMOKE=1``)
runs a 200-node sample for a few steps.
"""

from unittest import mock

from benchmarks.conftest import run_once, smoke
from repro.api.progress import NullObserver
from repro.core import EdgeRemovalAnonymizer, OpacitySession
from repro.datasets import load_sample

DATASET = "google"
SAMPLE_SIZE = smoke(1000, 200)
LENGTH = 1
LOOKAHEAD = 2
THETA = 0.1
MAX_STEPS = smoke(150, 8)


class _CountReports(NullObserver):
    """Counts ``on_evaluation`` calls."""

    def __init__(self):
        self.reports = 0

    def on_evaluation(self, evaluations):
        self.reports += 1


def _capped_run(graph, lookahead, observer=None):
    return EdgeRemovalAnonymizer(length_threshold=LENGTH, theta=THETA,
                                 lookahead=lookahead, seed=0,
                                 max_steps=MAX_STEPS).anonymize(
        graph, observer=observer)


def bench_lookahead_fig9(benchmark):
    graph = load_sample(DATASET, SAMPLE_SIZE, seed=0)
    counter = _CountReports()
    # Every scored chunk is one score_combinations call.
    with mock.patch.object(OpacitySession, "score_combinations", autospec=True,
                           side_effect=OpacitySession.score_combinations) as chunks:
        result = run_once(benchmark, _capped_run, graph, LOOKAHEAD, counter)
    single = _capped_run(graph, 1)
    rate = result.evaluations / result.runtime_seconds
    print(f"\n== Look-ahead {LOOKAHEAD}: {DATASET} n={SAMPLE_SIZE}, "
          f"L={LENGTH}, theta={THETA}, max_steps={MAX_STEPS} ==")
    print(f"  steps={result.num_steps} evaluations={result.evaluations} "
          f"(la=1: {single.evaluations}) opacity={result.final_opacity:.4f} "
          f"loop={result.runtime_seconds:.3f}s evaluations/s={rate:,.0f} "
          f"reports={counter.reports} chunks={chunks.call_count}")

    # Premise: the step cap, not θ, ended the run, and combination levels
    # ran (the la=1 run at the same cap evaluates single edges only).
    assert result.num_steps == MAX_STEPS
    assert result.stop_reason == "max_steps"
    assert result.evaluations > single.evaluations, (
        f"la={LOOKAHEAD} made {result.evaluations} evaluations, la=1 made "
        f"{single.evaluations}: no combination level ran")
    # Premise: scans report once per scored chunk, not per evaluation.
    assert counter.reports <= chunks.call_count + result.num_steps + 1, (
        f"{counter.reports} on_evaluation calls for {chunks.call_count} "
        f"scored chunks and {result.num_steps} steps")
