"""Per-step bookkeeping at Fig 9's largest setting, step-capped.

Fig 9 runs the Removal heuristic on a 1000-node Google sample at L=1 with
look-ahead 1 down to θ=0.1.  Besides the candidate scan, every greedy step
recomputes maxLO and the types at the maximum (``OpacitySession.current``)
and lists the removal candidates (``_removal_candidates``: the session's
edge array, pruned to the edges of the max types).  Both are served from
the session's integer arrays; when they rebuilt a ``Fraction`` per type
and re-sorted the adjacency instead, they took over 70% of this run.

The unit runs with a step cap so it costs seconds, and asserts its premise:
exactly ``MAX_STEPS`` greedy steps, ended by the cap.  It prints the share
of the greedy loop's time spent in the two bookkeeping calls and, outside
smoke mode, asserts that share is at most ``MAX_SHARE``.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) runs a 200-node sample for a few steps and only
checks the premise.
"""

import time
from unittest import mock

from benchmarks.conftest import run_once, smoke
from repro.core import EdgeRemovalAnonymizer
from repro.core.opacity_session import OpacitySession
from repro.datasets import load_sample

DATASET = "google"
SAMPLE_SIZE = smoke(1000, 200)
LENGTH = 1
THETA = 0.1
MAX_STEPS = smoke(150, 10)
MAX_SHARE = 0.20
#: The share bound only holds at full size: at smoke size the fixed
#: per-step costs weigh more against a much cheaper scan.
CHECK_SHARE = smoke(True, False)


class _Stopwatch:
    """Accumulates the wall time of every call to the wrapped functions."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, function):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
        return timed


def _capped_run(graph):
    anonymizer = EdgeRemovalAnonymizer(length_threshold=LENGTH, theta=THETA,
                                       lookahead=1, seed=0,
                                       max_steps=MAX_STEPS)
    watch = _Stopwatch()
    with mock.patch.object(OpacitySession, "current",
                           watch.wrap(OpacitySession.current)), \
            mock.patch.object(EdgeRemovalAnonymizer, "_removal_candidates",
                              watch.wrap(EdgeRemovalAnonymizer._removal_candidates)):
        result = anonymizer.anonymize(graph)
    return result, watch.seconds


def bench_step_bookkeeping(benchmark):
    graph = load_sample(DATASET, SAMPLE_SIZE, seed=0)
    result, bookkeeping = run_once(benchmark, _capped_run, graph)
    # The loop's time: runtime_seconds starts once the session is open.
    share = bookkeeping / result.runtime_seconds
    print(f"\n== Step bookkeeping: {DATASET} n={SAMPLE_SIZE}, L={LENGTH}, "
          f"la=1, theta={THETA}, max_steps={MAX_STEPS} ==")
    print(f"  steps={result.num_steps} evaluations={result.evaluations} "
          f"opacity={result.final_opacity:.4f} "
          f"loop={result.runtime_seconds:.3f}s "
          f"current()+_removal_candidates={bookkeeping:.3f}s "
          f"share={share:.1%}")

    # Premise: the step cap, not θ, ended the run.
    assert result.num_steps == MAX_STEPS
    assert result.stop_reason == "max_steps"
    if CHECK_SHARE:
        assert share <= MAX_SHARE, (
            f"bookkeeping took {share:.1%} of the loop (bound {MAX_SHARE:.0%})")
