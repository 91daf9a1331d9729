"""Set-up of one anonymization run, by phase, up to its first evaluation.

A run's set-up is everything before the first greedy step can evaluate a
candidate: the sample load (a synthetic stand-in is generated), the
working copy of the graph that the run edits, and the session build,
whose largest part is the opening count of the within-L pairs per type.
On the scale workloads it is most of a short job.  This unit times each
phase through the public ``anonymize`` path, for two shapes:

* gnutella n=5000, L=2, on the tiled tier at a 2 MiB budget: the opening
  count streams every distance tile once, evicting as it goes;
* acm n=10000, L=1: no distance store; the sample load dominates.

Each phase's time is the sum of its calls made before the first
evaluation, the median of ``ROUNDS`` runs.  The unit asserts its premise:
every run reached its first evaluation, and the tiled runs evicted tiles.
Smoke mode (``REPRO_BENCH_SMOKE=1``) runs one round of each shape.
"""

import statistics
import time
from unittest import mock

import repro.datasets
from benchmarks.conftest import run_once, smoke
from repro.api import AnonymizationRequest, anonymize
from repro.core.opacity_session import OpacitySession
from repro.graph.distance_store import TiledStore
from repro.graph.graph import Graph

UNITS = {
    "gnutella-5000-L2-tiled-2MiB": dict(
        dataset="gnutella", sample_size=5000, length_threshold=2,
        scale_tier="tiled", scale_budget_bytes=2 << 20),
    "acm-10000-L1": dict(dataset="acm", sample_size=10000,
                         length_threshold=1),
}
ROUNDS = smoke(5, 1)
PHASES = ("sample load", "working copy", "opening count", "session build")


class _SetUpClock:
    """Observer and stopwatches: phase time spent before the first evaluation."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.first_evaluation = None
        self.seconds = dict.fromkeys(PHASES, 0.0)

    def wrap(self, phase, function):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                if self.first_evaluation is None:
                    self.seconds[phase] += time.perf_counter() - started
        return timed

    # -- progress observer ---------------------------------------------
    def on_evaluation(self, evaluations):
        if self.first_evaluation is None:
            self.first_evaluation = time.perf_counter()

    def on_step(self, step, result):
        pass

    def should_stop(self):
        return False


def _set_up(fields):
    """One step-capped run: its phase times, set-up time and tile evictions."""
    clock = _SetUpClock()
    stores = []
    original_init = TiledStore.__init__

    def tracked_init(store, *args, **kwargs):
        original_init(store, *args, **kwargs)
        stores.append(store)

    request = AnonymizationRequest(algorithm="rem", theta=0.01, seed=0,
                                   max_steps=1, **fields)
    with mock.patch.object(repro.datasets, "load_sample",
                           clock.wrap("sample load", repro.datasets.load_sample)), \
            mock.patch.object(Graph, "copy",
                              clock.wrap("working copy", Graph.copy)), \
            mock.patch.object(OpacitySession, "_init_counts",
                              clock.wrap("opening count",
                                         OpacitySession._init_counts)), \
            mock.patch.object(OpacitySession, "__init__",
                              clock.wrap("session build", OpacitySession.__init__)), \
            mock.patch.object(TiledStore, "__init__", tracked_init):
        clock.started = time.perf_counter()
        anonymize(request, observer=clock)
    reached = clock.first_evaluation is not None
    set_up = (clock.first_evaluation - clock.started) if reached else None
    return clock.seconds, set_up, sum(store.tile_evictions for store in stores)


def _measure():
    return {name: [_set_up(fields) for _ in range(ROUNDS)]
            for name, fields in UNITS.items()}


def bench_setup(benchmark):
    report = run_once(benchmark, _measure)
    print(f"\n== Run set-up by phase (median of {ROUNDS}, ms) ==")
    for name, runs in report.items():
        # Premise: set-up ended at a first evaluation, every round.
        assert all(set_up is not None for _, set_up, _ in runs), (
            f"{name}: a run never reached its first evaluation")
        phases = "  ".join(
            f"{phase}={1e3 * statistics.median(r[0][phase] for r in runs):.1f}"
            for phase in PHASES)
        set_up = 1e3 * statistics.median(set_up for _, set_up, _ in runs)
        evictions = runs[0][2]
        print(f"  {name:<28} {phases}  set-up={set_up:.1f}  "
              f"tile_evictions={evictions}")
        if "tiled" in name:
            assert all(e > 0 for _, _, e in runs), (
                f"{name}: the opening count evicted no tile")
