"""Shared-memory data plane: parallel θ-groups over one published sample.

The tentpole scenario of the zero-copy plane (DESIGN.md §12): a
*single-sample* grid — one dataset/size/seed, several algorithms and L
values, a θ grid per combination — whose θ-sweep groups fan out across a
process pool while the parent performs exactly **one** sample load and
**one** L_max bounded-distance computation, published once into
shared-memory segments that every worker attaches read-only.

Two baselines bracket the plane:

* ``serial`` — ``max_workers=0``, the in-process reference the responses
  must be bit-identical to;
* ``legacy`` — ``shared_memory=False``, the PR-6 fan-out where each
  worker re-derives its own sample artifacts (the redundant work the
  arena removes).

The work counters are deterministic engine properties and are asserted
under the CI smoke knob as well.  The wall-clock comparison runs a
heavier single-sample grid and first asserts its premise, a serial run
that outlasts pool startup many times over; the speedup is only
*asserted* when the machine actually has the cores to parallelize
(``os.cpu_count() >= workers``) — on smaller boxes the numbers are
printed for inspection but a speedup is physically impossible.

The speedup also rests on the pool workers running BLAS on one thread
each (DESIGN.md §14): with OpenBLAS's default of one thread per core,
every worker's dense frontier products would spin threads on cores the
other workers occupy.  Both benchmarks record each pooled θ-group's BLAS
thread count and assert it is 1 whenever OpenBLAS is loaded.
"""

import os
import time

from benchmarks.conftest import smoke
from repro.api import AnonymizationRequest, GridRequest, run_grid
from repro.api import theta_sweep
from repro.core.scan_pool import blas_threads

#: The counters grid: every θ-group of one gnutella sample, which the
#: counters and the parity check need, however cheap its groups are.
DATASET = "gnutella"
SAMPLE_SIZE = 200
ALGORITHMS = ("rem", "rem-ins")
LENGTHS = (1, 2)
LOOKAHEADS = smoke((1, 2, 3), (1, 2))
THETAS = (0.9, 0.8, 0.7, 0.6, 0.5)
WORKERS = smoke(4, 2)

#: The wall-clock grid: one enron sample whose four L=2 θ-groups (rem and
#: rem-ins, look-ahead 1 and 2) take ~0.2, 1.9, 2.4 and 3.0 s serially on a
#: 2-core x86-64 host, so 2 workers can split them about evenly and 4 run
#: them side by side.  The gnutella grid above no longer can: since L=2
#: scans score from common-neighbour counts, it runs serially in 0.2-0.4 s,
#: and its pooled run mostly measures pool startup.
SPEEDUP_DATASET = "enron"
SPEEDUP_SAMPLE_SIZE = 80
SPEEDUP_LOOKAHEADS = (1, 2)
SPEEDUP_THETAS = (0.5, 0.4, 0.3)
#: The premise of the comparison: the serial grid takes at least this
#: long, many times the ~0.3 s that two fork workers and the arena take
#: to start.  A faster grid measures pool startup, not the plane.
MIN_SERIAL_S = 2.0
#: Minimum pooled-vs-serial speedup asserted when the cores exist: the
#: full shape (4 workers on >= 4 cores) must beat 2x; the CI smoke shape
#: (2-core runners) just has to show a real win over serial.
MIN_SPEEDUP = smoke(2.0, 1.05)

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "anonymized_edges", "stop_reason")


def _grid() -> GridRequest:
    base = AnonymizationRequest(dataset=DATASET, sample_size=SAMPLE_SIZE,
                                seed=0)
    return GridRequest.from_axes(base, algorithms=ALGORITHMS,
                                 length_thresholds=LENGTHS,
                                 lookaheads=LOOKAHEADS, thetas=THETAS)


def _speedup_grid() -> GridRequest:
    base = AnonymizationRequest(dataset=SPEEDUP_DATASET,
                                sample_size=SPEEDUP_SAMPLE_SIZE, seed=0,
                                length_threshold=2)
    return GridRequest.from_axes(base, algorithms=ALGORITHMS,
                                 lookaheads=SPEEDUP_LOOKAHEADS,
                                 thetas=SPEEDUP_THETAS)


def _record_worker_blas_threads(monkeypatch, directory) -> None:
    """Make every θ-group write its process's BLAS thread count to
    ``directory`` (pool workers are forked and inherit the patch)."""
    execute = theta_sweep.execute_sweep_group

    def recording(*args, **kwargs):
        (directory / str(os.getpid())).write_text(str(blas_threads()))
        return execute(*args, **kwargs)

    monkeypatch.setattr(theta_sweep, "execute_sweep_group", recording)


def _assert_workers_ran_one_blas_thread(directory) -> None:
    """The premise of the pooled timing: one BLAS thread per pool worker."""
    recorded = {int(path.name): path.read_text()
                for path in directory.iterdir()}
    parent = blas_threads()
    print(f"\n  BLAS threads: parent {parent}, pool workers "
          f"{sorted(set(recorded.values()))} ({len(recorded)} worker(s))")
    assert recorded and os.getpid() not in recorded
    if parent is not None:  # OpenBLAS is loaded
        assert set(recorded.values()) == {"1"}, recorded


def bench_shm_grid(benchmark, monkeypatch, tmp_path):
    grid = _grid()
    benchmark.group = (f"shm grid, {DATASET} n={SAMPLE_SIZE} "
                       f"{len(grid.groups())} theta-groups x{WORKERS}w")

    start = time.perf_counter()
    serial = run_grid(grid, max_workers=0)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    legacy = run_grid(grid, max_workers=WORKERS, shared_memory=False)
    legacy_s = time.perf_counter() - start

    _record_worker_blas_threads(monkeypatch, tmp_path)
    pooled = benchmark.pedantic(
        run_grid, args=(grid,), kwargs={"max_workers": WORKERS},
        rounds=1, iterations=1)
    _assert_workers_ran_one_blas_thread(tmp_path)

    print(f"\n  grid: {len(grid.requests)} configs in {len(grid.groups())} "
          f"theta group(s) over {len(grid.sample_groups())} sample group(s)"
          f"\n  serial (max_workers=0):        {serial_s:8.3f}s"
          f"\n  legacy plane ({WORKERS} workers):      {legacy_s:8.3f}s"
          f"\n  shm plane ({WORKERS} workers): see benchmark timing above"
          f"\n  shm grid work: {pooled.num_sample_loads} load(s), "
          f"{pooled.num_distance_computes} distance computation(s) "
          f"(legacy plane pays both per worker)")

    # Deterministic acceptance, asserted at every size: one load and one
    # L_max computation for the whole pooled grid, bit-identical responses.
    assert pooled.ok
    assert pooled.num_sample_loads == 1
    assert pooled.num_distance_computes == 1
    for ours, theirs in zip(pooled.responses, serial.responses):
        for field in PARITY_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), field
    for ours, theirs in zip(legacy.responses, serial.responses):
        for field in PARITY_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), field


def bench_shm_grid_speedup(benchmark, monkeypatch, tmp_path):
    """Wall-clock: θ-group fan-out vs the serial baseline (core-gated)."""
    grid = _speedup_grid()
    benchmark.group = f"shm grid speedup x{WORKERS}w"

    start = time.perf_counter()
    serial = run_grid(grid, max_workers=0)
    serial_s = time.perf_counter() - start
    print(f"\n  serial grid: {len(grid.groups())} theta-groups in {serial_s:.3f}s "
          f"(premise: >= {MIN_SERIAL_S}s)")
    assert serial_s >= MIN_SERIAL_S, (
        f"premise: the serial grid took {serial_s:.2f}s < {MIN_SERIAL_S}s, "
        f"so a pooled run would mostly measure pool startup")

    _record_worker_blas_threads(monkeypatch, tmp_path)
    start = time.perf_counter()
    pooled = benchmark.pedantic(
        run_grid, args=(grid,), kwargs={"max_workers": WORKERS},
        rounds=1, iterations=1)
    pooled_s = time.perf_counter() - start
    _assert_workers_ran_one_blas_thread(tmp_path)

    cores = os.cpu_count() or 1
    speedup = serial_s / pooled_s if pooled_s else float("inf")
    print(f"\n  serial {serial_s:.3f}s vs shm x{WORKERS}w {pooled_s:.3f}s "
          f"-> speedup {speedup:.2f}x on {cores} core(s) "
          f"(asserting >= {MIN_SPEEDUP}x only when cores >= workers)")
    assert pooled.ok
    for ours, theirs in zip(pooled.responses, serial.responses):
        for field in PARITY_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), field
    if cores >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"shm plane speedup {speedup:.2f}x below {MIN_SPEEDUP}x "
            f"on {cores} cores")
