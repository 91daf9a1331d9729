"""Batch and grid execution across worker processes.

A :class:`BatchRunner` fans a list of :class:`AnonymizationRequest` records
over a ``concurrent.futures.ProcessPoolExecutor``.  Requests cross the
process boundary as plain dictionaries (the JSON form of the request), so
workers only need the default registry — the built-in algorithms register
themselves when :mod:`repro` is imported in the worker.  Custom registries
with process-local registrations therefore run in-process (``max_workers=0``
for batches; grids with a custom registry never fan out), which is also
the deterministic mode used in tests.

:meth:`BatchRunner.iter_grid` is the one grid executor, a plan → prepare →
run pipeline (:mod:`repro.api.sweeps`): each θ-sweep group is one
checkpointed pass, run in this process or through the one worker entry
point, :func:`_execute_task`.  On the default shared-memory plane
(:mod:`repro.api.shm`) the parent prepares each sample — graph, dense
L_max base (only for θ-groups at L >= 2 on the dense tier), baseline —
once and publishes it, and
workers attach read-only views, so even a single-sample grid parallelizes
with zero redundant loads or BFS runs.  ``shared_memory=False`` lets every worker prepare its
own sample: one task per sample group when the grid has several samples,
one per θ-group when it has one.  Pool workers carry a process-level
:class:`~repro.api.cache.ExecutionCache`, so each loads a sample at most
once across all the tasks it executes.

Guarantees:

* **Ordering** — responses come back in request order regardless of which
  worker finished first.
* **Failure isolation** — an exception inside one request becomes an error
  response (``response.error`` set, ``success=False``) and never aborts
  the rest of the batch; grids isolate failures at θ-group granularity
  unless their ``on_error`` policy is ``fail_fast``.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Any, Collection, Dict, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

from repro.api.progress import ProgressObserver
from repro.api.registry import AnonymizerRegistry, default_registry
from repro.api.requests import AnonymizationRequest, AnonymizationResponse

if TYPE_CHECKING:  # pragma: no cover — avoids an import cycle at runtime
    from repro.api.cache import ExecutionCache, GridStats
    from repro.api.shm import ArenaDescriptor
    from repro.api.sweeps import GridRequest, SamplePlan, ThetaGroupPlan

#: Process-level cache of the current worker (installed by the pool
#: initializer; ``None`` in the parent process and in unpooled execution).
_WORKER_CACHE: Optional["ExecutionCache"] = None


def _initialize_worker(data_dir: Optional[str]) -> None:
    """Pool initializer: give this worker process its execution cache."""
    global _WORKER_CACHE
    from repro.api.cache import ExecutionCache
    from repro.core.scan_pool import mark_pool_worker

    # θ-group workers already saturate the machine; nested scan pools or
    # multi-threaded BLAS inside them would oversubscribe it (DESIGN.md §14).
    mark_pool_worker()
    _WORKER_CACHE = ExecutionCache(data_dir=data_dir)


def execute_request(request: AnonymizationRequest, *,
                    registry: Optional[AnonymizerRegistry] = None,
                    observer: Optional[ProgressObserver] = None,
                    data_dir: Optional[str] = None) -> AnonymizationResponse:
    """Run one request, converting any exception into an error response."""
    from repro.api.facade import anonymize

    try:
        return anonymize(request, registry=registry, observer=observer,
                         data_dir=data_dir)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return AnonymizationResponse.failure(request, exc)


def _execute_payload(payload: Dict[str, Any], data_dir: Optional[str]) -> Dict[str, Any]:
    """Worker-side entry point: dict in, dict out (must stay module-level
    so it is picklable by the process pool)."""
    request = AnonymizationRequest.from_dict(payload)
    return execute_request(request, data_dir=data_dir).to_dict()


@dataclass(frozen=True)
class GridTask:
    """θ-groups of one sample group, shipped to a pool worker.

    ``payloads`` holds the dict form of every request the ``plans`` touch,
    by grid index; ``l_max`` is the sample's grid-wide distance bound.
    ``arena`` and ``baseline`` carry the parent's published sample;
    ``release`` drops the sample from the worker cache afterwards.
    """

    payloads: Mapping[int, Dict[str, Any]]
    plans: Tuple["ThetaGroupPlan", ...]
    l_max: int
    arena: Optional["ArenaDescriptor"] = None
    baseline: Any = None
    release: bool = False


def _execute_task(task: GridTask, data_dir: Optional[str],
                  on_error: str) -> Dict[str, Any]:
    """The one worker entry point of the grid executor (module-level).

    Adopts the parent's arena when the task names one — a failed attach
    surfaces as this task's worker failure — then runs the same prepare
    and run halves as in-process execution through the worker cache.
    Returns ``{"responses": {index: dict}, "stats": (sample_loads,
    distance_computes)}``, the counter deltas the parent totals.
    """
    from repro.api.cache import ExecutionCache
    from repro.api.sweeps import prepare_sample, run_prepared

    requests = {index: AnonymizationRequest.from_dict(payload)
                for index, payload in task.payloads.items()}
    first = next(iter(requests.values()))
    cache = _WORKER_CACHE or ExecutionCache(data_dir=data_dir)
    loads, computes = cache.sample_loads, cache.distance_computes
    if task.arena is not None:
        cache.adopt_arena(first, task.arena, baseline=task.baseline)
    try:
        prepared = prepare_sample(requests, task.plans, task.l_max, cache,
                                  on_error=on_error, data_dir=data_dir)
        responses = run_prepared(requests, task.plans, prepared, cache,
                                 data_dir=data_dir, on_error=on_error)
    finally:
        if task.release:
            cache.release(first)
    return {"responses": {index: response.to_dict()
                          for index, response in responses.items()},
            "stats": (cache.sample_loads - loads,
                      cache.distance_computes - computes)}


class BatchRunner:
    """Execute request batches and grids serially or across a process pool.

    Parameters
    ----------
    max_workers:
        ``0`` — run in the calling process (no pool, deterministic);
        ``None`` — one worker per CPU (capped at the number of tasks);
        ``n > 0`` — at most ``n`` worker processes.
    data_dir:
        Optional directory with real SNAP dataset files, forwarded to the
        dataset loaders in every worker.
    shared_memory:
        Whether pooled grids use the zero-copy shared-memory data plane.
        ``None`` (default) means *on*; ``False`` lets every worker
        prepare its own samples.  Ignored with ``max_workers=0``.
    """

    def __init__(self, max_workers: Optional[int] = None, *,
                 data_dir: Optional[str] = None,
                 shared_memory: Optional[bool] = None) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self._max_workers = max_workers
        self._data_dir = data_dir
        self._shared_memory = shared_memory

    def run(self, requests: Sequence[AnonymizationRequest]) -> List[AnonymizationResponse]:
        """Execute ``requests`` and return responses in request order."""
        requests = list(requests)
        if not requests:
            return []
        if self._max_workers == 0 or len(requests) == 1:
            return self.run_serial(requests)
        workers = self._worker_count(len(requests))
        responses: List[AnonymizationResponse] = []
        with self._pool(workers) as pool:
            futures: List[Future] = [
                pool.submit(_execute_payload, request.to_dict(), self._data_dir)
                for request in requests
            ]
            for request, future in zip(requests, futures):
                try:
                    responses.append(AnonymizationResponse.from_dict(future.result()))
                except Exception as exc:  # worker crash / pool breakage
                    responses.append(AnonymizationResponse.failure(request, exc))
        return responses

    def run_serial(self, requests: Sequence[AnonymizationRequest]) -> List[AnonymizationResponse]:
        """Execute ``requests`` one after another in this process."""
        return [execute_request(request, data_dir=self._data_dir)
                for request in requests]

    def _worker_count(self, num_jobs: int) -> int:
        """Pool size for ``num_jobs`` independent submissions."""
        workers = self._max_workers or os.cpu_count() or 1
        return min(workers, num_jobs)

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        """A process pool whose workers carry a process-level execution cache."""
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_initialize_worker,
                                   initargs=(self._data_dir,))

    # ------------------------------------------------------------------
    # multi-axis grids
    # ------------------------------------------------------------------
    def run_grid(self, grid: "GridRequest", *,
                 registry: Optional[AnonymizerRegistry] = None,
                 stats: Optional["GridStats"] = None
                 ) -> List[AnonymizationResponse]:
        """Execute a grid through :meth:`iter_grid`, in request order."""
        ordered: List[Optional[AnonymizationResponse]] = [None] * len(grid.requests)
        for indices, responses in self.iter_grid(grid, registry=registry,
                                                 stats=stats):
            for index, response in zip(indices, responses):
                ordered[index] = response
        return ordered  # type: ignore[return-value]

    def iter_grid(self, grid: "GridRequest", *,
                  registry: Optional[AnonymizerRegistry] = None,
                  observer: Optional[ProgressObserver] = None,
                  cache: Optional["ExecutionCache"] = None,
                  resume_from: Optional[Mapping[int, Any]] = None,
                  skip: Collection[int] = (),
                  stats: Optional["GridStats"] = None
                  ) -> Iterator[Tuple[List[int], List[AnonymizationResponse]]]:
        """The grid executor: yield ``(indices, responses)`` per sample group.

        Sample groups come in grid order, each as it completes, with
        global request indices.  Indices in ``skip`` are not run (the
        caller holds their responses); ``resume_from`` maps indices to
        persisted checkpoints (see
        :func:`~repro.api.sweeps.execute_sample_group`).  In-process
        execution — ``max_workers=0``, a custom ``registry`` or a single
        θ-group — runs on ``cache`` and streams checkpoints to
        ``observer``; pool workers reach no observer.  ``stats`` totals
        the work of every participating process.  The grid's ``on_error``
        applies to every failure (:func:`~repro.api.sweeps.settle_failure`);
        a ``fail_fast`` abort cancels the tasks not yet started.
        """
        from repro.api.cache import ExecutionCache
        from repro.api.sweeps import plan_grid, prepare_sample, run_prepared

        samples = plan_grid(grid.requests, skip=skip, resume_from=resume_from)
        cache = cache or ExecutionCache(data_dir=self._data_dir)
        loads, computes = cache.sample_loads, cache.distance_computes
        num_groups = sum(len(sample.plans) for sample in samples)
        if self._max_workers == 0 or num_groups <= 1 or registry is not None:
            for sample in samples:
                prepared = prepare_sample(
                    grid.requests, sample.plans, sample.l_max, cache,
                    on_error=grid.on_error, data_dir=self._data_dir)
                responses = run_prepared(
                    grid.requests, sample.plans, prepared, cache,
                    registry=registry, observer=observer,
                    data_dir=self._data_dir, on_error=grid.on_error)
                # Each sample group is visited once: drop its entries to
                # bound peak memory (the counters survive release).
                cache.release(grid.requests[sample.members[0]])
                yield list(sample.members), [responses[index]
                                             for index in sample.members]
        else:
            yield from self._fan_out(grid, samples, cache, stats)
        if stats is not None:
            stats.add(cache.sample_loads - loads,
                      cache.distance_computes - computes)

    def _fan_out(self, grid: "GridRequest", samples: List["SamplePlan"],
                 cache: "ExecutionCache", stats: Optional["GridStats"]
                 ) -> Iterator[Tuple[List[int], List[AnonymizationResponse]]]:
        """Submit every sample group's tasks, then collect them in order.

        On the shared-memory plane the parent prepares and publishes each
        sample while workers chew on the previous one's θ-groups; each
        arena is unlinked the moment its last θ-group is collected — and
        unconditionally in the ``finally`` block, so a worker dying
        mid-task (even SIGKILL) can never leak ``/dev/shm`` segments.
        """
        from repro.api.sweeps import settle_failure
        from repro.errors import GridAbortedError

        whole_samples = self._shared_memory is False and len(samples) > 1
        pool = self._pool(self._worker_count(
            len(samples) if whole_samples
            else sum(len(sample.plans) for sample in samples)))
        arenas: List[Any] = []
        submitted = []  # (sample, settled responses, arena, [(task, future)])
        try:
            for sample in samples:
                settled, tasks, arena = self._tasks(grid, sample, cache,
                                                    whole_samples, arenas)
                # Costliest θ-groups start first; collection stays in
                # grid order.
                futures = {}
                for position in sorted(
                        range(len(tasks)),
                        key=lambda i: _task_cost_key(grid.requests, tasks[i])):
                    futures[position] = pool.submit(
                        _execute_task, tasks[position], self._data_dir,
                        grid.on_error)
                submitted.append((sample, settled, arena, [
                    (task, futures[position])
                    for position, task in enumerate(tasks)]))
            for sample, responses, arena, pending in submitted:
                for task, future in pending:
                    try:
                        result = future.result()
                    except Exception as exc:  # worker crash / pool breakage
                        if isinstance(exc, GridAbortedError):
                            raise
                        settle_failure(grid.on_error, "worker", exc,
                                       grid.requests, task.payloads, responses)
                        continue
                    for index, payload in result["responses"].items():
                        responses[index] = AnonymizationResponse.from_dict(payload)
                    if stats is not None:
                        stats.add(*result["stats"])
                if arena is not None:
                    arena.unlink()  # attached workers keep their mappings
                yield list(sample.members), [responses[index]
                                             for index in sample.members]
        finally:
            # After a fail_fast abort, a crash, or the consumer stopping
            # early nothing new starts; the parent owns every segment.
            pool.shutdown(cancel_futures=True)
            for arena in arenas:
                arena.unlink()

    def _tasks(self, grid: "GridRequest", sample: "SamplePlan",
               cache: "ExecutionCache", whole_samples: bool,
               arenas: List[Any]) -> Tuple[Dict[int, AnonymizationResponse],
                                           List[GridTask], Any]:
        """Split one sample group into ``(settled, tasks, arena)``.

        Off the shared-memory plane workers prepare the sample themselves
        (one task per sample group when the grid has several samples, one
        per θ-group otherwise); on it the parent prepares, settles what it
        can, and publishes the ``arena`` (also appended to ``arenas``)."""
        from repro.api.shm import SharedSampleArena
        from repro.api.sweeps import prepare_sample, settle_failure

        requests = grid.requests
        if self._shared_memory is False:
            units = [sample.plans] if whole_samples \
                else [(plan,) for plan in sample.plans]
            return {}, [_task_for(requests, sample, plans,
                                  release=whole_samples)
                        for plans in units], None
        prepared = prepare_sample(requests, sample.plans, sample.l_max, cache,
                                  on_error=grid.on_error,
                                  data_dir=self._data_dir)
        settled, arena = prepared.responses, None
        if prepared.graph is not None:
            try:
                arena = SharedSampleArena.publish(prepared.graph,
                                                  prepared.base,
                                                  prepared.l_max)
                arenas.append(arena)
            except Exception as exc:  # noqa: BLE001 — e.g. /dev/shm full
                settle_failure(grid.on_error, "arena publish", exc, requests,
                               sample.members, settled)
        # The arena now carries the sample: keep the parent one sample deep.
        cache.release(requests[sample.members[0]])
        # Done grid points are settled here; workers run the todo only.
        tasks = [_task_for(requests, sample,
                           (replace(plan, indices=plan.todo, done={}),),
                           arena=arena.descriptor, baseline=prepared.baseline)
                 for plan in sample.plans
                 if any(index not in settled for index in plan.todo)]
        return settled, tasks, arena


def _task_cost_key(requests: Sequence[AnonymizationRequest],
                   task: GridTask) -> Tuple[int, bool]:
    """Sort key putting the tasks likely to run longest first.

    Taken from the task's costliest request: longer L first, then
    algorithms with an insertion phase (they also scan non-edges).  A
    pool that starts them first keeps the grid's critical path off the
    back of its queue.
    """
    registry = default_registry()
    keys = []
    for index in task.payloads:
        request = requests[index]
        inserts = (request.algorithm in registry and "insertion_candidate_cap"
                   in registry.get(request.algorithm).accepts)
        keys.append((-request.length_threshold, not inserts))
    return min(keys)


def _task_for(requests: Sequence[AnonymizationRequest],
              sample: "SamplePlan", plans: Sequence["ThetaGroupPlan"],
              **kwargs: Any) -> GridTask:
    """A :class:`GridTask` running ``plans`` of ``sample``."""
    indices = sorted({index for plan in plans for index in plan.indices})
    return GridTask(payloads={index: requests[index].to_dict()
                              for index in indices},
                    plans=tuple(plans), l_max=sample.l_max, **kwargs)
