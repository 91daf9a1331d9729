"""Batch execution of anonymization requests across worker processes.

A :class:`BatchRunner` fans a list of :class:`AnonymizationRequest` records
over a ``concurrent.futures.ProcessPoolExecutor``.  Requests cross the
process boundary as plain dictionaries (the JSON form of the request), so
workers only need the default registry — the built-in algorithms register
themselves when :mod:`repro` is imported in the worker.  Custom registries
with process-local registrations therefore require ``max_workers=0``
(in-process execution), which is also the deterministic mode used in tests.

:meth:`BatchRunner.run_grid` fans *θ-sweep groups* (not single requests)
across the pool: each group is one checkpointed anonymization pass
(:mod:`repro.api.theta_sweep`), so a worker amortizes a whole θ grid
instead of re-running the anonymization per grid point.  On the default
zero-copy shared-memory data plane (:mod:`repro.api.shm`) the parent loads
each sample group's graph and runs its L_max distance computation exactly
once, publishes both to shared-memory segments, and workers attach
read-only views — so even a single-sample grid parallelizes across all
cores with zero redundant loads or BFS runs.  ``shared_memory=False``
falls back to fanning whole *sample groups*, each worker re-deriving its
own artifacts.

Every pool is started with an initializer that installs a process-level
:class:`~repro.api.cache.ExecutionCache` in the worker, so a worker loads
each dataset/size/seed sample once across **all** the groups it executes
(workers are reused between submissions) instead of reloading it per group.

Guarantees:

* **Ordering** — responses come back in request order regardless of which
  worker finished first.
* **Failure isolation** — an exception inside one request becomes an error
  response (``response.error`` set, ``success=False``) and never aborts
  the rest of the batch; sweep groups isolate failures at group
  granularity.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.api.progress import ProgressObserver
from repro.api.registry import AnonymizerRegistry
from repro.api.requests import AnonymizationRequest, AnonymizationResponse

if TYPE_CHECKING:  # pragma: no cover — avoids an import cycle at runtime
    from repro.api.cache import ExecutionCache, GridStats
    from repro.api.shm import ArenaDescriptor
    from repro.api.sweeps import GridRequest

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


def worker_cache() -> Optional["ExecutionCache"]:
    """The current process's worker cache, if one was installed."""
    return _WORKER_CACHE


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


def _execute_group_payload(payloads: List[Dict[str, Any]],
                           data_dir: Optional[str],
                           l_max_hint: Optional[int] = None) -> List[Dict[str, Any]]:
    """Worker-side entry point for one θ-sweep group (module-level for pickling)."""
    from repro.api.theta_sweep import execute_sweep_group

    requests = [AnonymizationRequest.from_dict(payload) for payload in payloads]
    graph = initial_distances = baseline = None
    cache = worker_cache()
    if cache is not None:
        # The worker's process-level cache: groups sharing a sample load it
        # once per worker instead of once per group, and the per-sample
        # baseline and L-bounded matrix are likewise derived once.
        # ``l_max_hint`` carries the grid-wide maximum L of this sample's
        # groups, so a worker executing an L sweep computes the
        # matrix once at L_max instead of once per distinct L.
        first = requests[0]
        try:
            graph = cache.graph_for(first)
            initial_distances = cache.distances_for(
                first, max(l_max_hint or 1, first.length_threshold))
            if any(request.include_utility for request in requests):
                baseline = cache.baseline_for(first)
        except Exception as exc:  # noqa: BLE001 — same isolation as the group
            return [AnonymizationResponse.failure(request, exc).to_dict()
                    for request in requests]
    responses = execute_sweep_group(requests, data_dir=data_dir, graph=graph,
                                    initial_distances=initial_distances,
                                    baseline=baseline)
    return [response.to_dict() for response in responses]


def _execute_sample_group_payload(payloads: List[Dict[str, Any]],
                                  data_dir: Optional[str],
                                  on_error: str = "isolate") -> Dict[str, Any]:
    """Worker-side entry point for one grid sample group (module-level).

    Returns ``{"responses": [...], "stats": (sample_loads,
    distance_computes)}`` — the response dicts plus this task's counter
    deltas, so the parent can aggregate grid-wide work totals.
    """
    from repro.api.cache import ExecutionCache
    from repro.api.sweeps import execute_sample_group

    requests = [AnonymizationRequest.from_dict(payload) for payload in payloads]
    cache = worker_cache() or ExecutionCache(data_dir=data_dir)
    loads, computes = cache.sample_loads, cache.distance_computes
    try:
        responses = execute_sample_group(requests, data_dir=data_dir,
                                         cache=cache, on_error=on_error)
    finally:
        # A sample group is handed to a worker exactly once, so its entries
        # can never be hit again — drop them to bound worker memory.
        cache.release(requests[0])
    return {"responses": [response.to_dict() for response in responses],
            "stats": (cache.sample_loads - loads,
                      cache.distance_computes - computes)}


def _execute_shm_group_payload(payloads: List[Dict[str, Any]],
                               data_dir: Optional[str],
                               descriptor: "ArenaDescriptor",
                               baseline: Optional[Any] = None) -> Dict[str, Any]:
    """Worker-side entry point for one θ-sweep group on the shm plane.

    ``descriptor`` names the parent-published arena of this group's sample:
    the worker adopts it into its process-level cache (attaching once per
    arena, no disk I/O, no engine run), derives the group's initial matrix
    by thresholding the shared L_max view, and executes the θ-sweep group
    exactly like the serial path.  ``baseline`` is the parent-computed
    utility baseline (``None`` when no request of the group needs one).
    Returns the same ``{"responses", "stats"}`` envelope as
    :func:`_execute_sample_group_payload`; the stats deltas stay (0, 0)
    unless the worker had to fall back to real work.
    """
    from repro.api.cache import ExecutionCache
    from repro.api.theta_sweep import execute_sweep_group

    requests = [AnonymizationRequest.from_dict(payload) for payload in payloads]
    cache = worker_cache() or ExecutionCache(data_dir=data_dir)
    loads, computes = cache.sample_loads, cache.distance_computes
    first = requests[0]
    try:
        cache.adopt_arena(first, descriptor)
        graph = cache.graph_for(first)
        l_max = descriptor.l_max_for(first.engine)
        initial_distances = cache.distances_for(
            first, max(l_max or 1, first.length_threshold))
    except Exception as exc:  # noqa: BLE001 — same isolation as the group
        return {"responses": [AnonymizationResponse.failure(request, exc).to_dict()
                              for request in requests],
                "stats": (cache.sample_loads - loads,
                          cache.distance_computes - computes)}
    responses = execute_sweep_group(requests, data_dir=data_dir, graph=graph,
                                    initial_distances=initial_distances,
                                    baseline=baseline)
    return {"responses": [response.to_dict() for response in responses],
            "stats": (cache.sample_loads - loads,
                      cache.distance_computes - computes)}


class BatchRunner:
    """Execute request batches serially or across a process pool.

    Parameters
    ----------
    max_workers:
        ``0`` — run in the calling process (no pool, deterministic);
        ``None`` — one worker per CPU (capped at the batch size);
        ``n > 0`` — at most ``n`` worker processes.
    data_dir:
        Optional directory with real SNAP dataset files, forwarded to the
        dataset loaders in every worker.
    shared_memory:
        Whether :meth:`run_grid` uses the zero-copy shared-memory data
        plane when pooled.  ``None`` (default) means *on* whenever a pool
        is used; ``False`` is the escape hatch back to the sample-group
        fan-out.  Ignored with ``max_workers=0``.
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
                 cache: Optional["ExecutionCache"] = None,
                 stats: Optional["GridStats"] = None
                 ) -> List[AnonymizationResponse]:
        """Execute a grid, fanning *θ-sweep groups* over shared memory.

        On the default shared-memory data plane the parent resolves each
        sample group's graph and runs its L_max bounded-distance
        computation exactly once, publishes both to shared-memory segments
        (:mod:`repro.api.shm`), and fans the sample's θ-sweep groups —
        each a checkpointed anonymization pass — across the pool carrying
        only arena descriptors.  ``shared_memory=False`` (on the runner)
        falls back to fanning whole *sample groups*: every request sharing
        a dataset/size/seed runs on one worker that derives its own
        artifacts.  Responses come back in request order and are
        bit-identical between the planes and the ``max_workers=0`` serial
        path.  A custom ``registry`` (or an injected ``cache``, the
        instrumentation/sharing hook of the benches) is only honoured with
        ``max_workers=0``; workers build their own process-level caches.

        ``stats``, when given, accumulates grid-wide sample-load and
        distance-computation counts across every participating process;
        its ``tracked`` flag is set on the paths that can observe them.

        The grid's ``on_error`` policy governs failure handling:
        ``"isolate"`` (default) keeps the historical behaviour, while
        ``"fail_fast"`` raises :class:`~repro.errors.GridAbortedError` on
        the first failed request, cancelling not-yet-started work
        (in-flight workers finish their current group).
        """
        from repro.api.cache import ExecutionCache
        from repro.api.sweeps import execute_sample_group
        from repro.errors import GridAbortedError

        on_error = grid.on_error
        groups = grid.sample_groups()
        pooled = self._max_workers != 0 and len(grid.groups()) > 1
        use_shm = True if self._shared_memory is None else self._shared_memory
        if pooled and use_shm and registry is None and cache is None:
            return self._run_grid_shared(grid, on_error, stats)
        ordered: List[Optional[AnonymizationResponse]] = [None] * len(grid.requests)
        if self._max_workers != 0 and not use_shm and len(groups) == 1 \
                and cache is None and registry is None and on_error == "isolate":
            # Legacy plane, single sample group: nothing to fan at sample
            # granularity, so fan its θ-groups instead (each worker
            # derives its own sample artifacts).  On the shm plane a
            # single θ-group grid instead runs serially below — one group
            # has no parallelism to exploit, and the serial path tracks
            # the work counters.
            return self._run_theta_groups(grid)
        if self._max_workers == 0 or len(groups) == 1:
            owned = cache is None
            if owned:
                cache = ExecutionCache(data_dir=self._data_dir)
            loads = cache.sample_loads
            computes = cache.distance_computes
            for indices in groups:
                group = [grid.requests[index] for index in indices]
                responses = execute_sample_group(
                    group, registry=registry,
                    data_dir=self._data_dir, cache=cache, on_error=on_error)
                if owned:
                    # Each sample group is visited exactly once, so its
                    # entries can be dropped immediately to bound peak
                    # memory (an injected cache keeps caller semantics).
                    cache.release(group[0])
                for index, response in zip(indices, responses):
                    ordered[index] = response
            if stats is not None:
                stats.add(cache.sample_loads - loads,
                          cache.distance_computes - computes)
                stats.tracked = True
            return ordered  # type: ignore[return-value]
        workers = self._worker_count(len(groups))
        with self._pool(workers) as pool:
            futures: List[Future] = [
                pool.submit(_execute_sample_group_payload,
                            [grid.requests[index].to_dict() for index in indices],
                            self._data_dir, on_error)
                for indices in groups
            ]
            for indices, future in zip(groups, futures):
                try:
                    result = future.result()
                    responses = [AnonymizationResponse.from_dict(payload)
                                 for payload in result["responses"]]
                    if stats is not None:
                        stats.add(*result["stats"])
                except GridAbortedError:
                    for pending in futures:
                        pending.cancel()
                    raise
                except Exception as exc:  # worker crash / pool breakage
                    if on_error == "fail_fast":
                        for pending in futures:
                            pending.cancel()
                        raise GridAbortedError(
                            f"grid aborted (on_error='fail_fast'): worker "
                            f"failed with {type(exc).__name__}: {exc}") from exc
                    responses = [AnonymizationResponse.failure(
                        grid.requests[index], exc) for index in indices]
                for index, response in zip(indices, responses):
                    ordered[index] = response
        if stats is not None:
            stats.tracked = True
        return ordered  # type: ignore[return-value]

    def _run_theta_groups(self, grid: "GridRequest"
                          ) -> List[AnonymizationResponse]:
        """Fan one sample's θ-sweep groups across the pool, off the shm plane.

        Every worker derives the sample's artifacts through its own
        process-level cache; a single θ-group runs in this process.
        """
        from repro.api.cache import sample_key
        from repro.api.theta_sweep import execute_sweep_group

        groups = grid.groups()
        ordered: List[Optional[AnonymizationResponse]] = [None] * len(grid.requests)
        if len(groups) == 1:
            return execute_sweep_group(grid.requests, data_dir=self._data_dir)
        # Grid-wide maximum L per (sample, engine): a worker that executes
        # several L groups of one sample computes the shared matrix once,
        # at the hinted bound, instead of once per L.
        l_max_hints: Dict[Any, int] = {}
        for request in grid.requests:
            hint_key = (sample_key(request), request.engine)
            l_max_hints[hint_key] = max(l_max_hints.get(hint_key, 1),
                                        request.length_threshold)
        workers = self._worker_count(len(groups))
        with self._pool(workers) as pool:
            futures: List[Future] = []
            for indices in groups:
                first = grid.requests[indices[0]]
                futures.append(pool.submit(
                    _execute_group_payload,
                    [grid.requests[index].to_dict() for index in indices],
                    self._data_dir,
                    l_max_hints[(sample_key(first), first.engine)]))
            for indices, future in zip(groups, futures):
                try:
                    responses = [AnonymizationResponse.from_dict(payload)
                                 for payload in future.result()]
                except Exception as exc:  # worker crash / pool breakage
                    responses = [AnonymizationResponse.failure(
                        grid.requests[index], exc) for index in indices]
                for index, response in zip(indices, responses):
                    ordered[index] = response
        return ordered  # type: ignore[return-value]

    def _run_grid_shared(self, grid: "GridRequest", on_error: str,
                         stats: Optional["GridStats"]
                         ) -> List[AnonymizationResponse]:
        """The zero-copy plane: θ-sweep groups fan out over shared arenas.

        For each sample group the **parent** loads the graph, runs one
        L_max bounded-distance computation per engine, derives the utility
        baseline, and publishes graph + matrices to a
        :class:`~repro.api.shm.SharedSampleArena`; the sample's θ-sweep
        groups are then submitted to the pool carrying the arena
        descriptor (and the pickled baseline).  Publication is pipelined:
        while workers chew on one sample's groups the parent prepares the
        next sample.  Each arena is unlinked the moment its last θ-group
        completes — and unconditionally in the ``finally`` block, so a
        worker dying mid-group (even SIGKILL) can never leak ``/dev/shm``
        segments: cleanup is owned by the parent alone.
        """
        from repro.api.cache import ExecutionCache
        from repro.api.shm import SharedSampleArena, TiledMatrixSpec
        from repro.api.sweeps import _abort_on_error, plan_sample_group
        from repro.errors import GridAbortedError
        from repro.graph.matrices import distance_dtype

        parent = ExecutionCache(data_dir=self._data_dir)
        ordered: List[Optional[AnonymizationResponse]] = [None] * len(grid.requests)
        workers = self._worker_count(len(grid.groups()))
        arenas: List[SharedSampleArena] = []
        # (global todo indices, future, owning arena) per submitted θ-group,
        # in submission order — same-arena tasks are contiguous, so an
        # arena can be unlinked when its last entry is collected.
        tasks: List[Any] = []

        def _cancel_pending() -> None:
            for _todo, pending, _arena in tasks:
                pending.cancel()

        try:
            with self._pool(workers) as pool:
                for sample_indices in grid.sample_groups():
                    group = [grid.requests[index] for index in sample_indices]
                    try:
                        graph = parent.graph_for(group[0])
                    except Exception as exc:  # noqa: BLE001 — isolation contract
                        if on_error == "fail_fast":
                            _cancel_pending()
                            raise GridAbortedError(
                                f"grid aborted (on_error='fail_fast'): sample "
                                f"load failed with {type(exc).__name__}: {exc}"
                                ) from exc
                        for index in sample_indices:
                            ordered[index] = AnonymizationResponse.failure(
                                grid.requests[index], exc)
                        continue
                    plans, l_max_by_engine = plan_sample_group(group)
                    matrices: Dict[str, Any] = {}
                    tiled: Dict[str, TiledMatrixSpec] = {}
                    engine_errors: Dict[str, Exception] = {}
                    for engine, l_max in l_max_by_engine.items():
                        probe = next(request for request in group
                                     if request.engine == engine)
                        try:
                            # Tiled-tier engines never materialize the dense
                            # L_max matrix: the parent publishes the CSR
                            # adjacency and store geometry instead, and the
                            # workers compute tiles lazily on their side of
                            # the arena.  (resolve also fires the up-front
                            # memory guard for explicit dense over budget.)
                            config = probe.store_config()
                            tier = config.resolve(graph.num_vertices,
                                                  distance_dtype(l_max))
                            if tier == "tiled":
                                tiled[engine] = TiledMatrixSpec(
                                    l_max=l_max,
                                    budget_bytes=config.budget_bytes)
                            else:
                                matrices[engine] = (
                                    parent.base_matrix_for(probe, l_max), l_max)
                        except Exception as exc:  # noqa: BLE001 — e.g. bad engine
                            if on_error == "fail_fast":
                                _cancel_pending()
                                raise GridAbortedError(
                                    f"grid aborted (on_error='fail_fast'): "
                                    f"distance matrix failed with "
                                    f"{type(exc).__name__}: {exc}") from exc
                            engine_errors[engine] = exc
                    baseline = None
                    baseline_error: Optional[Exception] = None
                    if any(request.include_utility for request in group):
                        try:
                            baseline = parent.baseline_for(group[0])
                        except Exception as exc:  # noqa: BLE001
                            if on_error == "fail_fast":
                                _cancel_pending()
                                raise GridAbortedError(
                                    f"grid aborted (on_error='fail_fast'): "
                                    f"baseline failed with "
                                    f"{type(exc).__name__}: {exc}") from exc
                            baseline_error = exc
                    arena = SharedSampleArena.publish(graph, matrices,
                                                      tiled=tiled)
                    arenas.append(arena)
                    # The arena now carries the sample; drop the parent's
                    # private copies so peak memory stays one sample deep
                    # (the counters survive release).
                    parent.release(group[0])
                    for plan in plans:
                        todo = [sample_indices[local] for local in plan.todo]
                        sub = [grid.requests[index] for index in todo]
                        first = sub[0]
                        failure: Optional[Exception] = None
                        if first.engine in engine_errors:
                            failure = engine_errors[first.engine]
                        elif baseline_error is not None and any(
                                request.include_utility for request in sub):
                            failure = baseline_error
                        if failure is not None:
                            for index in todo:
                                ordered[index] = AnonymizationResponse.failure(
                                    grid.requests[index], failure)
                            continue
                        needs_baseline = any(request.include_utility
                                             for request in sub)
                        future = pool.submit(
                            _execute_shm_group_payload,
                            [request.to_dict() for request in sub],
                            self._data_dir,
                            arena.descriptor,
                            baseline if needs_baseline else None)
                        tasks.append((todo, future, arena))
                for position, (todo, future, arena) in enumerate(tasks):
                    try:
                        result = future.result()
                        responses = [AnonymizationResponse.from_dict(payload)
                                     for payload in result["responses"]]
                        if stats is not None:
                            stats.add(*result["stats"])
                    except Exception as exc:  # worker crash / pool breakage
                        if on_error == "fail_fast":
                            _cancel_pending()
                            raise GridAbortedError(
                                f"grid aborted (on_error='fail_fast'): worker "
                                f"failed with {type(exc).__name__}: {exc}"
                                ) from exc
                        responses = [AnonymizationResponse.failure(
                            grid.requests[index], exc) for index in todo]
                    if on_error == "fail_fast":
                        try:
                            _abort_on_error(responses)
                        except GridAbortedError:
                            _cancel_pending()
                            raise
                    for index, response in zip(todo, responses):
                        ordered[index] = response
                    # Unlink eagerly once every θ-group of this arena has
                    # completed (same-arena tasks are contiguous); workers
                    # that attached keep their mappings (POSIX semantics).
                    if (position + 1 == len(tasks)
                            or tasks[position + 1][2] is not arena):
                        arena.unlink()
        finally:
            # The crash-safety guarantee: whatever happened above — worker
            # SIGKILL, pool breakage, fail_fast abort — the parent removes
            # every segment it created (unlink is idempotent).
            for arena in arenas:
                arena.unlink()
        if stats is not None:
            stats.add(parent.sample_loads, parent.distance_computes)
            stats.tracked = True
        return ordered  # type: ignore[return-value]
