"""Process-local cache amortizing repeated work across sweep groups.

A multi-axis grid (:mod:`repro.api.sweeps`) executes many θ-sweep groups
that share an input sample: same dataset/size/seed, different L, algorithm,
or look-ahead.  Before this cache existed, every group re-loaded its sample
from disk (or re-synthesized it), re-derived the utility baseline, and ran
a full bounded-distance computation for its own L — even though one
computation at the group's maximum L already contains every smaller-L
matrix (:mod:`repro.graph.distance_cache`).

:class:`ExecutionCache` holds all three per-sample artifacts:

* the loaded :class:`~repro.graph.graph.Graph` (one load per
  dataset/size/seed, counted by :attr:`sample_loads` — the bench hook);
* the original-graph utility baseline
  (:class:`~repro.metrics.GraphBaseline`), shared by every
  ``include_utility`` response of the sample;
* one :class:`~repro.graph.distance_cache.LMaxDistanceCache` per sample,
  serving every dense-tier L ≤ L_max from a single distance computation
  (counted by :attr:`distance_computes`).  A tiled-tier request is served
  nothing: its session computes its own tiles at its own L, as a single
  :func:`~repro.api.facade.anonymize` run does.

One instance lives per worker process — installed by the
``ProcessPoolExecutor`` initializer of :class:`~repro.api.batch.BatchRunner`
— so a worker loads each sample once across *all* tasks it executes; the
in-process grid executor creates one per grid run.  Cached graphs are
never mutated: every anonymization copies its working graph, so handing the
same :class:`Graph` object to consecutive groups is safe and (because
loading is deterministic) bit-identical to a cold load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Optional

import numpy as np

from repro.api.requests import AnonymizationRequest
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.graph import Graph
from repro.graph.matrices import distance_dtype

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (shm imports graph)
    from repro.api.shm import ArenaDescriptor

__all__ = ["ExecutionCache", "GridStats", "sample_key"]


@dataclass
class GridStats:
    """Grid-wide work counters, aggregated across every participating process.

    The grid executor (:meth:`~repro.api.batch.BatchRunner.iter_grid`)
    sums the parent cache's counter deltas with the deltas each worker
    task reports, so a :class:`~repro.api.sweeps.GridResponse` can state
    how many sample loads and full bounded-distance computations the
    *whole* grid performed, on every route — the observable the
    shared-memory plane is judged by (exactly one of each per sample
    group, not per worker).
    """

    sample_loads: int = 0
    distance_computes: int = 0

    def add(self, sample_loads: int, distance_computes: int) -> None:
        """Accumulate one process's counter deltas."""
        self.sample_loads += sample_loads
        self.distance_computes += distance_computes


def sample_key(request: AnonymizationRequest) -> Hashable:
    """The request's graph-source identity (what a cached sample is keyed by).

    Requests agreeing on this key resolve to bit-identical graphs: dataset
    samples are keyed by (dataset, size, seed) — loading is deterministic —
    and explicit edge lists by their (normalized) edges and vertex count.
    """
    if request.dataset is not None:
        return ("dataset", request.dataset, request.sample_size, request.seed)
    return ("edges", request.edges, request.num_vertices)


class ExecutionCache:
    """Per-process cache of samples, baselines, and L_max distance matrices.

    ``max_samples`` bounds how many distinct samples are retained at once
    (least recently *used* evicted first — every ``graph_for`` /
    ``baseline_for`` / ``distances_for`` hit re-touches its sample, so hot
    samples survive long grids), so a long-lived worker sweeping many
    dataset/size/seed combinations cannot pin every sample's graph and
    n × n matrix for the pool's lifetime; the load/compute counters
    survive eviction.

    On the shared-memory data plane a worker cache additionally holds an
    *arena tier* ahead of its process-local tier: :meth:`adopt_arena`
    installs a sample published by the parent — the graph rebuilt from the
    shared edge array and, when the parent published a dense L_max base,
    a zero-copy :class:`~repro.graph.distance_cache.LMaxDistanceCache`
    over it — without incrementing either counter, because the load and
    the distance computation happened exactly once, in the parent.
    """

    def __init__(self, data_dir: Optional[str] = None, *,
                 max_samples: int = 8) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self._data_dir = data_dir
        self._max_samples = max_samples
        self._graphs: Dict[Hashable, Graph] = {}
        self._baselines: Dict[Hashable, object] = {}
        self._distances: Dict[Hashable, LMaxDistanceCache] = {}
        #: Arena attachments (shared-memory tier), keyed like ``_graphs``;
        #: the values pin the worker's read-only segment mappings.
        self._arenas: Dict[Hashable, object] = {}
        #: Cache misses that hit the dataset loaders (the bench hook
        #: asserting a grid performs one load per sample per worker).
        self.sample_loads = 0
        self._retired_computes = 0

    @property
    def data_dir(self) -> Optional[str]:
        """Directory with real SNAP dataset files, if any."""
        return self._data_dir

    @property
    def distance_computes(self) -> int:
        """Total full bounded-distance computations performed so far."""
        return self._retired_computes + sum(cache.compute_count
                                            for cache in self._distances.values())

    def graph_for(self, request: AnonymizationRequest) -> Graph:
        """The request's input graph, loaded at most once per sample key.

        The returned graph is shared — callers must not mutate it (every
        anonymization run copies its working graph, so the standard
        execution paths never do).
        """
        key = sample_key(request)
        graph = self._graphs.get(key)
        if graph is None:
            graph = request.resolve_graph(data_dir=self._data_dir)
            self._install_graph(key, graph)
            self.sample_loads += 1
        else:
            self._touch(key)
        return graph

    def baseline_for(self, request: AnonymizationRequest):
        """The original-graph utility baseline of the request's sample."""
        from repro.metrics import graph_baseline

        key = sample_key(request)
        baseline = self._baselines.get(key)
        if baseline is None:
            baseline = graph_baseline(self.graph_for(request),
                                      include_spectral=False)
            self._baselines[key] = baseline
        else:
            self._touch(key)
        return baseline

    def distances_for(self, request: AnonymizationRequest,
                      l_max: int) -> Optional[np.ndarray]:
        """Fresh L-bounded distances for the request, served from L_max.

        ``l_max`` is the largest L the request's sample group sweeps; the
        dense matrix is computed once per sample at that bound, and each
        call returns a fresh copy thresholded at the request's own
        ``length_threshold`` (sessions take ownership of the matrices they
        are given).  A request resolving to the tiled tier gets ``None``:
        its session builds its own tiled store.
        """
        cache = self._lmax_cache_for(request, l_max)
        return None if cache is None else cache.matrix(
            request.length_threshold)

    def base_for(self, request: AnonymizationRequest,
                 l_max: int) -> Optional[np.ndarray]:
        """The dense L_max base of the request's sample, or ``None`` if tiled.

        The raw L_max matrix itself (read-only contract) — the
        shared-memory publisher copies it into a segment, so no private
        thresholded copy is materialized in the parent.
        """
        cache = self._lmax_cache_for(request, l_max)
        return None if cache is None else cache.base_matrix()

    def _lmax_cache_for(self, request: AnonymizationRequest,
                        l_max: int) -> Optional[LMaxDistanceCache]:
        """The sample's dense L_max cache, or ``None`` for a tiled request.

        Resolving the request's own tier fires its memory guard, so an
        explicit dense request over budget fails here, before any
        allocation, whether its cache is private or arena-adopted.  A
        cache rebuilds only when the sweep's bound grows.
        """
        graph = self.graph_for(request)
        tier = request.store_config().resolve(graph.num_vertices,
                                              distance_dtype(l_max))
        if tier == "tiled":
            return None
        key = sample_key(request)
        cache = self._distances.get(key)
        if cache is None or cache.l_max < l_max:
            if cache is not None:
                self._retired_computes += cache.compute_count
            cache = LMaxDistanceCache(graph, l_max)
            self._distances[key] = cache
        return cache

    def adopt_arena(self, request: AnonymizationRequest,
                    descriptor: "ArenaDescriptor", baseline=None) -> None:
        """Install a parent-published arena as this cache's copy of a sample.

        Attaches the descriptor's segments (once per arena — repeated
        adoption of the same ``token`` is a no-op), installs the rebuilt
        graph where :meth:`graph_for` will find it, and installs the zero-copy
        cache over the shared L_max base served by :meth:`distances_for`.
        ``baseline``, the parent's utility baseline, is served by
        :meth:`baseline_for`.  Neither counter moves: the sample load and
        the distance computation were the parent's, performed once per grid.
        """
        from repro.api.shm import attach_arena

        key = sample_key(request)
        current = self._arenas.get(key)
        if current is not None and current.token == descriptor.token:
            self._touch(key)
        else:
            attached = attach_arena(descriptor)
            self._evict(key)  # a stale same-key entry must not shadow it
            self._install_graph(key, attached.graph)
            if attached.cache is not None:
                self._distances[key] = attached.cache
            self._arenas[key] = attached
        if baseline is not None:
            self._baselines[key] = baseline

    def release(self, request: AnonymizationRequest) -> None:
        """Drop the sample's cached graph, baseline, and distance matrices.

        The grid engine hands each sample group to a worker exactly once,
        so a worker that finished a group will never see its sample key
        again — releasing the entries bounds worker memory over large
        grids.  The load/compute counters are preserved.
        """
        self._evict(sample_key(request))

    def _install_graph(self, key: Hashable, graph: Graph) -> None:
        while len(self._graphs) >= self._max_samples:
            self._evict(next(iter(self._graphs)))
        self._graphs[key] = graph

    def _touch(self, key: Hashable) -> None:
        """Move ``key`` to the recently-used end of the eviction order."""
        graph = self._graphs.pop(key, None)
        if graph is not None:
            self._graphs[key] = graph

    def _evict(self, key: Hashable) -> None:
        self._graphs.pop(key, None)
        self._baselines.pop(key, None)
        # Dropping the distance cache before the arena attachment keeps
        # the teardown order views-then-segments (close cannot be blocked
        # by a still-exported buffer).
        cache = self._distances.pop(key, None)
        if cache is not None:
            self._retired_computes += cache.compute_count
        self._arenas.pop(key, None)
