"""Shared L_max distance computation for multi-L workloads.

A grid sweep that varies the path-length bound L re-evaluates the *same*
graph at several truncations.  The bounded-matrix contract
(:mod:`repro.graph.distance`) makes the per-L matrices redundant: for any
``L <= L_max`` the L-bounded matrix is a *monotone restriction* of the
L_max-bounded one — every cell holding a distance ``d <= L`` is the exact
geodesic distance (both truncations agree on it), and every other cell is
the unreachable sentinel by definition.  Truncating the L_max matrix at L
therefore reproduces ``bounded_distance_matrix(graph, L)`` bit for bit,
without running the engine again (DESIGN.md §10).

:func:`threshold_distances` performs that truncation;
:class:`LMaxDistanceCache` wraps it in a compute-once cache so an L-sweep
group pays for exactly one full distance computation at the group's maximum
L and derives every smaller-L matrix from it.  The cache is tier-aware
(DESIGN.md §13): under :class:`~repro.graph.distance_store.StoreConfig`
resolution it serves either dense matrices/:class:`DenseStore` wrappers or
per-L :class:`TiledStore` children of one shared L_max tiled base — the
same one-computation economics without ever materializing ``n × n``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import (
    DenseStore,
    DistanceStore,
    StoreConfig,
    TiledStore,
)
from repro.graph.graph import Graph
from repro.graph.matrices import distance_dtype, unreachable_value

__all__ = ["LMaxDistanceCache", "threshold_distances"]


def threshold_distances(distances: np.ndarray, length_bound: int) -> np.ndarray:
    """Truncate an L_max-bounded distance matrix down to ``length_bound``.

    Returns a fresh matrix of ``distance_dtype(length_bound)`` with every
    value above ``length_bound`` (including cells already carrying the
    source matrix's sentinel) replaced by the *target* dtype's sentinel.
    When ``distances`` was produced by any engine with a bound
    ``L_max >= length_bound``, the result is bit-identical to
    ``bounded_distance_matrix(graph, length_bound)``: truncation at a
    smaller L is a monotone restriction of the L_max matrix (cells at most
    ``length_bound`` are exact geodesics under both bounds, everything else
    is unreachable by definition of the bounded-matrix contract).
    """
    if length_bound < 1:
        raise ConfigurationError(f"length_bound must be >= 1, got {length_bound}")
    target = distance_dtype(length_bound)
    # Values <= length_bound always fit the target dtype, and any source
    # sentinel is > length_bound (it is at least L_max + 1), so masking
    # before the cast keeps the conversion lossless.
    mask = distances > length_bound
    out = np.ascontiguousarray(distances).astype(target)
    out[mask] = unreachable_value(target)
    return out


class LMaxDistanceCache:
    """Serve per-L bounded distance matrices of one graph from one computation.

    The underlying engine runs once — lazily, at ``l_max`` — and every
    :meth:`matrix` call returns a *fresh* thresholded copy, so callers may
    hand the result to a :class:`~repro.graph.distance_delta.DistanceSession`
    (which mutates its matrix in place) without coordinating ownership.

    With a ``store_config`` resolving to the tiled tier, :meth:`store`
    serves :class:`TiledStore` children derived from one shared L_max tiled
    base instead — each child thresholds the base's tiles lazily, so the
    dense ``n × n`` footprint never exists and the group still pays for at
    most one logical distance computation.

    Parameters
    ----------
    graph:
        The graph whose distances are served.  The cache assumes the graph
        is not mutated for the cache's lifetime (sweep groups run against
        pristine samples and copy before editing).
    l_max:
        The largest L this cache can serve (the group's maximum).
    store_config:
        Scale-tier policy; defaults to ``auto`` under the default budget,
        which keeps every historical workload on the dense path.
    """

    def __init__(self, graph: Graph, l_max: int,
                 store_config: Optional[StoreConfig] = None) -> None:
        if l_max < 1:
            raise ConfigurationError(f"l_max must be >= 1, got {l_max}")
        self._graph = graph
        self._l_max = int(l_max)
        self._store_config = store_config or StoreConfig()
        self._store_config.validate()
        self._matrix: Optional[np.ndarray] = None
        self._base_store: Optional[TiledStore] = None
        #: Number of full engine computations performed (0 or 1); the
        #: bench/test hook asserting an L-sweep group pays exactly once.
        #: In the tiled tier, creating the shared L_max tile base counts as
        #: the one computation (its tiles stream lazily afterwards).
        self.compute_count = 0

    @classmethod
    def from_matrix(cls, graph: Graph, matrix: np.ndarray, l_max: int,
                    store_config: Optional[StoreConfig] = None,
                    ) -> "LMaxDistanceCache":
        """Wrap an already-computed L_max matrix (zero-copy adoption).

        The shared-memory data plane attaches a worker-side cache directly
        onto the parent's published matrix: ``matrix`` (typically a
        *read-only* view of a shared segment) is adopted as-is — no engine
        run, no copy — and ``compute_count`` stays 0, so the per-grid
        compute counters keep reporting only real engine work.
        :meth:`matrix` calls threshold the shared view into fresh private
        copies exactly like the computed path, which is where ownership
        (and the single unavoidable copy) transfers to the caller.
        """
        n = graph.num_vertices
        if matrix.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {matrix.shape} does not match the graph's "
                f"{(n, n)}")
        cache = cls(graph, l_max, store_config=store_config)
        cache._matrix = matrix
        return cache

    @classmethod
    def from_tiled_base(cls, graph: Graph, base: TiledStore,
                        store_config: Optional[StoreConfig] = None,
                        ) -> "LMaxDistanceCache":
        """Adopt a pre-built L_max tile base (the shm CSR-adoption path).

        Like :meth:`from_matrix`, adoption is free: ``compute_count`` stays
        0 and the base's lazily computed tiles are shared by every
        :meth:`store` child this cache hands out.
        """
        cache = cls(graph, base.length_bound,
                    store_config=store_config or StoreConfig(tier="tiled"))
        cache._base_store = base
        return cache

    @property
    def l_max(self) -> int:
        """The largest L this cache can serve."""
        return self._l_max

    @property
    def store_config(self) -> StoreConfig:
        """The scale-tier policy this cache resolves against."""
        return self._store_config

    @property
    def tier(self) -> str:
        """The concrete tier (``dense``/``tiled``) for this graph's matrix.

        Resolving an explicitly-dense config over budget raises
        :class:`~repro.errors.DistanceMemoryError` — the up-front memory
        guard fires here, before any allocation.
        """
        if self._matrix is not None or self._base_store is not None:
            # Adopted payloads fix the tier regardless of the auto rule.
            return "dense" if self._matrix is not None else "tiled"
        return self._store_config.resolve(self._graph.num_vertices,
                                          distance_dtype(self._l_max))

    def matrix(self, length_bound: int) -> np.ndarray:
        """A fresh ``length_bound``-truncated matrix (callers own the copy)."""
        self._check_bound(length_bound)
        return threshold_distances(self.base_matrix(), length_bound)

    def store(self, length_bound: int) -> DistanceStore:
        """A private store at ``length_bound``, in the resolved tier.

        Dense tier: a :class:`DenseStore` over the same fresh thresholded
        copy :meth:`matrix` returns.  Tiled tier: a :class:`TiledStore`
        child of the shared L_max base — no dense allocation anywhere.
        """
        self._check_bound(length_bound)
        if self.tier == "tiled":
            return self.base_store().thresholded(length_bound)
        return DenseStore(self.matrix(length_bound), length_bound)

    def base_matrix(self) -> np.ndarray:
        """The raw L_max matrix itself — computed at most once, never copied.

        Callers must treat the result as read-only: it backs every
        :meth:`matrix` threshold and, on the shared-memory plane, it is
        the very array the parent publishes into a segment (or a worker's
        read-only view of one).  Dense tier only — the memory guard in
        :attr:`tier` fires first when the matrix does not fit the budget.
        """
        if self._matrix is None:
            if self.tier == "tiled":
                raise ConfigurationError(
                    "base_matrix() is a dense-tier accessor; this cache "
                    "resolved to the tiled tier — use store()/base_store()")
            self._matrix = bounded_distance_matrix(self._graph, self._l_max)
            self.compute_count += 1
        return self._matrix

    def base_store(self) -> TiledStore:
        """The shared read-only L_max tile base (tiled tier only)."""
        if self._base_store is None:
            config = self._store_config
            self._base_store = TiledStore(
                self._graph, self._l_max,
                tile_rows=config.tile_rows,
                budget_bytes=config.budget_bytes,
                spill_dir=config.spill_dir)
            self.compute_count += 1
        return self._base_store

    def _check_bound(self, length_bound: int) -> None:
        if not 1 <= length_bound <= self._l_max:
            raise ConfigurationError(
                f"length_bound must be in [1, {self._l_max}], got {length_bound}")
