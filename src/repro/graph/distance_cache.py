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
L and derives every smaller-L matrix from it.  It is the dense tier's
base only: a session on the tiled tier computes its own tiles at its own
L (DESIGN.md §13), so no ``n × n`` matrix exists anywhere on that tier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
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
    The caller resolves the scale tier first: this cache always holds a
    dense matrix.

    Parameters
    ----------
    graph:
        The graph whose distances are served.  The cache assumes the graph
        is not mutated for the cache's lifetime (sweep groups run against
        pristine samples and copy before editing).
    l_max:
        The largest L this cache can serve (the group's maximum).
    """

    def __init__(self, graph: Graph, l_max: int) -> None:
        if l_max < 1:
            raise ConfigurationError(f"l_max must be >= 1, got {l_max}")
        self._graph = graph
        self._l_max = int(l_max)
        self._matrix: Optional[np.ndarray] = None
        #: Number of full engine computations performed (0 or 1); the
        #: bench/test hook asserting an L-sweep group pays exactly once.
        self.compute_count = 0

    @classmethod
    def from_matrix(cls, graph: Graph, matrix: np.ndarray,
                    l_max: int) -> "LMaxDistanceCache":
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
        cache = cls(graph, l_max)
        cache._matrix = matrix
        return cache

    @property
    def l_max(self) -> int:
        """The largest L this cache can serve."""
        return self._l_max

    def matrix(self, length_bound: int) -> np.ndarray:
        """A fresh ``length_bound``-truncated matrix (callers own the copy)."""
        if not 1 <= length_bound <= self._l_max:
            raise ConfigurationError(
                f"length_bound must be in [1, {self._l_max}], got {length_bound}")
        return threshold_distances(self.base_matrix(), length_bound)

    def base_matrix(self) -> np.ndarray:
        """The raw L_max matrix itself — computed at most once, never copied.

        Callers must treat the result as read-only: it backs every
        :meth:`matrix` threshold and, on the shared-memory plane, it is
        the very array the parent publishes into a segment (or a worker's
        read-only view of one).
        """
        if self._matrix is None:
            self._matrix = bounded_distance_matrix(self._graph, self._l_max)
            self.compute_count += 1
        return self._matrix
