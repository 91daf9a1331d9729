"""All-pairs geodesic-distance engines, truncated at a path-length bound L.

The L-opacity computation (paper Algorithm 1) only needs to know, for every
vertex pair, whether its geodesic distance is at most ``L`` — and, if so, the
exact value.  This module provides several interchangeable engines that all
return the same *bounded distance matrix*:

* ``floyd_warshall`` — the textbook O(|V|^3) algorithm (exact distances for
  every pair), usable as an oracle and for unbounded distances.
* ``l_pruned_floyd_warshall`` — the paper's Algorithm 2: Floyd–Warshall with
  pruning of any relaxation that cannot produce a distance ≤ L.
* ``pointer_l_pruned_floyd_warshall`` — the paper's Algorithm 3: the same
  pruned recurrence, but driven by per-vertex shortlists of cells whose value
  is already < L, so rows/columns are never re-scanned.
* ``bfs_bounded_distances`` — breadth-first search from every vertex, cut off
  at depth L (fast for sparse graphs).
* ``numpy_bounded_distances`` — vectorized frontier expansion with boolean
  matrix products (fast for the graph sizes used in the experiments).

The property suites prove the five engines bit-identical, so the engine is
not a pipeline choice.  Each scale tier runs one kernel, chosen in code:
the dense tier calls :func:`bounded_distance_matrix` with its default
``"numpy"`` engine, and the tiled tier runs a breadth-first search with a
sparse frontier over CSR row blocks
(:func:`~repro.graph.distance_store.csr_bounded_rows`), whose work grows
with the cells it reaches rather than with ``rows × n``.  The matrix
products win on small or dense samples, the CSR rows on sparse samples
of a thousand vertices and more; the engine ablation benchmark times
both.  The ``engine=`` argument and :func:`available_engines` remain for
that benchmark and the cross-engine tests.

Contract shared by every engine: the returned matrix ``D`` is a dense
integer array of :func:`~repro.graph.matrices.distance_dtype` (uint8 for
L ≤ 254, uint16 up to 65534, int32 beyond) with ``D[i, i] = 0``,
``D[i, j]`` equal to the geodesic distance when that distance is ≤ L, and
the dtype-local sentinel :func:`~repro.graph.matrices.unreachable_value`
otherwise (the canonical :data:`UNREACHABLE` for int32 matrices).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.graph.matrices import (
    UNREACHABLE,
    distance_dtype,
    triu_pair_indices,
    unreachable_value,
)

#: Registry of engine name -> callable(graph, L) -> dense bounded distance matrix.
_ENGINES: Dict[str, Callable[[Graph, int], np.ndarray]] = {}

DistanceEngine = str


def _register(name: str) -> Callable[[Callable[[Graph, int], np.ndarray]],
                                     Callable[[Graph, int], np.ndarray]]:
    def decorator(func: Callable[[Graph, int], np.ndarray]) -> Callable[[Graph, int], np.ndarray]:
        _ENGINES[name] = func
        return func

    return decorator


def available_engines() -> Tuple[str, ...]:
    """Return the names of all registered distance engines."""
    return tuple(sorted(_ENGINES))


def bounded_distance_matrix(graph: Graph, length_bound: int,
                            engine: DistanceEngine = "numpy") -> np.ndarray:
    """Compute the L-bounded distance matrix of ``graph`` with the given engine.

    Parameters
    ----------
    graph:
        The input graph.
    length_bound:
        The maximum path length L of interest; longer distances are reported
        as :data:`UNREACHABLE`.
    engine:
        One of :func:`available_engines` (default ``"numpy"``).
    """
    if length_bound < 1:
        raise ConfigurationError(f"length_bound must be >= 1, got {length_bound}")
    try:
        func = _ENGINES[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown distance engine {engine!r}; available: {available_engines()}")
    return func(graph, length_bound)


def _empty_matrix(num_vertices: int, length_bound: int = UNREACHABLE) -> np.ndarray:
    dtype = distance_dtype(length_bound)
    matrix = np.full((num_vertices, num_vertices), unreachable_value(dtype),
                     dtype=dtype)
    np.fill_diagonal(matrix, 0)
    return matrix


def _adjacency_distances(graph: Graph, length_bound: int = UNREACHABLE) -> np.ndarray:
    matrix = _empty_matrix(graph.num_vertices, length_bound)
    edges = graph.edge_array()
    matrix[edges[:, 0], edges[:, 1]] = 1
    matrix[edges[:, 1], edges[:, 0]] = 1
    return matrix


# ----------------------------------------------------------------------
# Plain Floyd–Warshall (exact, unbounded)
# ----------------------------------------------------------------------
@_register("floyd-warshall")
def floyd_warshall(graph: Graph, length_bound: int = UNREACHABLE) -> np.ndarray:
    """Exact all-pairs shortest paths, truncated to ``length_bound`` on output.

    The relaxation itself is not pruned; distances larger than the bound are
    replaced by :data:`UNREACHABLE` at the end so the output satisfies the
    bounded-matrix contract.
    """
    n = graph.num_vertices
    dtype = distance_dtype(length_bound)
    sentinel = unreachable_value(dtype)
    dist = _adjacency_distances(graph, length_bound).astype(np.float64)
    dist[dist == sentinel] = np.inf
    for k in range(n):
        # Vectorized relaxation of the classic triple loop.
        through_k = dist[:, k:k + 1] + dist[k:k + 1, :]
        np.minimum(dist, through_k, out=dist)
    out = np.where(np.isinf(dist) | (dist > length_bound), sentinel, dist)
    return out.astype(dtype)


# ----------------------------------------------------------------------
# Algorithm 2: L-pruned Floyd–Warshall
# ----------------------------------------------------------------------
@_register("l-pruned-fw")
def l_pruned_floyd_warshall(graph: Graph, length_bound: int) -> np.ndarray:
    """The paper's Algorithm 2: Floyd–Warshall pruned at path length L.

    Relaxations through an intermediate vertex ``k`` are only attempted when
    both legs are strictly shorter than L and their sum does not exceed L,
    exactly as in the published pseudo-code.
    """
    n = graph.num_vertices
    dist = _adjacency_distances(graph, length_bound)
    for k in range(n):
        row_k = dist[k]
        for i in range(n - 1):
            # Python-int arithmetic: narrow unsigned dtypes would wrap on
            # sums of two near-L legs (254 + 254 overflows uint8).
            d_ik = int(row_k[i])
            if i == k or d_ik >= length_bound:
                continue
            for j in range(i + 1, n):
                if j == k:
                    continue
                d_kj = int(row_k[j])
                if d_kj >= length_bound:
                    continue
                candidate = d_ik + d_kj
                if candidate <= length_bound and candidate < dist[i, j]:
                    dist[i, j] = candidate
                    dist[j, i] = candidate
    dist[dist > length_bound] = unreachable_value(dist.dtype)
    np.fill_diagonal(dist, 0)
    return dist


# ----------------------------------------------------------------------
# Algorithm 3: pointer-based L-pruned Floyd–Warshall
# ----------------------------------------------------------------------
@_register("pointer-fw")
def pointer_l_pruned_floyd_warshall(graph: Graph, length_bound: int) -> np.ndarray:
    """The paper's Algorithm 3: pruned Floyd–Warshall driven by shortlists.

    Instead of re-scanning row and column ``k`` of the triangular matrix at
    every iteration, the algorithm keeps, for every vertex ``k``, the list of
    cells on row/column ``k`` whose value is already strictly below L (the
    linked lists of the paper).  The shortlist is amended whenever a
    relaxation creates a new cell with value below L, so the scans of
    Algorithm 2 are avoided.
    """
    n = graph.num_vertices
    dist = _adjacency_distances(graph, length_bound)
    # short[k] maps a vertex x to dist[k, x] for every cell with value < L.
    # This is the linked-list content of Algorithm 3 in dictionary form.
    short: list[Dict[int, int]] = [dict() for _ in range(n)]
    for u, v in graph.edges():
        if 1 < length_bound:
            short[u][v] = 1
            short[v][u] = 1
    for k in range(n):
        # Snapshot: Algorithm 3 walks the list as it existed when the k-loop
        # entered; newly created cells incident to k become visible to later
        # values of k through their own shortlists.
        cells = list(short[k].items())
        for idx_out, (out_vertex, out_value) in enumerate(cells):
            for in_vertex, in_value in cells[idx_out + 1:]:
                candidate = out_value + in_value
                if candidate > length_bound:
                    continue
                current = int(dist[out_vertex, in_vertex])
                if candidate < current:
                    dist[out_vertex, in_vertex] = candidate
                    dist[in_vertex, out_vertex] = candidate
                    if candidate < length_bound:
                        # "update connections of cell new": the new short cell
                        # becomes reachable from both endpoints' lists.
                        short[out_vertex][in_vertex] = candidate
                        short[in_vertex][out_vertex] = candidate
                    elif current < length_bound:
                        short[out_vertex].pop(in_vertex, None)
                        short[in_vertex].pop(out_vertex, None)
    dist[dist > length_bound] = unreachable_value(dist.dtype)
    np.fill_diagonal(dist, 0)
    return dist


# ----------------------------------------------------------------------
# BFS engine
# ----------------------------------------------------------------------
@_register("bfs")
def bfs_bounded_distances(graph: Graph, length_bound: int) -> np.ndarray:
    """Breadth-first search from every vertex, truncated at depth L."""
    n = graph.num_vertices
    dist = _empty_matrix(n, length_bound)
    for source in range(n):
        queue = deque([source])
        level = {source: 0}
        while queue:
            node = queue.popleft()
            depth = level[node]
            if depth >= length_bound:
                continue
            for neighbor in graph.adjacency(node):
                if neighbor not in level:
                    level[neighbor] = depth + 1
                    dist[source, neighbor] = depth + 1
                    queue.append(neighbor)
    return dist


# ----------------------------------------------------------------------
# NumPy frontier-expansion engine
# ----------------------------------------------------------------------
@_register("numpy")
def numpy_bounded_distances(graph: Graph, length_bound: int) -> np.ndarray:
    """Vectorized L-bounded distances via boolean frontier expansion.

    ``reached`` accumulates pairs within distance ``step``; the new frontier
    at each step is ``frontier @ adjacency`` minus everything already
    reached.  The loop runs at most L times, so the cost is L boolean matrix
    products — very fast for the graph sizes used in the paper's sampled
    experiments.
    """
    n = graph.num_vertices
    dist = _empty_matrix(n, length_bound)
    sentinel = unreachable_value(dist.dtype)
    if n == 0 or graph.num_edges == 0:
        return dist
    # float32 keeps the 0/1 products exact up to 2**24 neighbors (a uint8
    # accumulator would wrap at 256) and routes the product through BLAS.
    adjacency = graph.adjacency_matrix(dtype=np.float32)
    reached = np.eye(n, dtype=np.bool_)
    frontier = adjacency.astype(np.bool_)
    step = 1
    while step <= length_bound and frontier.any():
        new = frontier & ~reached
        dist[new & (dist == sentinel)] = step
        reached |= new
        if step == length_bound:
            break
        frontier = (new.astype(np.float32) @ adjacency) > 0
        step += 1
    return dist


def pairwise_distance_histogram(distances: np.ndarray) -> Dict[int, int]:
    """Count vertex pairs by distance value (ignoring the diagonal).

    Unreachable / pruned pairs are reported under the key
    :data:`UNREACHABLE` regardless of the matrix dtype: narrow matrices
    carry a dtype-local sentinel, which is normalized back to the canonical
    key so histogram consumers (distribution metrics, EMD) never see a
    dtype-dependent value.
    """
    n = distances.shape[0]
    sentinel = unreachable_value(distances.dtype)
    upper = distances[triu_pair_indices(n)]
    values, counts = np.unique(upper, return_counts=True)
    return {(UNREACHABLE if int(value) == sentinel else int(value)): int(count)
            for value, count in zip(values, counts)}
