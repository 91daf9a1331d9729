"""Structural graph properties reported in the paper's Tables 2 and 3.

The paper summarizes every dataset with four statistics: diameter (longest
shortest path), average degree, standard deviation of the degrees (STDD),
and average clustering coefficient (ACC).  This module computes those plus a
few extras used by the utility metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graph.distance_store import CSRAdjacency, csr_bounded_rows
from repro.graph.graph import Graph
from repro.graph.matrices import UNREACHABLE, distance_dtype, unreachable_value

#: Source rows per block of :func:`geodesic_histogram`; its working set is
#: a few ``GEODESIC_BLOCK × n`` arrays.
GEODESIC_BLOCK = 64


def average_degree(graph: Graph) -> float:
    """Mean vertex degree (2|E| / |V|)."""
    if graph.num_vertices == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_vertices


def degree_standard_deviation(graph: Graph) -> float:
    """Population standard deviation of the degree sequence (paper's STDD)."""
    if graph.num_vertices == 0:
        return 0.0
    return float(np.std(graph.degree_array()))


def local_clustering_coefficient(graph: Graph, vertex: int) -> float:
    """Local clustering coefficient of one vertex.

    Following the paper (Section 6.2): the number of edges among the
    neighbors of ``vertex`` divided by ``n_i * (n_i - 1)`` where ``n_i`` is
    the neighbor count; vertices with fewer than two neighbors have
    coefficient 0.
    """
    neighbors = list(graph.adjacency(vertex))
    count = len(neighbors)
    if count < 2:
        return 0.0
    links = 0
    neighbor_set = graph.adjacency(vertex)
    for i, u in enumerate(neighbors):
        # Count unordered neighbor pairs that are themselves connected.
        links += len(graph.adjacency(u) & neighbor_set)
    # Each edge among neighbors was counted twice (once from each endpoint).
    return links / (count * (count - 1))


def local_clustering_coefficients(graph: Graph) -> List[float]:
    """Local clustering coefficient of every vertex, indexed by vertex id."""
    return [local_clustering_coefficient(graph, v) for v in graph.vertices()]


def average_clustering_coefficient(graph: Graph) -> float:
    """Mean of the local clustering coefficients (paper's ACC)."""
    if graph.num_vertices == 0:
        return 0.0
    return float(np.mean(local_clustering_coefficients(graph)))


def diameter(graph: Graph) -> int:
    """Longest finite shortest-path length in the graph.

    For disconnected graphs (common in random samples) the diameter of the
    reachable pairs is reported, matching how the paper tabulates sampled
    graphs that are not necessarily connected.  Returns 0 for graphs with no
    reachable pairs.
    """
    return max((value for value in geodesic_histogram(graph)
                if value != UNREACHABLE), default=0)


def geodesic_histogram(graph: Graph) -> Dict[int, int]:
    """Histogram of geodesic distances over all vertex pairs, keys ascending.

    Unreachable pairs are counted under the key :data:`UNREACHABLE`.  The
    distances come from CSR frontier expansions over blocks of source rows
    (:func:`~repro.graph.distance_store.csr_bounded_rows`), each block
    counting its pairs ``j > i`` only: O(block · n) memory and no n × n
    matrix.
    """
    n = graph.num_vertices
    csr = CSRAdjacency.from_graph(graph)
    sentinel = unreachable_value(distance_dtype(n))
    # Distances 0..n-1 are counted at their value, unreachable pairs at n.
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, n, GEODESIC_BLOCK):
        sources = np.arange(start, min(start + GEODESIC_BLOCK, n))
        rows = csr_bounded_rows(csr, sources, n)
        later = rows[np.arange(n)[None, :] > sources[:, None]]
        counts += np.bincount(np.where(later == sentinel, n, later),
                              minlength=n + 1)
    return {(UNREACHABLE if value == n else value): int(count)
            for value, count in enumerate(counts.tolist()) if count}


@dataclass(frozen=True)
class GraphProperties:
    """The Table 2 / Table 3 property row for one graph."""

    num_vertices: int
    num_edges: int
    diameter: int
    average_degree: float
    degree_stddev: float
    average_clustering: float

    def as_dict(self) -> Dict[str, float]:
        """Return the properties as a plain dictionary."""
        return {
            "nodes": self.num_vertices,
            "links": self.num_edges,
            "diameter": self.diameter,
            "avg_degree": self.average_degree,
            "stdd": self.degree_stddev,
            "acc": self.average_clustering,
        }


def graph_properties(graph: Graph) -> GraphProperties:
    """Compute the full Table-2/3 style property row for ``graph``."""
    return GraphProperties(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        diameter=diameter(graph),
        average_degree=average_degree(graph),
        degree_stddev=degree_standard_deviation(graph),
        average_clustering=average_clustering_coefficient(graph),
    )
