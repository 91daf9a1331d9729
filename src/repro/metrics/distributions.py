"""Degree and geodesic-distance distributions (inputs to the EMD metric)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.graph.graph import Graph
from repro.graph.matrices import UNREACHABLE
from repro.graph.properties import geodesic_histogram


def degree_distribution(graph: Graph) -> Dict[int, float]:
    """Relative frequency of each degree value over the vertices."""
    n = graph.num_vertices
    if n == 0:
        return {}
    values, counts = np.unique(graph.degree_array(), return_counts=True)
    return {int(value): float(count) / n for value, count in zip(values, counts)}


def geodesic_distribution(graph: Graph, include_unreachable: bool = True) -> Dict[int, float]:
    """Relative frequency of geodesic distances over all vertex pairs.

    Unreachable pairs are included under the key :data:`UNREACHABLE` when
    ``include_unreachable`` is true (they matter for the alteration
    comparison: removals create unreachable pairs).
    """
    n = graph.num_vertices
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return {}
    histogram = {value: float(count) / total_pairs
                 for value, count in geodesic_histogram(graph).items()}
    if not include_unreachable:
        histogram.pop(UNREACHABLE, None)
    return histogram


def normalize_distribution(histogram: Dict[int, float]) -> Dict[int, float]:
    """Scale a histogram so its values sum to 1 (no-op for empty input)."""
    total = sum(histogram.values())
    if total == 0:
        return dict(histogram)
    return {key: value / total for key, value in histogram.items()}
