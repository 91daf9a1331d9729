"""Graph alteration measured as edit distance over edge sets (Equation 1).

The paper measures distortion as the symmetric difference between the edge
sets of the original and anonymized graphs, normalized by the original edge
count:  ``D(E, Ê) = |E Δ Ê| / |E|``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph


def edge_edit_distance(original: Graph, modified: Graph) -> int:
    """Size of the symmetric difference of the two edge sets ``|E Δ Ê|``."""
    if original.num_vertices != modified.num_vertices:
        raise ConfigurationError(
            "edit distance requires graphs over the same vertex set "
            f"({original.num_vertices} vs {modified.num_vertices} vertices)")
    n = original.num_vertices
    codes = [edges[:, 0] * n + edges[:, 1]
             for edges in (original.edge_array(), modified.edge_array())]
    return int(np.setxor1d(*codes, assume_unique=True).size)


def edit_distance_ratio(original: Graph, modified: Graph) -> float:
    """Equation 1: symmetric-difference size normalized by ``|E|``.

    A graph with no edges has zero distortion against itself; against any
    non-identical edge set the ratio is reported as ``float('inf')`` because
    the paper's normalization is undefined there.
    """
    distance = edge_edit_distance(original, modified)
    if original.num_edges == 0:
        return 0.0 if distance == 0 else float("inf")
    return distance / original.num_edges
