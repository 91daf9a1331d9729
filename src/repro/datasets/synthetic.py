"""Calibrated synthetic stand-ins for the paper's sampled SNAP graphs.

The experiments of Section 6 run on random vertex samples (100-1000 nodes)
of seven real networks.  Offline, this module synthesizes graphs with the
same node count, (approximately) the same edge count, and the same
density/clustering regime as the corresponding Table 3 row, so the
anonymization algorithms face workloads of the same character:

* web graphs and e-mail/voting graphs (Google, Berkeley-Stanford, Enron,
  Wikipedia) — heavy-tailed degrees with strong local clustering →
  power-law-cluster generator;
* peer-to-peer and trust samples (Gnutella, Epinions) — sparse, almost
  tree-like, negligible clustering → uniform G(n, m);
* the ACM co-authorship crawl — sparse, clustered, heavy-tailed (a few
  prolific authors) → power-law-cluster generator with low attachment.

After generation the edge count is nudged to the exact target by random
insertions/removals so the distortion denominators match the paper's setup.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datasets.registry import DatasetSpec, get_dataset
from repro.errors import DatasetError
from repro.graph.generators import gnm_random_graph, powerlaw_cluster_graph
from repro.graph.graph import Graph

#: Generator family per dataset name.
_FAMILIES = {
    "google": "powerlaw-cluster",
    "berkeley-stanford": "powerlaw-cluster",
    "enron": "powerlaw-cluster",
    "wikipedia": "powerlaw-cluster",
    "epinions": "sparse-random",
    "gnutella": "sparse-random",
    "acm": "powerlaw-cluster",
}

#: Triangle-closure probability used for the clustered families, tuned so the
#: generated samples land in the ACC regime of Table 3.
_TRIANGLE_PROBABILITY = 0.85


def _target_edges(spec: DatasetSpec, size: int) -> int:
    sample = spec.sample_spec(size)
    if sample is not None:
        return sample.links
    # No Table 3 row for this size: borrow the average degree of the closest
    # reported sample (the induced samples of Table 3 keep a density close to,
    # and sometimes above, the full graph's), falling back to the original
    # average degree for datasets without reported samples (ACM).
    if spec.samples:
        closest = min(spec.samples.values(), key=lambda row: abs(row.nodes - size))
        average_degree = closest.average_degree
    else:
        average_degree = spec.average_degree
    max_edges = size * (size - 1) // 2
    return max(1, min(max_edges, int(round(average_degree * size / 2.0))))


def _adjust_edge_count(graph: Graph, target_edges: int, rng: random.Random) -> Graph:
    """Randomly add or remove edges until ``graph`` has exactly ``target_edges``.

    The draws are made first, in local loops, and applied as one
    :meth:`Graph.edit`.
    """
    n = graph.num_vertices
    target_edges = min(target_edges, n * (n - 1) // 2)
    randrange = rng.randrange
    removals = []
    if graph.num_edges > target_edges:
        # One sorted list, kept in step by popping each drawn edge: the
        # same draws over the same edges as re-listing after every trim.
        # It holds the edges' ``u·n + v`` codes, in edge order: plain ints
        # are no work for the garbage collector, m tuples would be.
        codes = graph.edge_codes().tolist()
        while len(codes) > target_edges:
            removals.append(divmod(codes.pop(randrange(len(codes))), n))
    insertions = {}  # insertion-ordered, so edited in draw order
    missing = target_edges - graph.num_edges
    while len(insertions) < missing:
        u = randrange(n)
        v = randrange(n)
        if u != v:
            edge = (u, v) if u < v else (v, u)
            if edge not in insertions and v not in graph.adjacency(u):
                insertions[edge] = None
    if removals or insertions:
        graph.edit(removals, insertions)
    return graph


def synthesize_sample(name: str, size: int, seed: Optional[int] = None) -> Graph:
    """Synthesize a proxy for the ``size``-node sample of dataset ``name``."""
    spec = get_dataset(name)
    if size < 2:
        raise DatasetError(f"sample size must be at least 2, got {size}")
    rng = random.Random(seed)
    family = _FAMILIES.get(spec.name, "sparse-random")
    target_edges = _target_edges(spec, size)
    average_degree = 2.0 * target_edges / size

    if family == "powerlaw-cluster":
        attachment = max(1, min(size - 1, round(average_degree / 2.0)))
        graph = powerlaw_cluster_graph(size, attachment, _TRIANGLE_PROBABILITY, seed=rng)
    else:  # sparse-random
        graph = gnm_random_graph(size, target_edges, seed=rng)

    return _adjust_edge_count(graph, target_edges, rng)


def synthesize_dataset(name: str, num_nodes: Optional[int] = None,
                       seed: Optional[int] = None) -> Graph:
    """Synthesize a larger proxy of the full dataset (for sampling demos).

    ``num_nodes`` defaults to a laptop-scale 2000 nodes; generating the full
    million-node SNAP graphs offline is neither feasible nor needed, because
    every experiment in the paper runs on samples.
    """
    spec = get_dataset(name)
    size = num_nodes if num_nodes is not None else 2000
    rng = random.Random(seed)
    target_edges = int(spec.average_degree * size / 2.0)
    family = _FAMILIES.get(spec.name, "sparse-random")
    if family == "powerlaw-cluster":
        attachment = max(1, min(size - 1, round(spec.average_degree / 2.0)))
        graph = powerlaw_cluster_graph(size, attachment, _TRIANGLE_PROBABILITY, seed=rng)
    else:  # sparse-random
        graph = gnm_random_graph(size, target_edges, seed=rng)
    return _adjust_edge_count(graph, target_edges, rng)
