"""Random and deterministic graph generators.

The paper's experiments run on random node samples of real SNAP graphs.  In
this offline reproduction those samples are replaced by synthetic graphs
whose density and clustering regime are calibrated per dataset (see
``repro.datasets.synthetic``); the generators in this module are the raw
building blocks for that calibration and are also useful on their own for
tests and examples.

All generators accept either an integer seed or a pre-built
:class:`random.Random` instance so results are reproducible.  The random
ones fill plain neighbour sets in local loops and hand them to
:class:`Graph` in one piece, so a sample costs no per-edge method calls.
"""

from __future__ import annotations

import random
from typing import List, Set, Union

from repro.errors import ConfigurationError, GraphError
from repro.graph.graph import Graph

SeedLike = Union[int, random.Random, None]


def _rng(seed: SeedLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _empty_sets(num_vertices: int) -> List[Set[int]]:
    """The neighbour sets of an edgeless graph, for a generator to fill."""
    if num_vertices < 0:
        raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
    return [set() for _ in range(num_vertices)]


def empty_graph(num_vertices: int) -> Graph:
    """Return a graph with ``num_vertices`` vertices and no edges."""
    return Graph(num_vertices)


def complete_graph(num_vertices: int) -> Graph:
    """Return the complete graph K_n."""
    graph = Graph(num_vertices)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            graph.add_edge(u, v)
    return graph


def path_graph(num_vertices: int) -> Graph:
    """Return the path graph P_n (vertices chained 0-1-2-...)."""
    graph = Graph(num_vertices)
    for u in range(num_vertices - 1):
        graph.add_edge(u, u + 1)
    return graph


def cycle_graph(num_vertices: int) -> Graph:
    """Return the cycle graph C_n."""
    if num_vertices < 3:
        raise ConfigurationError("a cycle needs at least 3 vertices")
    graph = path_graph(num_vertices)
    graph.add_edge(num_vertices - 1, 0)
    return graph


def star_graph(num_leaves: int) -> Graph:
    """Return a star with hub 0 and ``num_leaves`` leaves."""
    graph = Graph(num_leaves + 1)
    for leaf in range(1, num_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def erdos_renyi_graph(num_vertices: int, edge_probability: float,
                      seed: SeedLike = None) -> Graph:
    """G(n, p) random graph: each pair becomes an edge with probability p."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(f"edge_probability must be in [0, 1], got {edge_probability}")
    draw = _rng(seed).random
    adjacency = _empty_sets(num_vertices)
    for u in range(num_vertices):
        neighbors = adjacency[u]
        for v in range(u + 1, num_vertices):
            if draw() < edge_probability:
                neighbors.add(v)
                adjacency[v].add(u)
    return Graph._from_adjacency(adjacency)


def gnm_random_graph(num_vertices: int, num_edges: int, seed: SeedLike = None) -> Graph:
    """G(n, m) random graph: exactly ``num_edges`` distinct edges chosen uniformly."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ConfigurationError(
            f"cannot place {num_edges} edges in a simple graph with {num_vertices} vertices")
    randrange = _rng(seed).randrange
    adjacency = _empty_sets(num_vertices)
    placed = 0
    while placed < num_edges:
        u = randrange(num_vertices)
        v = randrange(num_vertices)
        if u != v and v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            placed += 1
    return Graph._from_adjacency(adjacency, placed)


def barabasi_albert_graph(num_vertices: int, attachment: int, seed: SeedLike = None) -> Graph:
    """Preferential-attachment (scale-free) graph.

    Each new vertex attaches to ``attachment`` existing vertices chosen with
    probability proportional to their degree, which yields the heavy-tailed
    degree distributions typical of web and social graphs.
    """
    if attachment < 1 or attachment >= num_vertices:
        raise ConfigurationError(
            f"attachment must be in [1, num_vertices), got {attachment} for n={num_vertices}")
    rng = _rng(seed)
    draw, choice = rng.random, rng.choice
    adjacency = _empty_sets(num_vertices)
    # Start from a star over the first (attachment + 1) vertices so every new
    # vertex has enough attachment targets.
    targets = list(range(attachment))
    repeated: list[int] = []
    for new_vertex in range(attachment, num_vertices):
        chosen: set[int] = set()
        while len(chosen) < attachment:
            if repeated and draw() < 0.9:
                candidate = choice(repeated)
            else:
                candidate = choice(targets)
            if candidate != new_vertex:
                chosen.add(candidate)
        neighbors = adjacency[new_vertex]
        for target in chosen:
            neighbors.add(target)
            adjacency[target].add(new_vertex)
            repeated.append(target)
            repeated.append(new_vertex)
        targets.append(new_vertex)
    return Graph._from_adjacency(adjacency)


def watts_strogatz_graph(num_vertices: int, nearest_neighbors: int,
                         rewire_probability: float, seed: SeedLike = None) -> Graph:
    """Small-world graph: ring lattice with random rewiring.

    High clustering plus short paths, matching the regime of collaboration
    and friendship networks.
    """
    if nearest_neighbors % 2 != 0:
        raise ConfigurationError("nearest_neighbors must be even")
    if nearest_neighbors >= num_vertices:
        raise ConfigurationError("nearest_neighbors must be smaller than num_vertices")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ConfigurationError("rewire_probability must be in [0, 1]")
    rng = _rng(seed)
    draw, choice = rng.random, rng.choice
    adjacency = _empty_sets(num_vertices)
    half = nearest_neighbors // 2
    for u in range(num_vertices):
        for offset in range(1, half + 1):
            v = (u + offset) % num_vertices
            adjacency[u].add(v)
            adjacency[v].add(u)
    for u in range(num_vertices):
        neighbors = adjacency[u]
        for offset in range(1, half + 1):
            v = (u + offset) % num_vertices
            if draw() < rewire_probability and v in neighbors:
                candidates = [w for w in range(num_vertices)
                              if w != u and w not in neighbors]
                if candidates:
                    neighbors.discard(v)
                    adjacency[v].discard(u)
                    w = choice(candidates)
                    neighbors.add(w)
                    adjacency[w].add(u)
    return Graph._from_adjacency(adjacency)


def powerlaw_cluster_graph(num_vertices: int, attachment: int,
                           triangle_probability: float, seed: SeedLike = None) -> Graph:
    """Holme–Kim style graph: preferential attachment plus triangle closure.

    Produces scale-free degree distributions *and* tunable clustering, which
    is the regime of the web-graph samples (Google, Berkeley-Stanford) in the
    paper's Table 3.
    """
    if attachment < 1 or attachment >= num_vertices:
        raise ConfigurationError(
            f"attachment must be in [1, num_vertices), got {attachment} for n={num_vertices}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ConfigurationError("triangle_probability must be in [0, 1]")
    rng = _rng(seed)
    draw, choice = rng.random, rng.choice
    adjacency = _empty_sets(num_vertices)
    repeated: list[int] = list(range(attachment))
    for new_vertex in range(attachment, num_vertices):
        neighbors = adjacency[new_vertex]
        first_target = choice(repeated)
        while first_target == new_vertex:
            first_target = choice(repeated)
        if first_target not in neighbors:
            neighbors.add(first_target)
            adjacency[first_target].add(new_vertex)
        repeated.append(first_target)
        repeated.append(new_vertex)
        added = 1
        last_target = first_target
        attempts = 0
        while added < attachment and attempts < 10 * attachment:
            attempts += 1
            if draw() < triangle_probability and adjacency[last_target]:
                # Close a triangle: attach to a neighbor of the previous target.
                candidate = choice(sorted(adjacency[last_target]))
            else:
                candidate = choice(repeated)
            if candidate == new_vertex or candidate in neighbors:
                continue
            neighbors.add(candidate)
            adjacency[candidate].add(new_vertex)
            repeated.append(candidate)
            repeated.append(new_vertex)
            last_target = candidate
            added += 1
    return Graph._from_adjacency(adjacency)
