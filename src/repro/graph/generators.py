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

RNG contract of the sample-load generators (:func:`gnm_random_graph`,
:func:`powerlaw_cluster_graph`): each random integer below ``n`` is read
from ``rng.getrandbits`` exactly as CPython's ``randrange(n)`` and
``choice(seq)`` read it (3.10 onwards): ``k = n.bit_length()``, then
``getrandbits(k)`` until the value is below ``n``.  They make no
``randrange``/``choice`` call, yet consume the same words, draw for draw,
as the implementations that did, and leave the RNG in the same state.
:func:`gnm_random_graph` reads its words in chunks of one
``getrandbits(32·w)`` call, whose 32-bit little-endian words are the
successive ``getrandbits(k)`` draws shifted left by ``32 − k``; it then
rewinds the RNG and advances it by exactly the words its edges used.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import List, Set, Union

import numpy as np

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


#: Most 32-bit words :func:`gnm_random_graph` reads in one chunk (256 KiB):
#: its transient arrays stay a few MiB, below a run's later peak.
_MAX_CHUNK_WORDS = 1 << 16


def gnm_random_graph(num_vertices: int, num_edges: int, seed: SeedLike = None) -> Graph:
    """G(n, m) random graph: exactly ``num_edges`` distinct edges chosen uniformly.

    Draws ``u = randrange(n)``, ``v = randrange(n)`` until ``num_edges``
    distinct pairs with ``u != v`` are placed, in words read a chunk at a
    time (see the module docstring): a chunk's accepted values pair up in
    order, and a pair is placed on its first occurrence in draw order.  The
    placed pairs' sorted codes ``u·n + v`` become the graph's edge
    snapshot.
    """
    n = num_vertices
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise ConfigurationError(
            f"cannot place {num_edges} edges in a simple graph with {n} vertices")
    if n < 0:
        raise GraphError(f"num_vertices must be non-negative, got {n}")
    rng = _rng(seed)
    bits = n.bit_length()
    placed = np.empty(0, dtype=np.int64)
    carry = placed  # an accepted draw still waiting for its pair's second one
    while placed.size < num_edges:
        remaining = num_edges - placed.size
        # Words for the remaining pairs, net of rejected draws (below half
        # of them), self-loops and repeats of placed pairs, with a margin.
        expected = 2 * remaining * (1 << bits) / (n - 1) / (1 - placed.size / max_edges)
        words = min(_MAX_CHUNK_WORDS, int(1.25 * expected) + 64)
        state = rng.getstate()
        draws = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                              dtype="<u4") >> (32 - bits)
        at = np.flatnonzero(draws < n)
        values = np.concatenate((carry, draws[at]))
        at = np.concatenate((np.full(carry.size, -1), at))
        pairs = values.size // 2
        u, v = values[0:2 * pairs:2], values[1:2 * pairs:2]
        carry = values[2 * pairs:]
        pair_codes = np.minimum(u, v) * n + np.maximum(u, v)
        drawn = np.flatnonzero(u != v)
        # First occurrences, in draw order, of the pairs not yet placed.
        codes, first = np.unique(pair_codes[drawn], return_index=True)
        if placed.size:
            fresh = placed[np.minimum(np.searchsorted(placed, codes),
                                      placed.size - 1)] != codes
            codes, first = codes[fresh], first[fresh]
        first.sort()
        drawn = drawn[first[:remaining]]
        if drawn.size == remaining:
            used = int(at[2 * drawn[-1] + 1]) + 1
            if used < words:
                rng.setstate(state)
                rng.getrandbits(32 * used)
        placed = np.sort(np.concatenate((placed, pair_codes[drawn])))
    return Graph._from_codes(n, placed)


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
    paper's Table 3.  Every draw indexes a list with an inlined
    ``randrange`` (see the module docstring); each vertex's neighbours are
    kept as a sorted list, so a triangle-closure draw reads the previous
    target's list as ``choice(sorted(neighbours))`` would.
    """
    if attachment < 1 or attachment >= num_vertices:
        raise ConfigurationError(
            f"attachment must be in [1, num_vertices), got {attachment} for n={num_vertices}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ConfigurationError("triangle_probability must be in [0, 1]")
    rng = _rng(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
    repeated: List[int] = list(range(attachment))
    num_edges = 0
    for new_vertex in range(attachment, num_vertices):
        # Every vertex listed anywhere yet is older than ``new_vertex``, so
        # appending it keeps a list sorted, and the first target is new.
        neighbors = adjacency[new_vertex]
        size = len(repeated)
        bits = size.bit_length()
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        last_target = repeated[index]
        neighbors.append(last_target)
        adjacency[last_target].append(new_vertex)
        repeated.append(last_target)
        repeated.append(new_vertex)
        added = 1
        for _ in range(10 * attachment):
            if added == attachment:
                break
            # Close a triangle: attach to a neighbour of the previous target
            # (it has one, ``new_vertex``), or attach preferentially.
            pool = adjacency[last_target] if draw() < triangle_probability \
                else repeated
            size = len(pool)
            bits = size.bit_length()
            index = getrandbits(bits)
            while index >= size:
                index = getrandbits(bits)
            candidate = pool[index]
            if candidate == new_vertex or candidate in neighbors:
                continue
            insort(neighbors, candidate)
            adjacency[candidate].append(new_vertex)
            repeated.append(candidate)
            repeated.append(new_vertex)
            last_target = candidate
            added += 1
        num_edges += added
    return Graph._from_adjacency(list(map(set, adjacency)), num_edges)
