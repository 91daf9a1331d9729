"""The Edge Removal/Insertion heuristic (paper Algorithm 5, with look-ahead).

Each greedy iteration performs an edge removal chosen exactly as in the Edge
Removal heuristic, immediately followed by the edge *insertion* that yields
the lowest maximum opacity, thereby keeping the number of edges of the
original graph constant.  To avoid oscillation, an edge that has been
inserted is never removed again and an edge that has been removed is never
re-inserted (the ``E_A`` / ``E_D`` sets of the pseudo-code).  Both phases
evaluate their candidates through the step's
:class:`~repro.core.opacity_session.OpacitySession`.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from typing import AbstractSet, List, Optional, Tuple

import numpy as np

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizationResult, TieBreaker
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge


@register_anonymizer(
    "rem-ins",
    description="Edge Removal/Insertion (paper Algorithm 5)",
    accepts=("length_threshold", "theta", "lookahead", "seed",
             "max_steps", "prune_candidates", "max_combinations",
             "insertion_candidate_cap", "strict", "scan_workers",
             "scale_tier", "scale_budget_bytes"),
)
class EdgeRemovalInsertionAnonymizer(EdgeRemovalAnonymizer):
    """Algorithm 5: greedy L-opacification via alternating removal and insertion.

    Runs :class:`EdgeRemovalAnonymizer`'s removal phase (lines 3-9:
    candidate pruning, look-ahead, tie-breaking, never removing an edge it
    inserted) and adds the compensating insertion phase.

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> graph = erdos_renyi_graph(25, 0.2, seed=3)
    >>> result = EdgeRemovalInsertionAnonymizer(
    ...     length_threshold=1, theta=0.6, seed=0).anonymize(graph)
    >>> result.anonymized_graph.num_edges == graph.num_edges
    True
    """

    def _perform_step(self, session: OpacitySession, current: OpacityResult,
                      rng: random.Random,
                      result: AnonymizationResult
                      ) -> Optional[Tuple[str, Tuple[Edge, ...], Tuple[Edge, ...]]]:
        removed = self._removal_phase(session, current, rng, result)
        if removed is None:
            return None
        inserted = self._insertion_phase(session, rng, result)
        operation = "remove+insert" if inserted else "remove"
        return (operation, removed, inserted if inserted is not None else ())

    # ------------------------------------------------------------------
    # insertion phase (lines 10-18 of Algorithm 5)
    # ------------------------------------------------------------------
    def _insertion_phase(self, session: OpacitySession, rng: random.Random,
                         result: AnonymizationResult) -> Optional[Tuple[Edge, ...]]:
        candidates = self._insertion_candidates(session, rng, result)
        if not candidates:
            return None
        breaker = TieBreaker(rng)
        evaluate_batch = self._combo_evaluator(session, result, "insert")
        singles = np.arange(len(candidates), dtype=np.int64).reshape(-1, 1)
        for scored in evaluate_batch(CombinationLevel(candidates, singles)):
            TieBreaker.offer_batch((breaker,), scored)
        best = breaker.best
        if best is None:
            return None
        session.apply_edit(insertions=best.edges)
        result.inserted_edges.update(best.edges)
        return best.edges

    def _insertion_candidates(self, session: OpacitySession,
                              rng: random.Random,
                              result: AnonymizationResult) -> List[Edge]:
        """Absent edges eligible for insertion (never removed before).

        The paper scans every absent edge; ``insertion_candidate_cap``
        optionally bounds the scan with a seeded uniform sample for large
        graphs (documented deviation, DESIGN.md §5.4).  The sample is drawn
        from :class:`EligiblePairs`, built from the session's sorted edge
        array, so it costs O(m + r log r + cap log n) for r removed edges
        instead of a walk over all n(n-1)/2 pairs, and it draws the same
        edges as sampling the enumerated list would.
        """
        working = session.graph
        removed = result.removed_edges
        cap = self._config.insertion_candidate_cap
        if cap is not None:
            eligible = EligiblePairs(working.num_vertices,
                                     session.edge_endpoints(), removed)
            if len(eligible) > cap:
                return rng.sample(eligible, cap)
        return [edge for edge in working.non_edges() if edge not in removed]


class EligiblePairs(Sequence):
    """The sorted absent, never-removed vertex pairs of a graph, by position.

    Equal, as a sequence, to ``[e for e in graph.non_edges() if e not in
    removed]``, but never enumerated: pair ``(u, v)``, ``u < v``, of an
    n-vertex graph has rank ``u(2n-u-1)/2 + v-u-1`` among all sorted pairs,
    and the ``i``-th eligible pair has rank ``i + k``, where ``k`` counts the
    excluded (edge or removed) ranks below it — one bisection.  ``edges``
    is the graph's ``(u, v)`` arrays in sorted order, as
    :meth:`OpacitySession.edge_endpoints` returns them, and ``removed``
    holds pairs ``(u, v)``, ``u < v``.  A snapshot: build it after the
    graph's last mutation.
    """

    def __init__(self, num_vertices: int,
                 edges: Tuple[np.ndarray, np.ndarray],
                 removed: AbstractSet[Edge]) -> None:
        n = num_vertices
        #: First rank of every row ``u``.
        starts = np.arange(n, dtype=np.int64)
        starts = starts * (2 * n - starts - 1) // 2
        self._starts = starts.tolist()
        first, second = edges
        gone = np.array(list(removed), dtype=np.int64).reshape(-1, 2)
        excluded = np.sort(np.concatenate([
            starts[first] + second - first - 1,
            starts[gone[:, 0]] + gone[:, 1] - gone[:, 0] - 1]))
        # A removed pair may still be an edge; count its rank once.
        distinct = np.ones(excluded.size, dtype=bool)
        distinct[1:] = excluded[1:] != excluded[:-1]
        excluded = excluded[distinct]
        #: Eligible ranks below each excluded rank, ascending.
        self._below = (excluded - np.arange(excluded.size)).tolist()
        self._length = n * (n - 1) // 2 - excluded.size

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> Edge:  # type: ignore[override]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("eligible pair index out of range")
        rank = index + bisect_right(self._below, index)
        u = bisect_right(self._starts, rank) - 1
        return (u, rank - self._starts[u] + u + 1)
