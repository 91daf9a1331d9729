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
from itertools import chain
from typing import AbstractSet, List, Optional, Tuple

import numpy as np

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizationResult, TieBreaker
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.lookahead import CombinationLevel, search_best_combination
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge, Graph


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

    Inherits the removal-step machinery (candidate pruning, look-ahead,
    tie-breaking) from :class:`EdgeRemovalAnonymizer` and adds the
    compensating insertion phase.

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
    # removal phase (lines 3-9 of Algorithm 5)
    # ------------------------------------------------------------------
    def _removal_phase(self, session: OpacitySession, current: OpacityResult,
                       rng: random.Random,
                       result: AnonymizationResult) -> Optional[Tuple[Edge, ...]]:
        candidates = [edge for edge in self._removal_candidates(session)
                      if edge not in result.inserted_edges]
        if not candidates:
            return None
        best = search_best_combination(
            candidates,
            self._combo_evaluator(session, result, "remove"),
            current_fraction=current.max_fraction,
            lookahead=self._config.lookahead,
            rng=rng,
            max_combinations=self._config.max_combinations,
        )
        if best is None:
            return None
        session.apply_edit(removals=best.edges)
        result.removed_edges.update(best.edges)
        return best.edges

    # ------------------------------------------------------------------
    # insertion phase (lines 10-18 of Algorithm 5)
    # ------------------------------------------------------------------
    def _insertion_phase(self, session: OpacitySession, rng: random.Random,
                         result: AnonymizationResult) -> Optional[Tuple[Edge, ...]]:
        candidates = self._insertion_candidates(session.graph, rng, result)
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

    def _insertion_candidates(self, working: Graph, rng: random.Random,
                              result: AnonymizationResult) -> List[Edge]:
        """Absent edges eligible for insertion (never removed before).

        The paper scans every absent edge; ``insertion_candidate_cap``
        optionally bounds the scan with a seeded uniform sample for large
        graphs (documented deviation, DESIGN.md §5.4).  The sample is drawn
        from :class:`EligiblePairs`, so it costs O(m log m + cap log n)
        instead of a walk over all n(n-1)/2 pairs, and it draws the same
        edges as sampling the enumerated list would.
        """
        removed = result.removed_edges
        cap = self._config.insertion_candidate_cap
        if cap is not None:
            eligible = EligiblePairs(working, removed)
            if len(eligible) > cap:
                return rng.sample(eligible, cap)
        return [edge for edge in working.non_edges() if edge not in removed]


class EligiblePairs(Sequence):
    """The sorted absent, never-removed vertex pairs of a graph, by position.

    Equal, as a sequence, to ``[e for e in graph.non_edges() if e not in
    removed]``, but never enumerated: pair ``(u, v)``, ``u < v``, of an
    n-vertex graph has rank ``u(2n-u-1)/2 + v-u-1`` among all sorted pairs,
    and the ``i``-th eligible pair has rank ``i + k``, where ``k`` counts the
    excluded (edge or removed) ranks below it — one bisection.  A snapshot:
    build it after the graph's last mutation.
    """

    def __init__(self, graph: Graph, removed: AbstractSet[Edge]) -> None:
        n = graph.num_vertices
        #: First rank of every row ``u``.
        self._starts = [u * (2 * n - u - 1) // 2 for u in range(n)]
        excluded = sorted({self._starts[u] + v - u - 1
                           for u, v in chain(graph.edges(), removed)})
        #: Eligible ranks below each excluded rank, ascending.
        self._below = [rank - index for index, rank in enumerate(excluded)]
        self._length = n * (n - 1) // 2 - len(excluded)

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
