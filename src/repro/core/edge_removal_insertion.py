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
from typing import List, Optional, Tuple

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizationResult, TieBreaker
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.lookahead import search_best_combination
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge, Graph


@register_anonymizer(
    "rem-ins",
    description="Edge Removal/Insertion (paper Algorithm 5)",
    accepts=("length_threshold", "theta", "lookahead", "engine", "seed",
             "max_steps", "prune_candidates", "max_combinations",
             "insertion_candidate_cap", "strict", "evaluation_mode",
             "scan_mode", "scan_workers", "sweep_mode", "scale_tier",
             "scale_budget_bytes"),
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
        candidates = [edge for edge in self._removal_candidates(session, current)
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
        for outcome in evaluate_batch([(edge,) for edge in candidates]):
            breaker.offer(outcome)
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
        graphs (documented deviation, DESIGN.md §5.4).
        """
        removed = result.removed_edges
        candidates = [edge for edge in working.non_edges() if edge not in removed]
        cap = self._config.insertion_candidate_cap
        if cap is not None and len(candidates) > cap:
            candidates = rng.sample(candidates, cap)
        return candidates
