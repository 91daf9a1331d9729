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
from typing import AbstractSet, Optional, Tuple

import numpy as np

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizationResult, TieBreaker
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge
from repro.graph.two_hop import triu_flat, triu_unflat


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
        if not len(candidates):
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
                              result: AnonymizationResult) -> np.ndarray:
        """Absent edges eligible for insertion (never removed before).

        Returned as an int64 ``(k, 2)`` endpoint array, ``u < v``, decoded
        from :class:`EligiblePairs` (built from the session's sorted edge
        array): every eligible pair in sorted order, as the paper scans
        them.  ``insertion_candidate_cap`` optionally bounds the scan with
        a seeded uniform sample for large graphs (documented deviation,
        DESIGN.md §5.4): ``cap`` positions drawn by ``rng.sample``, which
        draws the same positions, in the same order, as sampling the
        enumerated list would.  No pair becomes a tuple here.
        """
        eligible = EligiblePairs(session.graph.num_vertices,
                                 session.edge_endpoints(), result.removed_edges)
        cap = self._config.insertion_candidate_cap
        if cap is not None and len(eligible) > cap:
            return eligible.pairs(np.array(rng.sample(range(len(eligible)), cap),
                                           dtype=np.int64))
        return eligible.pairs()


class EligiblePairs:
    """The sorted absent, never-removed vertex pairs of a graph, by position.

    Position ``i`` holds pair ``i`` of ``[e for e in graph.non_edges() if e
    not in removed]``, but the list is never built: pair ``(u, v)``,
    ``u < v``, of an n-vertex graph has rank
    :func:`~repro.graph.two_hop.triu_flat` among all sorted pairs, and the
    ``i``-th eligible pair has rank ``i + k``, where ``k`` counts the
    excluded (edge or removed) ranks below it.  :meth:`pairs` decodes any
    positions at once, by two binary searches over arrays.  ``edges`` is
    the graph's ``(u, v)`` arrays in sorted order, as
    :meth:`OpacitySession.edge_endpoints` returns them, and ``removed``
    holds pairs ``(u, v)``, ``u < v``.  A snapshot: build it after the
    graph's last mutation.
    """

    def __init__(self, num_vertices: int,
                 edges: Tuple[np.ndarray, np.ndarray],
                 removed: AbstractSet[Edge]) -> None:
        n = self._n = num_vertices
        first, second = edges
        gone = np.array(list(removed), dtype=np.int64).reshape(-1, 2)
        excluded = np.sort(np.concatenate([
            triu_flat(first, second, n), triu_flat(gone[:, 0], gone[:, 1], n)]))
        # A removed pair may still be an edge; count its rank once.
        distinct = np.ones(excluded.size, dtype=bool)
        distinct[1:] = excluded[1:] != excluded[:-1]
        excluded = excluded[distinct]
        #: Eligible ranks below each excluded rank, ascending.
        self._below = excluded - np.arange(excluded.size)
        self._length = n * (n - 1) // 2 - excluded.size

    def __len__(self) -> int:
        return self._length

    def pairs(self, positions: Optional[np.ndarray] = None) -> np.ndarray:
        """The eligible pairs at ``positions`` (default: all, in order).

        Returned as an int64 ``(len(positions), 2)`` array of ``(u, v)``,
        ``u < v``; ``positions`` must lie in ``0 .. len(self) - 1``.
        """
        if positions is None:
            positions = np.arange(self._length, dtype=np.int64)
        ranks = positions + np.searchsorted(self._below, positions,
                                            side="right")
        return np.stack(triu_unflat(ranks, self._n), axis=1)
