"""The Edge Removal heuristic (paper Algorithm 4, with look-ahead).

At every step the heuristic tentatively removes each candidate edge (or
combination of up to ``la`` edges), evaluates the resulting maximum opacity
through the step's :class:`~repro.core.opacity_session.OpacitySession`, and
applies the best candidate according to the tie-breaking rule: lowest
maximum opacity first, then fewest types attaining that maximum, then a
uniform random choice.  The loop ends when the graph satisfies
``max_T LO(T) <= θ`` or no removable edges remain.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizationResult, BaseAnonymizer
from repro.core.lookahead import search_best_combination
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge


@register_anonymizer(
    "rem",
    description="Edge Removal (paper Algorithm 4)",
    accepts=("length_threshold", "theta", "lookahead", "engine", "seed",
             "max_steps", "prune_candidates", "max_combinations", "strict",
             "evaluation_mode", "scan_mode", "scan_workers", "sweep_mode",
             "scale_tier", "scale_budget_bytes"),
)
class EdgeRemovalAnonymizer(BaseAnonymizer):
    """Algorithm 4: greedy L-opacification via edge removal.

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> graph = erdos_renyi_graph(30, 0.2, seed=7)
    >>> result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=0).anonymize(graph)
    >>> result.final_opacity <= 0.5
    True
    """

    def _perform_step(self, session: OpacitySession, current: OpacityResult,
                      rng: random.Random,
                      result: AnonymizationResult
                      ) -> Optional[Tuple[str, Tuple[Edge, ...], Tuple[Edge, ...]]]:
        candidates = self._removal_candidates(session, current)
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
        return ("remove", best.edges, ())

    # ------------------------------------------------------------------
    # candidate selection
    # ------------------------------------------------------------------
    def _removal_candidates(self, session: OpacitySession,
                            current: OpacityResult) -> List[Edge]:
        """Edges considered for removal in this step.

        With ``prune_candidates`` enabled, only edges lying on a path of
        length ≤ L between a pair of a type currently attaining the maximum
        opacity are scanned; removing any other edge cannot lower the
        maximum (edge removal never shortens a geodesic), so the greedy
        choice is preserved whenever an improving move exists.
        """
        edges = list(session.graph.edges())
        if not edges or not self._config.prune_candidates:
            return edges
        pruned = self._prune_to_short_paths(session, current, edges)
        # Fall back to the full scan if pruning removed every candidate
        # (e.g. the maximum is attained only by already-unreachable types).
        return pruned if pruned else edges

    def _prune_to_short_paths(self, session: OpacitySession,
                              current: OpacityResult, edges: Sequence[Edge]) -> List[Edge]:
        length = self._config.length_threshold
        # Incremental sessions serve distances in row blocks through the
        # store seam (the tiled tier has no dense matrix to hand out);
        # scratch mode computes one dense matrix and reuses it below.
        distances = None
        if session.mode != "incremental":
            distances = session.distances().astype(np.int64)
        # Collect the vertex pairs of the types at the current maximum that
        # are within distance L — only breaking one of their short paths can
        # reduce the maximum opacity.  The session maintains the within-L
        # pair mask incrementally across applied steps (and the frozen
        # per-pair type codes once), so this query no longer rebuilds the
        # violating-pair set from scratch per step.
        max_fraction = current.max_fraction
        max_types = {key for key, entry in current.per_type.items()
                     if entry.fraction == max_fraction}
        rows, cols = session.violating_pair_indices(max_types, distances=distances)
        if rows.size == 0:
            return []
        # Too many violating pairs: the pruning pass would cost more than it
        # saves, so scan every edge instead.
        if rows.size > 5000:
            return list(edges)
        edge_u = np.fromiter((edge[0] for edge in edges), dtype=np.int64, count=len(edges))
        edge_v = np.fromiter((edge[1] for edge in edges), dtype=np.int64, count=len(edges))
        keep = np.zeros(len(edges), dtype=bool)
        # Chunked vectorized membership test: a removal candidate survives
        # when it lies on a ≤L path of some violating pair.
        for start in range(0, rows.size, 256):
            i = rows[start:start + 256]
            j = cols[start:start + 256]
            if distances is not None:
                di = distances[i]
                dj = distances[j]
            else:
                di = session.distance_rows(i).astype(np.int64)
                dj = session.distance_rows(j).astype(np.int64)
            on_path = ((di[:, edge_u] + dj[:, edge_v] + 1 <= length)
                       | (di[:, edge_v] + dj[:, edge_u] + 1 <= length))
            keep |= on_path.any(axis=0)
            if keep.all():
                break
        return [edge for edge, flag in zip(edges, keep) if flag]
