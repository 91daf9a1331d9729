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
from typing import List, Optional, Tuple

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
    accepts=("length_threshold", "theta", "lookahead", "seed",
             "max_steps", "prune_candidates", "max_combinations", "strict",
             "scan_workers", "scale_tier", "scale_budget_bytes"),
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
        removed = self._removal_phase(session, current, rng, result)
        if removed is None:
            return None
        return ("remove", removed, ())

    def _removal_phase(self, session: OpacitySession, current: OpacityResult,
                       rng: random.Random,
                       result: AnonymizationResult) -> Optional[Tuple[Edge, ...]]:
        """Apply the best removal (or look-ahead combination) of this step.

        Edges this run inserted are never removed again (Algorithm 5's
        ``E_A``; a plain removal run inserts none).  Returns the removed
        edges, or ``None`` when no candidate remains.
        """
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
    # candidate selection
    # ------------------------------------------------------------------
    def _removal_candidates(self, session: OpacitySession) -> List[Edge]:
        """Edges considered for removal in this step.

        With ``prune_candidates`` enabled, only edges lying on a path of
        length ≤ L between a pair of a type currently attaining the maximum
        opacity are scanned; removing any other edge cannot lower the
        maximum (edge removal never shortens a geodesic), so the greedy
        choice is preserved whenever an improving move exists.  Edges come
        from the session's sorted edge array, in :meth:`Graph.edges` order.
        """
        edge_u, edge_v = session.edge_endpoints()
        if edge_u.size and self._config.prune_candidates:
            keep = self._on_short_paths(session, edge_u, edge_v)
            # Fall back to the full scan if pruning removed every candidate
            # (e.g. the maximum is attained only by already-unreachable types).
            if keep.any():
                edge_u, edge_v = edge_u[keep], edge_v[keep]
        return list(zip(edge_u.tolist(), edge_v.tolist()))

    def _on_short_paths(self, session: OpacitySession, edge_u: np.ndarray,
                        edge_v: np.ndarray) -> np.ndarray:
        """Flags the edges on a ≤L path between a within-L pair of a max type."""
        length = self._config.length_threshold
        # Too many violating pairs — the max types' within-L counts say how
        # many — and the pruning pass would cost more than it saves, so
        # scan every edge instead, without listing the pairs.
        max_types = session.max_type_mask()
        keep = np.zeros(edge_u.size, dtype=bool)
        if session.type_counts()[0][max_types].sum() > 5000:
            return ~keep
        # Only breaking a short path of a within-L pair of a type at the
        # current maximum can reduce the maximum opacity.  The session keeps
        # the within-L pairs as a sparse sorted set, folded forward by each
        # applied step, and the max types as a mask, so this query never
        # rebuilds per-pair or per-type state or allocates n² arrays.
        rows, cols = session.violating_pair_indices(max_types)
        if length == 1 and rows.size:
            # A path of length ≤ 1 between i and j is the edge (i, j) itself;
            # edges and pairs both come sorted, so one binary search matches.
            n = session.graph.num_vertices
            pairs, edges = rows * n + cols, edge_u * n + edge_v
            at = np.searchsorted(pairs, edges).clip(max=pairs.size - 1)
            return pairs[at] == edges
        if length == 2 and rows.size:
            # A path of length ≤ 2 between i and j is the edge (i, j) or a
            # pair of edges (i, m), (m, j) through a common neighbour m:
            # the session lists them from the adjacency alone.
            n = session.graph.num_vertices
            path_u, path_v = session.short_path_edges(rows, cols)
            on_paths = np.sort(path_u * n + path_v)
            if not on_paths.size:
                return keep
            edges = edge_u * n + edge_v
            at = np.searchsorted(on_paths, edges).clip(max=on_paths.size - 1)
            return on_paths[at] == edges
        # Chunked vectorized membership test: a removal candidate survives
        # when it lies on a ≤L path of some violating pair.  Distances come
        # in row blocks through the store seam (the tiled tier has no dense
        # matrix to hand out).
        for start in range(0, rows.size, 256):
            di = session.distance_rows(rows[start:start + 256]).astype(np.int64)
            dj = session.distance_rows(cols[start:start + 256]).astype(np.int64)
            on_path = ((di[:, edge_u] + dj[:, edge_v] + 1 <= length)
                       | (di[:, edge_v] + dj[:, edge_u] + 1 <= length))
            keep |= on_path.any(axis=0)
            if keep.all():
                break
        return keep
