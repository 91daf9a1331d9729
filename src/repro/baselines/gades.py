"""GADES (Zhang & Zhang): disclosure reduction by degree-preserving edge swaps.

At every step GADES looks for a pair of edges ``(a, b)`` and ``(c, d)`` that
can be rewired into ``(a, d)`` and ``(c, b)`` — preserving every vertex
degree — such that the maximum single-edge disclosure decreases.  When no
improving swap exists the heuristic stops; as the paper observes (Section
6.3), on many graphs GADES cannot reach low thresholds at all.

GADES runs on :class:`~repro.core.anonymizer.BaseAnonymizer`'s greedy
loop, one swap per step.  Like the paper's heuristics it reads θ only in
the loop's stopping condition (candidate swaps are compared against the
*current* maximum), so a θ grid runs as one checkpointed pass that can be
resumed from any of its checkpoints (DESIGN.md §9).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.single_edge import SingleEdgeBaseline, register_baseline
from repro.core.anonymizer import AnonymizationResult, scored_chunks
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.graph.graph import Edge, Graph, normalize_edge

Swap = Tuple[Edge, Edge, Edge, Edge]  # (removed1, removed2, added1, added2)

#: Insertion flags of a swap's four members.
_SWAP_GAINED = np.array([False, False, True, True])


@register_baseline(
    "gades",
    description="GADES baseline (Zhang & Zhang, degree-preserving swaps)",
    accepts=("theta", "seed", "max_steps", "swap_sample_size"),
    defaults={"swap_sample_size": 2000},
)
class GadesAnonymizer(SingleEdgeBaseline):
    """GADES: greedy degree-preserving edge swapping against link disclosure.

    A step's sampled swaps are scored in the calling process, as rows of
    four members through
    :meth:`~repro.core.opacity_session.OpacitySession.score_combinations`:
    an L = 1 swap only flips its four edited cells, so a row's count change
    is the sum of their signed type hits.  ``success`` is only reported
    when the threshold was actually reached; GADES frequently stalls
    because no degree-preserving swap can lower the maximum disclosure
    further (``stop_reason="exhausted"``).

    ``swap_sample_size`` (default 2000) is the number of candidate swap
    pairs examined per step: the original formulation scans all pairs of
    edges; a seeded sample keeps the reimplementation tractable and is
    documented in DESIGN.md.
    """

    def _perform_step(self, session: OpacitySession, current: OpacityResult,
                      rng: random.Random, result: AnonymizationResult
                      ) -> Optional[Tuple[str, Tuple[Edge, ...], Tuple[Edge, ...]]]:
        swap = self._best_swap(session, current.max_opacity, rng, result)
        if swap is None:
            return None
        removals, insertions = swap[:2], swap[2:]
        session.apply_edit(removals=removals, insertions=insertions)
        result.removed_edges.update(removals)
        result.inserted_edges.update(insertions)
        return ("swap", removals, insertions)

    # ------------------------------------------------------------------
    # swap search
    # ------------------------------------------------------------------
    def _candidate_swaps(self, working: Graph, rng: random.Random) -> List[Swap]:
        """Sample distinct candidate swaps for one step.

        Each drawn edge pair is deduplicated on its *normalized* swap (the
        unordered removed pair plus the unordered added pair) so no swap is
        scored twice within a step, and when the first randomly-chosen
        rewiring collides with an existing edge the alternate
        degree-preserving rewiring is tried before the pair is discarded —
        both previously wasted draws against ``swap_sample_size``.
        """
        edges = working.edge_list()
        if len(edges) < 2:
            return []
        swaps: List[Swap] = []
        seen = set()
        attempts = 0
        limit = self._config.swap_sample_size
        while len(swaps) < limit and attempts < 10 * limit:
            attempts += 1
            (a, b) = edges[rng.randrange(len(edges))]
            (c, d) = edges[rng.randrange(len(edges))]
            if len({a, b, c, d}) < 4:
                continue
            # Two rewirings preserve all degrees: (a-d, c-b) and (a-c, b-d).
            if rng.random() < 0.5:
                rewirings = (((a, d), (c, b)), ((a, c), (b, d)))
            else:
                rewirings = (((a, c), (b, d)), ((a, d), (c, b)))
            for new_first, new_second in rewirings:
                if working.has_edge(*new_first) or working.has_edge(*new_second):
                    continue
                swap = (normalize_edge(a, b), normalize_edge(c, d),
                        normalize_edge(*new_first), normalize_edge(*new_second))
                key = (frozenset(swap[:2]), frozenset(swap[2:]))
                if key not in seen:
                    seen.add(key)
                    swaps.append(swap)
                break
        return swaps

    def _best_swap(self, session: OpacitySession, current_max: float,
                   rng: random.Random,
                   result: AnonymizationResult) -> Optional[Swap]:
        """The first swap with the lowest maximum below ``current_max``."""
        swaps = self._candidate_swaps(session.graph, rng)
        level = CombinationLevel(
            [edge for swap in swaps for edge in swap],
            np.arange(4 * len(swaps), dtype=np.int64).reshape(-1, 4))
        best: Optional[Swap] = None
        best_value = current_max
        for scored in scored_chunks(session, result, level, _SWAP_GAINED):
            if not len(scored):
                continue
            opacities = scored.numerators / scored.denominators
            first = int(np.argmin(opacities))
            if opacities[first] < best_value:
                best_value = opacities[first]
                best = scored.candidates[first]
        return best
