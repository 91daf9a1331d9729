"""GADED-Rand and GADED-Max (Zhang & Zhang).

Both heuristics operate by edge deletion until the maximum single-edge
disclosure drops to the requested confidence threshold:

* **GADED-Rand** removes, at every step, a uniformly random edge among the
  edges that currently *participate in disclosure* (their degree-pair type
  exceeds the threshold).
* **GADED-Max** removes, at every step, the edge whose removal maximally
  reduces the maximum link disclosure, breaking ties by the minimum increase
  of the total link disclosure.

Both are the L = 1 counterparts of the paper's Edge Removal heuristic, used
in Figures 6-9 for comparison, and both run on
:class:`~repro.core.anonymizer.BaseAnonymizer`'s greedy loop, one removal
per step.

Unlike the paper's heuristics (and GADES), θ shapes GADED's *candidate
pool*: an edge participates in disclosure exactly when its type's opacity
exceeds θ, so the edges eligible for removal — and with them GADED-Rand's
random draw and GADED-Max's argmin — differ between grid points from the
very first step.  A checkpointed prefix-sharing pass would therefore pick
different edits than an independent run at each θ;
:meth:`_GadedBase.anonymize_schedule` instead runs one single-θ pass per
grid point, sharing the frozen typing (and the caller's loaded graph)
across the grid, and takes no ``resume_from``: a GADED checkpoint never
seeds another θ (DESIGN.md §9).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.progress import ProgressObserver
from repro.baselines.single_edge import SingleEdgeBaseline, register_baseline
from repro.core.anonymizer import (
    BATCH_SCAN_CHUNK,
    AnonymizationResult,
    scored_chunks,
    validate_theta_schedule,
)
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityResult
from repro.core.opacity_session import OpacitySession
from repro.core.pair_types import DegreePairTyping, PairTyping
from repro.graph.graph import Edge, Graph

#: Insertion flag of a removal candidate's single member.
_REMOVAL = np.array([False])


class _GadedBase(SingleEdgeBaseline):
    """Shared step and θ schedule of the two GADED variants (L = 1)."""

    def anonymize_schedule(self, graph: Graph,
                           thetas: Optional[Sequence[float]] = None,
                           typing: Optional[PairTyping] = None,
                           observer: Optional[ProgressObserver] = None
                           ) -> List[AnonymizationResult]:
        """Run the heuristic for a θ grid, one result per grid point.

        θ shapes GADED's candidate pool (an edge participates in
        disclosure when its type's opacity exceeds θ), not merely the
        stopping rule, so a shared checkpointed pass would choose different
        edits than an independent run at each grid point.  The schedule
        therefore runs one single-θ pass per grid point, each streaming its
        own checkpoint — only the frozen typing and the caller's loaded
        graph are shared — keeping every result bit-identical to its
        independent counterpart.
        """
        schedule = validate_theta_schedule(
            thetas if thetas is not None else (self._config.theta,))
        if typing is None:
            typing = DegreePairTyping(graph)
        return [self._run_schedule(graph, (theta,), typing, observer)[0]
                for theta in schedule]

    def _perform_step(self, session: OpacitySession, current: OpacityResult,
                      rng: random.Random, result: AnonymizationResult
                      ) -> Optional[Tuple[str, Tuple[Edge, ...], Tuple[Edge, ...]]]:
        edge = self._choose_edge(session, current, result.config.theta, rng,
                                 result)
        if edge is None:
            return None
        session.apply_edit(removals=(edge,))
        result.removed_edges.add(edge)
        return ("remove", (edge,), ())

    @staticmethod
    def _disclosing_edges(session: OpacitySession,
                          theta: Optional[float]) -> List[Edge]:
        """Edges whose degree-pair type currently exceeds ``theta``.

        Read from the session's arrays: the θ-exceeding types are a mask
        over the type opacities, and the edges come from the session's
        sorted edge array with their type positions.  ``theta=None`` lists
        every edge.
        """
        mask = (None if theta is None
                else np.divide(*session.type_counts()) > theta)
        edge_u, edge_v = session.edge_endpoints(mask)
        return list(zip(edge_u.tolist(), edge_v.tolist()))

    def _choose_edge(self, session: OpacitySession, current, theta: float,
                     rng: random.Random, result: AnonymizationResult) -> Optional[Edge]:
        raise NotImplementedError


@register_baseline(
    "gaded-rand",
    description="GADED-Rand baseline (Zhang & Zhang, single-edge disclosure)",
    accepts=("theta", "seed", "max_steps", "strict"),
)
class GadedRandAnonymizer(_GadedBase):
    """GADED-Rand: remove a random edge participating in disclosure."""

    def _choose_edge(self, session: OpacitySession, current, theta: float,
                     rng: random.Random, result: AnonymizationResult) -> Optional[Edge]:
        candidates = self._disclosing_edges(session, theta)
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]


@register_baseline(
    "gaded-max",
    description="GADED-Max baseline (Zhang & Zhang, single-edge disclosure)",
    accepts=("theta", "seed", "max_steps", "strict"),
)
class GadedMaxAnonymizer(_GadedBase):
    """GADED-Max: remove the edge with the greatest reduction of the maximum
    disclosure, tie-broken by the smallest increase of the total disclosure."""

    def _choose_edge(self, session: OpacitySession, current, theta: float,
                     rng: random.Random, result: AnonymizationResult) -> Optional[Edge]:
        candidates = self._disclosing_edges(session, theta)
        if not candidates:
            candidates = self._disclosing_edges(session, None)
        if not candidates:
            return None
        level = CombinationLevel(
            candidates, np.arange(len(candidates), dtype=np.int64)[:, None])
        totals = removal_totals(session, level.endpoints).tolist()
        best_edge: Optional[Edge] = None
        best_key: Optional[Tuple[float, float]] = None
        tie_count = 0
        position = 0
        for scored in scored_chunks(session, result, level, _REMOVAL):
            maxima = (scored.numerators / scored.denominators).tolist()
            for max_opacity in maxima:
                key = (max_opacity, totals[position])
                if best_key is None or key < best_key:
                    best_key = key
                    best_edge = candidates[position]
                    tie_count = 1
                elif key == best_key:
                    tie_count += 1
                    if rng.random() < 1.0 / tie_count:
                        best_edge = candidates[position]
                position += 1
        return best_edge


def removal_totals(session: OpacitySession,
                   endpoints: np.ndarray) -> np.ndarray:
    """GADED-Max's total disclosure after removing each edge of ``endpoints``.

    The total is the float sum of every type's opacity, added left to
    right in type order.  At L = 1 a removal lowers only its own type's
    within count, by one, so the total is computed once per distinct
    removed type from the session's counts: elementwise
    ``withins / totals`` with that type's count less one, then a
    ``cumsum``.  An untyped edge leaves the total unchanged.
    """
    withins, totals = session.type_counts()
    if totals.size == 0:
        return np.zeros(len(endpoints))
    types = session.computer.type_indices(endpoints[:, 0], endpoints[:, 1])
    distinct, inverse = np.unique(types, return_inverse=True)
    ratios = withins / totals
    sums = np.empty(distinct.size)
    for start in range(0, distinct.size, BATCH_SCAN_CHUNK):
        removed = distinct[start:start + BATCH_SCAN_CHUNK]
        rows = np.tile(ratios, (removed.size, 1))
        typed = np.flatnonzero(removed < totals.size)
        lowered = removed[typed]
        rows[typed, lowered] = (withins[lowered] - 1) / totals[lowered]
        sums[start:start + removed.size] = np.cumsum(rows, axis=1)[:, -1]
    return sums[inverse.ravel()]
