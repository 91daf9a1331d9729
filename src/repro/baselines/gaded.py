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
in Figures 6-9 for comparison.

Unlike the paper's heuristics (and GADES), θ shapes GADED's *candidate
pool*: an edge participates in disclosure exactly when its type's opacity
exceeds θ, so the edges eligible for removal — and with them GADED-Rand's
random draw and GADED-Max's argmin — differ between grid points from the
very first step.  A checkpointed prefix-sharing pass would therefore pick
different edits than an independent run at each θ;
:meth:`_GadedBase.anonymize_schedule` instead executes one run per grid
point, sharing the frozen typing (and the caller's loaded graph) across
the grid (DESIGN.md §9).
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.progress import NULL_OBSERVER, AnonymizationStopped, ProgressObserver
from repro.api.registry import register_anonymizer
from repro.core.anonymizer import (
    BATCH_SCAN_CHUNK,
    AnonymizationResult,
    AnonymizationStep,
    AnonymizerConfig,
    scored_chunks,
    validate_theta_schedule,
)
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityComputer
from repro.core.opacity_session import OpacitySession
from repro.core.pair_types import DegreePairTyping, PairTyping
from repro.errors import ConfigurationError, InfeasibleError
from repro.graph.graph import Edge, Graph

#: Insertion flag of a removal candidate's single member.
_REMOVAL = np.array([False])


class _GadedBase:
    """Shared driver for the two GADED variants (single-edge disclosure, L = 1)."""

    def __init__(self, theta: float = 0.5, seed: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 strict: bool = False) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {theta}")
        self._theta = theta
        self._seed = seed
        self._max_steps = max_steps
        self._strict = strict

    @property
    def theta(self) -> float:
        """The confidence threshold."""
        return self._theta

    def anonymize(self, graph: Graph, typing: Optional[PairTyping] = None,
                  observer: Optional[ProgressObserver] = None
                  ) -> AnonymizationResult:
        """Run the heuristic and return the anonymization result."""
        if typing is None:
            typing = DegreePairTyping(graph)
        return self._run_single(graph, self._theta, typing, observer)

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
        therefore executes one run per θ — only the frozen typing and the
        caller's loaded graph are shared — keeping every result
        bit-identical to its independent counterpart.
        """
        schedule = validate_theta_schedule(
            thetas if thetas is not None else (self._theta,))
        if typing is None:
            typing = DegreePairTyping(graph)
        return [self._run_single(graph, theta, typing, observer)
                for theta in schedule]

    def _run_single(self, graph: Graph, theta: float, typing: PairTyping,
                    observer: Optional[ProgressObserver]
                    ) -> AnonymizationResult:
        computer = OpacityComputer(typing, length_threshold=1)
        graph.edge_array()  # shared by the working copy and the distortion
        working = graph.copy()
        # The full constructor state (max_steps included) is recorded so the
        # result's config round-trips through the api layer for reproduction.
        config = AnonymizerConfig(length_threshold=1, theta=theta, seed=self._seed,
                                  strict=self._strict,
                                  max_steps=self._max_steps)
        session = config.open_session(computer, working)
        rng = random.Random(self._seed)
        result = AnonymizationResult(
            original_graph=graph,
            anonymized_graph=working,
            config=config,
            observer=observer if observer is not None else NULL_OBSERVER,
        )
        started = time.perf_counter()
        try:
            current = session.current()
            result.evaluations += 1
            result.observer.on_evaluation(result.evaluations)
            step_index = 0
            while current.max_opacity > theta and working.num_edges > 0:
                if result.observer.should_stop():
                    result.stop_reason = "observer"
                    break
                if self._max_steps is not None and step_index >= self._max_steps:
                    result.stop_reason = "max_steps"
                    break
                try:
                    edge = self._choose_edge(session, current, theta, rng, result)
                except AnonymizationStopped:
                    # Scans never touch the graph, so `current` still
                    # describes the working graph.
                    result.stop_reason = "observer"
                    break
                if edge is None:
                    result.stop_reason = "exhausted"
                    break
                session.apply_edit(removals=(edge,))
                result.removed_edges.add(edge)
                current = session.current()
                result.evaluations += 1
                result.observer.on_evaluation(result.evaluations)
                step_record = AnonymizationStep(
                    index=step_index, operation="remove", edges=(edge,),
                    max_opacity_after=current.max_opacity,
                    removals=(edge,))
                result.steps.append(step_record)
                result.observer.on_step(step_record, result)
                step_index += 1
        finally:
            session.close()
        result.final_opacity = current.max_opacity
        result.success = current.max_opacity <= theta
        result.runtime_seconds = time.perf_counter() - started
        if not result.success and self._strict:
            raise InfeasibleError(
                f"GADED could not reach theta={theta} "
                f"(final disclosure {result.final_opacity:.3f})")
        return result

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


@register_anonymizer(
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


@register_anonymizer(
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
