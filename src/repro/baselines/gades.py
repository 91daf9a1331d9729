"""GADES (Zhang & Zhang): disclosure reduction by degree-preserving edge swaps.

At every step GADES looks for a pair of edges ``(a, b)`` and ``(c, d)`` that
can be rewired into ``(a, d)`` and ``(c, b)`` — preserving every vertex
degree — such that the maximum single-edge disclosure decreases.  When no
improving swap exists the heuristic stops; as the paper observes (Section
6.3), on many graphs GADES cannot reach low thresholds at all.

Like the paper's heuristics, GADES only reads θ in its stopping condition
(candidate swaps are compared against the *current* maximum), so a θ grid
can be executed as one checkpointed pass (:meth:`GadesAnonymizer.
anonymize_schedule`, DESIGN.md §9).
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.progress import NULL_OBSERVER, AnonymizationStopped, ProgressObserver
from repro.api.registry import register_anonymizer
from repro.core.anonymizer import (
    AnonymizationResult,
    AnonymizationStep,
    AnonymizerConfig,
    ThetaScheduleTracker,
    materialize_checkpoints,
    scored_chunks,
    validate_theta_schedule,
)
from repro.core.lookahead import CombinationLevel
from repro.core.opacity import OpacityComputer
from repro.core.opacity_session import OpacitySession
from repro.core.pair_types import DegreePairTyping, PairTyping
from repro.errors import ConfigurationError
from repro.graph.graph import Edge, Graph, normalize_edge

Swap = Tuple[Edge, Edge, Edge, Edge]  # (removed1, removed2, added1, added2)

#: Insertion flags of a swap's four members.
_SWAP_GAINED = np.array([False, False, True, True])


@register_anonymizer(
    "gades",
    description="GADES baseline (Zhang & Zhang, degree-preserving swaps)",
    accepts=("theta", "seed", "max_steps", "swap_sample_size"),
)
class GadesAnonymizer:
    """GADES: greedy degree-preserving edge swapping against link disclosure.

    A step's sampled swaps are scored in the calling process, as rows of
    four members through
    :meth:`~repro.core.opacity_session.OpacitySession.score_combinations`:
    an L = 1 swap only flips its four edited cells, so a row's count change
    is the sum of their signed type hits.

    Parameters
    ----------
    theta:
        Confidence threshold on the maximum single-edge disclosure.
    swap_sample_size:
        Number of candidate swap pairs examined per step (the original
        formulation scans all pairs of edges; a seeded sample keeps the
        reimplementation tractable and is documented in DESIGN.md).
    """

    def __init__(self, theta: float = 0.5, seed: Optional[int] = None,
                 max_steps: Optional[int] = None, swap_sample_size: int = 2000
                 ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {theta}")
        if swap_sample_size < 1:
            raise ConfigurationError("swap_sample_size must be >= 1")
        self._theta = theta
        self._seed = seed
        self._max_steps = max_steps
        self._swap_sample_size = swap_sample_size

    @property
    def theta(self) -> float:
        """The confidence threshold."""
        return self._theta

    def anonymize(self, graph: Graph, typing: Optional[PairTyping] = None,
                  observer: Optional[ProgressObserver] = None
                  ) -> AnonymizationResult:
        """Run GADES and return the anonymization result.

        ``success`` is only reported when the threshold was actually reached;
        GADES frequently stalls because no degree-preserving swap can lower
        the maximum disclosure further.
        """
        return self._run_schedule(graph, (self._theta,), typing, observer)[0]

    def anonymize_schedule(self, graph: Graph,
                           thetas: Optional[Sequence[float]] = None,
                           typing: Optional[PairTyping] = None,
                           observer: Optional[ProgressObserver] = None
                           ) -> List[AnonymizationResult]:
        """Run GADES for a whole θ grid, one result per grid point.

        θ only gates the swap loop's termination (candidate swaps are
        scored against the current maximum, never θ), so one checkpointed
        pass returns per-θ results identical to independent runs — see
        :meth:`BaseAnonymizer.anonymize_schedule` for the schedule
        semantics.
        """
        schedule = validate_theta_schedule(
            thetas if thetas is not None else (self._theta,))
        return self._run_schedule(graph, schedule, typing, observer)

    def _run_schedule(self, graph: Graph, schedule: Sequence[float],
                      typing: Optional[PairTyping],
                      observer: Optional[ProgressObserver]
                      ) -> List[AnonymizationResult]:
        if typing is None:
            typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length_threshold=1)
        graph.edge_array()  # shared by the working copy and the distortion
        working = graph.copy()
        # The full constructor state (max_steps and swap_sample_size
        # included) is recorded so the result's config round-trips through
        # the api layer for reproduction.
        config = AnonymizerConfig(length_threshold=1, theta=schedule[-1],
                                  seed=self._seed,
                                  max_steps=self._max_steps,
                                  swap_sample_size=self._swap_sample_size)
        session = config.open_session(computer, working)
        rng = random.Random(self._seed)
        result = AnonymizationResult(
            original_graph=graph,
            anonymized_graph=working,
            config=config,
            observer=observer if observer is not None else NULL_OBSERVER,
        )
        started = time.perf_counter()
        tracker = ThetaScheduleTracker(schedule, working, started, rng=rng)
        try:
            current = session.current()
            result.evaluations += 1
            result.observer.on_evaluation(result.evaluations)
            step_index = 0
            while True:
                tracker.emit_crossings(current, result)
                if tracker.done:
                    break
                if result.observer.should_stop():
                    tracker.emit_remaining(current, result, "observer")
                    break
                if self._max_steps is not None and step_index >= self._max_steps:
                    tracker.emit_remaining(current, result, "max_steps")
                    break
                try:
                    swap = self._best_swap(session, current.max_opacity, rng, result)
                except AnonymizationStopped:
                    # Scans never touch the graph, so `current` still
                    # describes the working graph.
                    tracker.emit_remaining(current, result, "observer")
                    break
                if swap is None:
                    tracker.emit_remaining(current, result, "exhausted")
                    break
                removed1, removed2, added1, added2 = swap
                session.apply_edit(removals=(removed1, removed2),
                                   insertions=(added1, added2))
                result.removed_edges.update((removed1, removed2))
                result.inserted_edges.update((added1, added2))
                current = session.current()
                result.evaluations += 1
                result.observer.on_evaluation(result.evaluations)
                step_record = AnonymizationStep(
                    index=step_index, operation="swap",
                    edges=(removed1, removed2, added1, added2),
                    max_opacity_after=current.max_opacity,
                    removals=(removed1, removed2),
                    insertions=(added1, added2))
                result.steps.append(step_record)
                result.observer.on_step(step_record, result)
                step_index += 1
        finally:
            session.close()
        return materialize_checkpoints(tracker.checkpoints, graph, config,
                                       result.observer)

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
        limit = self._swap_sample_size
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
