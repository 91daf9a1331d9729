"""Shared machinery for the two L-opacification heuristics.

Both Algorithm 4 (Edge Removal) and Algorithm 5 (Edge Removal/Insertion)
follow the same skeleton: repeatedly evaluate candidate edge modifications,
pick the one that minimizes the resulting maximum opacity with the paper's
tie-breaking rule, apply it, and stop once the graph satisfies the requested
threshold.  This module holds the configuration record, the result/step
records, the tie-breaking logic, and the abstract driver.

The driver also powers the **checkpointed θ-sweep engine** (DESIGN.md §9):
θ enters the greedy loop only as the stopping condition, so for a fixed
seed the edit sequence at a lower θ is an exact extension of the sequence
at every higher θ.  :meth:`BaseAnonymizer.anonymize_schedule` therefore
executes a whole descending θ grid as *one* anonymization pass, emitting an
:class:`AnonymizationCheckpoint` each time the maximum opacity first
crosses a grid point and materializing per-θ results identical to
independent runs.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.progress import (
    NULL_OBSERVER,
    AnonymizationStopped,
    ProgressObserver,
    notify_checkpoint,
)
from repro.core.opacity import OpacityComputer, OpacityResult
from repro.core.opacity_session import (
    OpacitySession,
    validate_evaluation_mode,
    validate_scan_mode,
)
from repro.core.pair_types import DegreePairTyping, PairTyping
from repro.core.scan_pool import resolve_scan_workers
from repro.errors import ConfigurationError, InfeasibleError
from repro.graph.distance import DistanceEngine, available_engines
from repro.graph.distance_store import (
    DEFAULT_SCALE_BUDGET_BYTES,
    StoreConfig,
    validate_scale_tier,
)
from repro.graph.graph import Edge, Graph
from repro.metrics.distortion import edit_distance_ratio

#: Candidates per stacked ``evaluate_edits`` call in batched scans.  Large
#: enough to amortize the per-pass numpy dispatch, small enough that a stop
#: request (observer/timeout) never waits on more than one chunk's worth of
#: computed-but-unreported evaluations.
BATCH_SCAN_CHUNK = 256

#: Valid values of the ``sweep_mode`` knob: how a θ schedule is executed.
#: ``"checkpointed"`` runs one anonymization pass per grid, emitting a
#: checkpoint at every crossed grid point; ``"independent"`` runs one full
#: anonymization per θ (the pre-sweep-engine path).  Both produce identical
#: per-θ results (edits, opacity, evaluation counts) — only the work
#: performed (and hence the runtime) differs.
SWEEP_MODES: Tuple[str, ...] = ("checkpointed", "independent")


def validate_sweep_mode(mode: str) -> None:
    """Raise :class:`ConfigurationError` unless ``mode`` is a known sweep mode."""
    if mode not in SWEEP_MODES:
        raise ConfigurationError(
            f"unknown sweep_mode {mode!r}; available: {SWEEP_MODES}")


def validate_theta_schedule(thetas: Sequence[float]) -> Tuple[float, ...]:
    """Coerce ``thetas`` into the strictly-descending grid the engine runs.

    Values are validated against [0, 1], deduplicated, and sorted in
    descending order — the order in which a single anonymization pass
    crosses them.
    """
    thetas = tuple(thetas)
    if not thetas:
        raise ConfigurationError("theta schedule must not be empty")
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {theta}")
    return tuple(sorted({float(theta) for theta in thetas}, reverse=True))


def iter_batched_evaluations(session: OpacitySession, candidates: Sequence,
                             to_edit):
    """Stream a batched candidate scan's evaluations in stop-friendly chunks.

    ``to_edit`` maps one candidate to its ``(removals, insertions)`` edit.
    Evaluations arrive in candidate order, computed one
    ``BATCH_SCAN_CHUNK``-sized :meth:`OpacitySession.evaluate_edits` pass at
    a time, so the consumer's per-candidate accounting (and any stop raised
    from it) never waits on more than one chunk of computed-but-unreported
    work.  Shared by every ``scan_mode="batched"`` scan loop.
    """
    # A parallel scan amortizes one pool round-trip per chunk, so chunks
    # scale with the pool size — each worker still sees ~BATCH_SCAN_CHUNK
    # candidates per round, and stop latency per process is unchanged.
    chunk_size = BATCH_SCAN_CHUNK * max(1, session.scan_parallelism)
    for start in range(0, len(candidates), chunk_size):
        chunk = candidates[start:start + chunk_size]
        yield from session.evaluate_edits([to_edit(candidate)
                                           for candidate in chunk])


@dataclass(frozen=True)
class AnonymizerConfig:
    """Parameters shared by the L-opacification heuristics.

    Attributes
    ----------
    length_threshold:
        The L parameter: path lengths up to L are considered sensitive.
    theta:
        Confidence threshold θ; the algorithms stop once
        ``max_T LO(T) <= theta``.
    lookahead:
        The ``la`` parameter: maximum number of edges considered jointly in
        one greedy step (Section 5).
    engine:
        Distance engine used for opacity evaluation.
    seed:
        Seed for the uniform tie-breaking of Algorithm 4 (lines 14-18).
    max_steps:
        Optional hard cap on greedy steps (safety valve for experiments).
    prune_candidates:
        If ``True`` (default), the removal scan is restricted to edges that
        lie on a path of length ≤ L between a pair of a type currently at
        the maximum opacity — removals outside that set cannot reduce the
        maximum, so the greedy choice is preserved (see DESIGN.md §5.3).
    max_combinations:
        Cap on the number of edge combinations evaluated per look-ahead
        level; beyond the cap a uniform random subset is evaluated.
    insertion_candidate_cap:
        Optional cap on the number of absent edges scanned per insertion
        step of Algorithm 5 (``None`` scans all, as in the paper).
    strict:
        If ``True``, raise :class:`InfeasibleError` when the threshold cannot
        be met; otherwise return a best-effort result with ``success=False``.
    evaluation_mode:
        How candidate edits are evaluated: ``"incremental"`` (default)
        delta-evaluates each candidate through an
        :class:`~repro.core.opacity_session.OpacitySession`;
        ``"scratch"`` recomputes distances and counts from scratch per
        candidate.  Both modes choose bit-identical edits.
    scan_mode:
        How a step's candidate list is walked: ``"batched"`` (default)
        evaluates all single-edge candidates of a scan in one stacked
        :meth:`~repro.core.opacity_session.OpacitySession.evaluate_edits`
        pass; ``"per_candidate"`` previews them one at a time;
        ``"parallel"`` shards the batched scan across a pool of
        ``scan_workers`` processes attached to a shared-memory publication
        of the session state (DESIGN.md §14).  All scan modes choose
        bit-identical edits.
    scan_workers:
        Pool size for ``scan_mode="parallel"``.  ``None`` (default)
        auto-sizes to ``min(4, cpu_count)`` on multi-core machines and
        falls back to serial scanning on single-core ones; explicit values
        are used as-is (0/1 = serial).  Ignored by the other scan modes
        and inside θ-group pool workers (no nested oversubscription).
    sweep_mode:
        How :meth:`BaseAnonymizer.anonymize_schedule` executes a θ grid:
        ``"checkpointed"`` (default) runs one pass with per-θ checkpoints;
        ``"independent"`` runs one full anonymization per grid point.
        Both modes produce identical per-θ results.
    swap_sample_size:
        GADES only: candidate swap pairs examined per step.  Recorded here
        so a result's config reproduces the run; ``None`` for the other
        algorithms.
    scale_tier:
        Where the L-bounded distance plane lives: ``"dense"`` keeps the
        full n×n matrix in memory, ``"tiled"`` streams row-block tiles
        through a :class:`~repro.graph.distance_store.TiledStore` under
        ``scale_budget_bytes``, and ``"auto"`` (default) picks dense when
        the matrix fits the budget and tiled otherwise.  The tiled tier
        requires ``evaluation_mode="incremental"``.
    scale_budget_bytes:
        Byte budget for the distance plane (``None`` = the default
        512 MiB).  In the dense tier this is a guard — exceeding it raises
        :class:`~repro.errors.DistanceMemoryError` — while the tiled tier
        treats it as the tile-cache capacity, spilling cold tiles to disk.
    """

    length_threshold: int = 1
    theta: float = 0.5
    lookahead: int = 1
    engine: DistanceEngine = "numpy"
    seed: Optional[int] = None
    max_steps: Optional[int] = None
    prune_candidates: bool = True
    max_combinations: int = 100_000
    insertion_candidate_cap: Optional[int] = None
    strict: bool = False
    evaluation_mode: str = "incremental"
    scan_mode: str = "batched"
    scan_workers: Optional[int] = None
    sweep_mode: str = "checkpointed"
    swap_sample_size: Optional[int] = None
    scale_tier: str = "auto"
    scale_budget_bytes: Optional[int] = None

    def store_config(self) -> StoreConfig:
        """The :class:`~repro.graph.distance_store.StoreConfig` of this run."""
        budget = (self.scale_budget_bytes if self.scale_budget_bytes is not None
                  else DEFAULT_SCALE_BUDGET_BYTES)
        return StoreConfig(tier=self.scale_tier, budget_bytes=budget)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid parameter values."""
        if self.length_threshold < 1:
            raise ConfigurationError(
                f"length_threshold must be >= 1, got {self.length_threshold}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if self.lookahead < 1:
            raise ConfigurationError(f"lookahead must be >= 1, got {self.lookahead}")
        if self.engine not in available_engines():
            raise ConfigurationError(
                f"unknown distance engine {self.engine!r}; "
                f"available: {available_engines()}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.max_combinations < 1:
            raise ConfigurationError("max_combinations must be >= 1")
        if self.insertion_candidate_cap is not None and self.insertion_candidate_cap < 1:
            raise ConfigurationError("insertion_candidate_cap must be >= 1")
        if self.swap_sample_size is not None and self.swap_sample_size < 1:
            raise ConfigurationError("swap_sample_size must be >= 1")
        if self.scan_workers is not None and self.scan_workers < 0:
            raise ConfigurationError(
                f"scan_workers must be >= 0, got {self.scan_workers}")
        validate_evaluation_mode(self.evaluation_mode)
        validate_scan_mode(self.scan_mode)
        validate_sweep_mode(self.sweep_mode)
        if self.scan_mode == "parallel" and self.evaluation_mode == "scratch":
            raise ConfigurationError(
                "scan_mode='parallel' requires evaluation_mode='incremental'; "
                "scratch evaluation has no shareable session state")
        validate_scale_tier(self.scale_tier)
        if self.scale_tier == "tiled" and self.evaluation_mode == "scratch":
            raise ConfigurationError(
                "scale_tier='tiled' requires evaluation_mode='incremental'; "
                "scratch evaluation recomputes a dense matrix per candidate")
        if self.scale_budget_bytes is not None and self.scale_budget_bytes < 1:
            raise ConfigurationError(
                f"scale_budget_bytes must be >= 1, got {self.scale_budget_bytes}")


@dataclass(frozen=True)
class AnonymizationStep:
    """One applied greedy step.

    ``edges`` lists every touched edge (``removals + insertions``);
    ``removals`` and ``insertions`` split them by operation so a step
    sequence can be replayed onto a graph without knowing the operation's
    internal structure ("remove+insert" and "swap" steps mix both kinds).
    """

    index: int
    operation: str  # "remove", "insert", "remove+insert", or "swap"
    edges: Tuple[Edge, ...]
    max_opacity_after: float
    removals: Tuple[Edge, ...] = ()
    insertions: Tuple[Edge, ...] = ()


@dataclass
class AnonymizationResult:
    """Outcome of one anonymization run.

    ``stop_reason`` is ``None`` when the run ended because the threshold
    was met; otherwise it names why the loop stopped early: ``"observer"``
    (a progress observer asked to stop), ``"max_steps"``, or
    ``"exhausted"`` (no candidate modification could improve further).
    """

    original_graph: Graph
    anonymized_graph: Graph
    config: AnonymizerConfig
    steps: List[AnonymizationStep] = field(default_factory=list)
    removed_edges: Set[Edge] = field(default_factory=set)
    inserted_edges: Set[Edge] = field(default_factory=set)
    final_opacity: float = 0.0
    success: bool = False
    runtime_seconds: float = 0.0
    evaluations: int = 0
    stop_reason: Optional[str] = None
    observer: ProgressObserver = field(default=NULL_OBSERVER, repr=False, compare=False)
    #: Execution diagnostics that do not affect the anonymization outcome
    #: (effective fallback row fraction, parallel-scan usage, ...).
    #: Excluded from equality so results stay comparable across scan modes.
    debug_info: Dict[str, Any] = field(default_factory=dict, repr=False,
                                       compare=False)

    @cached_property
    def distortion(self) -> float:
        """Edit-distance ratio D(E, Ê) of Equation 1.

        Cached on first access (the underlying comparison walks both edge
        sets); only read it once the run has finished mutating
        ``anonymized_graph``.
        """
        return edit_distance_ratio(self.original_graph, self.anonymized_graph)

    @property
    def num_steps(self) -> int:
        """Number of greedy steps applied."""
        return len(self.steps)

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        status = "ok" if self.success else "best-effort"
        return (f"L={self.config.length_threshold} theta={self.config.theta:.2f} "
                f"la={self.config.lookahead} [{status}] "
                f"opacity={self.final_opacity:.3f} distortion={self.distortion:.3f} "
                f"steps={self.num_steps} removed={len(self.removed_edges)} "
                f"inserted={len(self.inserted_edges)} "
                f"time={self.runtime_seconds:.2f}s")


@dataclass(frozen=True)
class AnonymizationCheckpoint:
    """State of a checkpointed anonymization when a θ grid point is crossed.

    Emitted by the schedule drivers at the top of the greedy loop — exactly
    where an independent run at ``theta`` evaluates its
    ``max_opacity > θ`` stopping condition — so the recorded state (edits
    so far, opacity, evaluation count) is precisely what that independent
    run would have returned.  ``runtime_seconds`` is the elapsed time since
    the pass started (the per-θ split of a sweep is the difference of
    consecutive checkpoints); ``graph`` snapshots the working graph at the
    crossing.

    ``rng_state`` captures the tie-breaking RNG exactly as it stood at the
    crossing (``random.Random.getstate()``), which — together with the
    graph snapshot — is everything a later process needs to *continue* the
    pass bit-identically over the remaining grid points
    (:meth:`BaseAnonymizer.anonymize_schedule` with ``resume_from``).  It
    is ``None`` for checkpoints emitted by pre-resume schedule drivers and
    is excluded from equality so materialized results compare unchanged.
    """

    theta: float
    steps: Tuple[AnonymizationStep, ...]
    removed_edges: Tuple[Edge, ...]
    inserted_edges: Tuple[Edge, ...]
    evaluations: int
    max_opacity: float
    runtime_seconds: float
    success: bool
    stop_reason: Optional[str]
    graph: Graph = field(repr=False)
    rng_state: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def num_steps(self) -> int:
        """Number of greedy steps applied when the grid point was crossed."""
        return len(self.steps)


class ThetaScheduleTracker:
    """Emit checkpoints as one greedy pass crosses a descending θ grid.

    The greedy loops consult :meth:`emit_crossings` at the top of every
    iteration; a loop that stops early (observer, ``max_steps``, exhausted
    candidates) calls :meth:`emit_remaining` so every grid point still
    receives a checkpoint carrying the stop reason — the same best-effort
    outcome an independent run at that θ would report.
    """

    def __init__(self, schedule: Sequence[float], working: Graph,
                 started: float, rng: Optional[random.Random] = None) -> None:
        self._schedule = tuple(schedule)
        self._working = working
        self._started = started
        self._rng = rng
        self._pointer = 0
        self.checkpoints: List[AnonymizationCheckpoint] = []

    @property
    def done(self) -> bool:
        """Whether every grid point has been emitted."""
        return self._pointer >= len(self._schedule)

    def emit_crossings(self, current: OpacityResult,
                       result: AnonymizationResult) -> None:
        """Emit checkpoints for every grid point the pass has now crossed."""
        while (self._pointer < len(self._schedule)
               and current.max_opacity <= self._schedule[self._pointer]):
            self._emit(current, result, success=True, stop_reason=None)

    def emit_remaining(self, current: OpacityResult,
                       result: AnonymizationResult,
                       stop_reason: str) -> None:
        """Emit best-effort checkpoints for every not-yet-crossed grid point."""
        while self._pointer < len(self._schedule):
            theta = self._schedule[self._pointer]
            self._emit(current, result,
                       success=current.max_opacity <= theta,
                       stop_reason=stop_reason)

    def _emit(self, current: OpacityResult, result: AnonymizationResult,
              success: bool, stop_reason: Optional[str]) -> None:
        # The pass ends with the final grid point, so that checkpoint can
        # adopt the working graph itself (matching the single-θ behaviour
        # where the result owns the mutated working copy); earlier
        # checkpoints snapshot it, since the pass keeps mutating it.
        last = self._pointer == len(self._schedule) - 1
        checkpoint = AnonymizationCheckpoint(
            theta=self._schedule[self._pointer],
            steps=tuple(result.steps),
            removed_edges=tuple(sorted(result.removed_edges)),
            inserted_edges=tuple(sorted(result.inserted_edges)),
            evaluations=result.evaluations,
            max_opacity=current.max_opacity,
            runtime_seconds=time.perf_counter() - self._started,
            success=success,
            stop_reason=stop_reason,
            graph=self._working if last else self._working.copy(),
            rng_state=self._rng.getstate() if self._rng is not None else None,
        )
        self.checkpoints.append(checkpoint)
        self._pointer += 1
        # Stream the crossing to the run's observer so long checkpointed
        # sweeps report per-θ progress live, not only at materialization.
        notify_checkpoint(result.observer, checkpoint)


def materialize_checkpoints(checkpoints: Sequence[AnonymizationCheckpoint],
                            original: Graph, config: AnonymizerConfig,
                            observer: ProgressObserver) -> List[AnonymizationResult]:
    """Turn a schedule pass's checkpoints into per-θ results.

    Each materialized record is indistinguishable from the result of an
    independent run at its θ (same edits, steps, opacity, evaluation
    count); only ``runtime_seconds`` — the elapsed time when the pass
    crossed the grid point — reflects the shared execution.
    """
    return [AnonymizationResult(
        original_graph=original,
        anonymized_graph=checkpoint.graph,
        config=replace(config, theta=checkpoint.theta),
        steps=list(checkpoint.steps),
        removed_edges=set(checkpoint.removed_edges),
        inserted_edges=set(checkpoint.inserted_edges),
        final_opacity=checkpoint.max_opacity,
        success=checkpoint.success,
        runtime_seconds=checkpoint.runtime_seconds,
        evaluations=checkpoint.evaluations,
        stop_reason=checkpoint.stop_reason,
        observer=observer,
    ) for checkpoint in checkpoints]


@dataclass
class CandidateOutcome:
    """Evaluation of one candidate edge combination."""

    edges: Tuple[Edge, ...]
    fraction: Fraction
    types_at_max: int

    @property
    def opacity(self) -> float:
        """Maximum opacity after applying this candidate."""
        return float(self.fraction)


class TieBreaker:
    """The selection rule of Algorithm 4, lines 8-18.

    Candidates are preferred by (1) lowest resulting maximum opacity, then
    (2) fewest types attaining that maximum (``N``), then (3) uniformly at
    random among remaining ties, implemented with the same incremental
    reservoir counter as the pseudo-code.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.best: Optional[CandidateOutcome] = None
        self._tie_count = 0

    def offer(self, candidate: CandidateOutcome) -> None:
        """Consider one candidate outcome."""
        if self.best is None or candidate.fraction < self.best.fraction:
            self.best = candidate
            self._tie_count = 1
            return
        if candidate.fraction == self.best.fraction:
            if candidate.types_at_max < self.best.types_at_max:
                self.best = candidate
                self._tie_count = 1
            elif candidate.types_at_max == self.best.types_at_max:
                self._tie_count += 1
                if self._rng.random() < 1.0 / self._tie_count:
                    self.best = candidate


class BaseAnonymizer(ABC):
    """Greedy L-opacification driver shared by Algorithms 4 and 5."""

    def __init__(self, config: Optional[AnonymizerConfig] = None, **overrides) -> None:
        if config is None:
            config = AnonymizerConfig(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a config object or keyword overrides, not both")
        config.validate()
        self._config = config

    @property
    def config(self) -> AnonymizerConfig:
        """The configuration of this anonymizer."""
        return self._config

    # ------------------------------------------------------------------
    # template method
    # ------------------------------------------------------------------
    def anonymize(self, graph: Graph, typing: Optional[PairTyping] = None,
                  observer: Optional[ProgressObserver] = None,
                  initial_distances=None) -> AnonymizationResult:
        """Run the heuristic on ``graph`` and return the anonymization result.

        ``typing`` defaults to the degree-pair typing frozen from ``graph``,
        matching the paper's adversary model.  ``observer`` receives
        ``on_evaluation`` / ``on_step`` callbacks and is polled via
        ``should_stop`` between opacity evaluations; a requested stop ends
        the run at the next safe point with ``stop_reason="observer"``.
        ``initial_distances`` may carry the precomputed L-bounded distance
        matrix of ``graph`` (e.g. a
        :class:`~repro.graph.distance_cache.LMaxDistanceCache` slice) so the
        evaluation session skips its from-scratch engine run; the run takes
        ownership of the array.
        """
        return self._run_schedule(graph, (self._config.theta,), typing,
                                  observer, initial_distances)[0]

    def anonymize_schedule(self, graph: Graph,
                           thetas: Optional[Sequence[float]] = None,
                           typing: Optional[PairTyping] = None,
                           observer: Optional[ProgressObserver] = None,
                           initial_distances=None,
                           resume_from: Optional[AnonymizationCheckpoint] = None
                           ) -> List[AnonymizationResult]:
        """Run the heuristic for a whole θ grid, one result per grid point.

        ``thetas`` (default: the config's single θ) is deduplicated and
        sorted descending; results come back in that schedule order.  With
        ``sweep_mode="checkpointed"`` the grid is executed as *one*
        anonymization pass: θ only gates the greedy loop's termination, so
        the edit sequence at a lower θ extends the sequence at every higher
        θ, and a checkpoint taken when the maximum opacity first crosses a
        grid point captures exactly the state an independent run at that θ
        would have returned.  ``sweep_mode="independent"`` runs one full
        anonymization per grid point instead; both modes produce identical
        per-θ results (only ``runtime_seconds`` reflects the execution
        strategy).  ``initial_distances`` seeds the evaluation session like
        in :meth:`anonymize` (independent mode hands each per-θ run its own
        copy, since every run consumes one).

        ``resume_from`` continues an earlier pass over the same ``graph``
        and seed from one of its checkpoints: the working graph, applied
        edits, evaluation count, and tie-breaking RNG state are restored
        from the checkpoint, and only ``thetas`` — which must all lie
        strictly below the checkpoint's θ — are executed.  The results are
        bit-identical (runtime aside) to the corresponding tail of an
        uninterrupted pass; ``graph`` must still be the *original* graph
        (results and the frozen typing refer to it).  Independent mode
        ignores ``resume_from`` and re-runs each grid point from scratch,
        which yields the same results.
        """
        config = self._config
        schedule = validate_theta_schedule(
            thetas if thetas is not None else (config.theta,))
        if config.sweep_mode == "independent" and len(schedule) > 1:
            # Each per-θ run consumes its seed.  Dense arrays are cheap to
            # copy; store payloads (tiled tier) are not, so every run
            # recomputes its own store from the graph instead — the
            # per-tile engine is deterministic, so results are unchanged.
            def seed_distances():
                if isinstance(initial_distances, np.ndarray):
                    return initial_distances.copy()
                return None
            return [type(self)(config=replace(config, theta=theta)).anonymize(
                        graph, typing=typing, observer=observer,
                        initial_distances=seed_distances())
                    for theta in schedule]
        return self._run_schedule(graph, schedule, typing, observer,
                                  initial_distances, resume_from)

    def _run_schedule(self, graph: Graph, schedule: Sequence[float],
                      typing: Optional[PairTyping],
                      observer: Optional[ProgressObserver],
                      initial_distances=None,
                      resume_from: Optional[AnonymizationCheckpoint] = None
                      ) -> List[AnonymizationResult]:
        """One checkpointed greedy pass over a descending θ schedule."""
        config = self._config
        if resume_from is not None:
            if initial_distances is not None:
                raise ConfigurationError(
                    "initial_distances describes the original graph and "
                    "cannot seed a resumed pass; pass one or the other")
            if resume_from.rng_state is None:
                raise ConfigurationError(
                    "checkpoint carries no RNG state; it cannot seed a "
                    "resumed pass (emitted by a pre-resume driver?)")
            above = [theta for theta in schedule if theta >= resume_from.theta]
            if above:
                raise ConfigurationError(
                    f"a resumed schedule must lie strictly below the "
                    f"checkpoint's theta={resume_from.theta}; got {above}")
        if typing is None:
            typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, config.length_threshold, engine=config.engine)
        working = (resume_from.graph.copy() if resume_from is not None
                   else graph.copy())
        session = OpacitySession(
            computer, working, mode=config.evaluation_mode,
            initial_distances=initial_distances,
            store_config=config.store_config(),
            scan_workers=resolve_scan_workers(config.scan_mode,
                                              config.scan_workers))
        rng = random.Random(config.seed)
        original = graph.copy()
        result = AnonymizationResult(
            original_graph=original,
            anonymized_graph=working,
            config=replace(config, theta=schedule[-1]),
            observer=observer if observer is not None else NULL_OBSERVER,
        )
        started = time.perf_counter()
        if resume_from is not None:
            # Restore the pass exactly as it stood at the crossing: edits,
            # evaluation count, RNG, and the clock (so per-θ runtimes keep
            # accumulating across the interruption).
            rng.setstate(resume_from.rng_state)
            result.steps = list(resume_from.steps)
            result.removed_edges = set(resume_from.removed_edges)
            result.inserted_edges = set(resume_from.inserted_edges)
            result.evaluations = resume_from.evaluations
            started -= resume_from.runtime_seconds
        tracker = ThetaScheduleTracker(schedule, working, started, rng=rng)
        try:
            current = session.current()
            if resume_from is None:
                result.evaluations += 1
                result.observer.on_evaluation(result.evaluations)
            step_index = len(result.steps)
            while True:
                tracker.emit_crossings(current, result)
                if tracker.done:
                    break
                if result.observer.should_stop():
                    tracker.emit_remaining(current, result, "observer")
                    break
                if config.max_steps is not None and step_index >= config.max_steps:
                    tracker.emit_remaining(current, result, "max_steps")
                    break
                try:
                    step = self._perform_step(session, current, rng, result)
                except AnonymizationStopped:
                    # The step may have been interrupted after applying part of
                    # its modifications (rem-ins applies the removal before the
                    # insertion scan), so re-evaluate to keep the reported
                    # opacity consistent with the returned graph.
                    current = session.current()
                    result.evaluations += 1
                    tracker.emit_remaining(current, result, "observer")
                    break
                if step is None:
                    tracker.emit_remaining(current, result, "exhausted")
                    break
                current = session.current()
                result.evaluations += 1
                result.observer.on_evaluation(result.evaluations)
                operation, removals, insertions = step
                step_record = AnonymizationStep(
                    index=step_index,
                    operation=operation,
                    edges=removals + insertions,
                    max_opacity_after=current.max_opacity,
                    removals=removals,
                    insertions=insertions,
                )
                result.steps.append(step_record)
                result.observer.on_step(step_record, result)
                step_index += 1
            debug_info: Dict[str, Any] = {
                "fallback_row_fraction": session.fallback_row_fraction,
                "scan_workers": session.scan_workers,
                "parallel_scans": session.parallel_scans,
            }
        finally:
            session.close()
        results = materialize_checkpoints(tracker.checkpoints, original,
                                          config, result.observer)
        for run in results:
            run.debug_info = dict(debug_info)
        if config.strict:
            for run in results:
                if not run.success:
                    raise InfeasibleError(
                        f"could not reach theta={run.config.theta} "
                        f"(final opacity {run.final_opacity:.3f})")
        return results

    @abstractmethod
    def _perform_step(self, session: OpacitySession, current: OpacityResult,
                      rng: random.Random,
                      result: AnonymizationResult
                      ) -> Optional[Tuple[str, Tuple[Edge, ...], Tuple[Edge, ...]]]:
        """Apply one greedy step through ``session``.

        Returns the applied ``(operation, removals, insertions)``, or
        ``None`` when no further step is possible (the driver then stops).
        """

    # ------------------------------------------------------------------
    # helpers shared by subclasses
    # ------------------------------------------------------------------
    def _combo_evaluator(self, session: OpacitySession,
                         result: AnonymizationResult, kind: str):
        """Batch evaluator of ``kind`` (``"remove"``/``"insert"``) combinations.

        Returns a callable mapping a list of edge combinations to an
        iterator of :class:`CandidateOutcome`\\ s, each counted (and each
        stop request honoured) as it is yielded.  ``scan_mode=
        "per_candidate"`` evaluates one :meth:`OpacitySession.evaluate_edit`
        per combination; the batched modes compute the outcomes in stacked
        :meth:`OpacitySession.evaluate_edits` chunks
        (:func:`iter_batched_evaluations`), so a stop request never waits
        on more than one chunk.  Both yield identical outcomes in the same
        order.
        """
        if kind == "remove":
            def to_edit(combo):
                return (tuple(combo), ())
        else:
            def to_edit(combo):
                return ((), tuple(combo))

        if self._config.scan_mode == "per_candidate":
            def evaluations(combos):
                return (session.evaluate_edit(*to_edit(combo))
                        for combo in combos)
        else:
            def evaluations(combos):
                return iter_batched_evaluations(session, combos, to_edit)

        def evaluate_batch(combos):
            for combo, evaluation in zip(combos, evaluations(combos)):
                self._record_evaluation(result)
                yield CandidateOutcome(edges=tuple(combo),
                                       fraction=evaluation.fraction,
                                       types_at_max=evaluation.types_at_max)
        return evaluate_batch

    @staticmethod
    def _record_evaluation(result: AnonymizationResult) -> None:
        """Count one tentative evaluation and honour stop requests.

        Raising :class:`AnonymizationStopped` here (the working graph is
        already restored) makes cancellation responsive *within* a greedy
        step, whose candidate scan can span thousands of evaluations.
        """
        result.evaluations += 1
        result.observer.on_evaluation(result.evaluations)
        if result.observer.should_stop():
            raise AnonymizationStopped()
