"""Stateful, delta-evaluated opacity sessions.

:class:`repro.core.opacity.OpacityComputer` stays the stateless Algorithm 1
evaluator; :class:`OpacitySession` adds the state the candidate scans need
to answer "what would ``maxLO`` be after this edit?" thousands of times per
greedy step without a from-scratch recount.

A session owns a working graph together with

* a :class:`repro.graph.distance_delta.DistanceSession` maintaining the
  L-bounded distance matrix, and
* the per-type within-L counts of the *current* graph, kept in the frozen
  typing's iteration order.

A tentative edit then costs one distance delta plus a count delta over the
flipped cells — for :class:`~repro.core.pair_types.DegreePairTyping` a
vectorized bincount over the changed pairs; at L = 1 a batched scan skips
the distance machinery entirely (a flipped cell is exactly an edited edge,
so the tally reduces to a bincount over the candidates' own edges).  The
session reproduces the
stateless evaluator *bit-identically*: the same ``Fraction`` maxima, the
same ``types_at_max`` tie-break counts, and (for GADED-Max) the same
float-summed total opacity, so a greedy run chooses the same edits in either
evaluation mode.

``mode="scratch"`` is the reference implementation: every query applies the
edit, runs the stateless evaluator, and reverts — the paper's
copy-evaluate-restore loop behind the same interface.  Both modes apply and
revert tentative edits through the same :class:`~repro.graph.graph.Graph`
mutations in the same order, so adjacency-set iteration (and with it every
seeded tie-break downstream) is mode-independent.

Whole candidate scans go through :meth:`OpacitySession.evaluate_edits`,
which stacks the distance deltas of all single-edge candidates into one
:meth:`~repro.graph.distance_delta.DistanceSession.preview_batch` pass and
tallies every candidate with a single grouped bincount — the ``"batched"``
scan mode of the algorithms (DESIGN.md §7), bit-identical to the
per-candidate loop.  The session also maintains the pruning pass's
within-L violating-pair mask incrementally (:meth:`violating_pair_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opacity import (
    OpacityComputer,
    OpacityResult,
    decode_degree_pair,
    encode_degree_pairs,
)
from repro.core.pair_types import DegreePairTyping, TypeKey
from repro.errors import ConfigurationError
from repro.graph.distance_delta import DistanceDelta, DistanceSession
from repro.graph.distance_store import DenseStore, DistanceStore, StoreConfig
from repro.graph.graph import Edge, Graph
from repro.graph.matrices import triu_pair_indices

#: Valid values of the ``evaluation_mode`` knob, service layer included.
EVALUATION_MODES: Tuple[str, ...] = ("scratch", "incremental")

#: Valid values of the ``scan_mode`` knob: how the greedy algorithms walk a
#: step's candidate list — one :meth:`OpacitySession.evaluate_edit` per
#: candidate, one :meth:`OpacitySession.evaluate_edits` pass over all of
#: them, or that same batched pass sharded across a persistent pool of
#: scan workers over a shared-memory arena (``"parallel"``,
#: :mod:`repro.core.scan_pool`).  All scan modes choose bit-identical
#: edits.
SCAN_MODES: Tuple[str, ...] = ("per_candidate", "batched", "parallel")

#: One candidate edit: the removals and insertions applied together.
EditCandidate = Tuple[Sequence[Edge], Sequence[Edge]]


def validate_evaluation_mode(mode: str) -> None:
    """Raise :class:`ConfigurationError` unless ``mode`` is a known mode."""
    if mode not in EVALUATION_MODES:
        raise ConfigurationError(
            f"unknown evaluation_mode {mode!r}; available: {EVALUATION_MODES}")


def validate_scan_mode(mode: str) -> None:
    """Raise :class:`ConfigurationError` unless ``mode`` is a known scan mode."""
    if mode not in SCAN_MODES:
        raise ConfigurationError(
            f"unknown scan_mode {mode!r}; available: {SCAN_MODES}")


@dataclass(frozen=True)
class EditEvaluation:
    """Outcome of one tentative edit — exactly what the candidate scans need.

    ``total_opacity`` is the float sum of per-type opacities in typing order
    (GADED-Max's secondary objective), accumulated identically to the
    stateless evaluator's ``sum(entry.opacity for entry in per_type)``.
    """

    fraction: Fraction
    types_at_max: int
    total_opacity: float

    @property
    def max_opacity(self) -> float:
        """``maxLO`` after the edit, as a float."""
        return float(self.fraction)


class OpacitySession:
    """Evaluate and apply edge edits against a working graph.

    All graph mutations of an anonymization run must go through
    :meth:`apply_edit` so the incremental state stays in sync; tentative
    candidates go through :meth:`evaluate_edit`, which leaves no trace.

    Parameters
    ----------
    computer:
        The stateless evaluator fixing typing, L, and the distance engine.
    graph:
        The working graph (shared, not copied).
    mode:
        ``"incremental"`` (delta evaluation) or ``"scratch"``
        (copy-evaluate-restore reference).
    fallback_row_fraction:
        Passed to :class:`DistanceSession` — removal deltas touching more
        than this fraction of rows fall back to a from-scratch matrix.
        ``None`` (default) derives and keeps recalibrating the fraction
        from measured density × L; the chosen value is routing-only and
        never changes results.
    scan_workers:
        Size of the parallel scan pool (``scan_mode="parallel"``, resolved
        by :func:`repro.core.scan_pool.resolve_scan_workers`).  With a
        value > 1, :meth:`evaluate_edits` shards large candidate scans
        across that many worker processes attached to a shared-memory
        publication of this session's state; 0/1 keeps every scan serial.
        Any pool failure falls back to the serial scan permanently —
        results are bit-identical either way.
    initial_distances:
        Optional precomputed L-bounded distances of ``graph`` — a matrix
        (e.g. a thresholded slice of a shared
        :class:`~repro.graph.distance_cache.LMaxDistanceCache`) or a
        :class:`~repro.graph.distance_store.DistanceStore` served by the
        tier-aware cache — adopted as the incremental session's starting
        state so construction skips the from-scratch engine run.  The
        session takes ownership of the payload; scratch mode (which
        recomputes per evaluation anyway) ignores it.
    store_config:
        Scale-tier policy for a session that must compute its own
        distances (ignored when ``initial_distances`` is given).  The
        tiled tier requires incremental evaluation — scratch mode
        recomputes dense matrices per candidate, which is exactly what the
        tier exists to avoid.
    """

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 mode: str = "incremental",
                 fallback_row_fraction: Optional[float] = None,
                 initial_distances: Optional[np.ndarray | DistanceStore] = None,
                 store_config: Optional[StoreConfig] = None,
                 scan_workers: int = 0) -> None:
        validate_evaluation_mode(mode)
        if mode == "scratch" and (
                (store_config is not None and store_config.tier == "tiled")
                or isinstance(initial_distances, DistanceStore)
                and not isinstance(initial_distances, DenseStore)):
            raise ConfigurationError(
                "the tiled scale tier requires evaluation_mode='incremental'; "
                "scratch mode materializes dense matrices per candidate")
        self._computer = computer
        self._graph = graph
        self._mode = mode
        self._current: Optional[OpacityResult] = None
        self._distance: Optional[DistanceSession] = None
        # Lazy pruning-pass state: frozen degree-pair codes of every upper-
        # triangle pair, and (incremental mode) the maintained within-L mask.
        self._triu_codes: Optional[np.ndarray] = None
        self._triu_code_span: int = 1
        self._within_pairs: Optional[np.ndarray] = None
        # Parallel-scan state: the pool is started lazily on the first
        # large-enough scan and torn down permanently on any failure.
        self._scan_workers = max(0, int(scan_workers))
        self._scan_pool = None
        self._scan_failed = False
        self.parallel_scans = 0
        if mode == "incremental":
            self._distance = DistanceSession(
                graph, computer.length_threshold, engine=computer.engine,
                fallback_row_fraction=fallback_row_fraction,
                initial_distances=initial_distances,
                store_config=store_config)
            self._init_counts()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def computer(self) -> OpacityComputer:
        """The stateless evaluator this session wraps."""
        return self._computer

    @property
    def graph(self) -> Graph:
        """The working graph."""
        return self._graph

    @property
    def mode(self) -> str:
        """The evaluation mode (``"scratch"`` or ``"incremental"``)."""
        return self._mode

    @property
    def scan_workers(self) -> int:
        """The configured parallel-scan pool size (0 = serial scans)."""
        return self._scan_workers

    @property
    def scan_parallelism(self) -> int:
        """How many processes a candidate scan currently spans (>= 1)."""
        if self._scan_workers > 1 and not self._scan_failed \
                and self._mode == "incremental" \
                and self._computer.length_threshold > 1:
            return self._scan_workers
        return 1

    @property
    def fallback_row_fraction(self) -> Optional[float]:
        """The distance session's effective fallback fraction (debug hook)."""
        if self._distance is None:
            return None
        return self._distance.fallback_row_fraction

    def distances(self) -> np.ndarray:
        """The current dense L-bounded matrix (treat as read-only).

        Dense tier only — a tiled-tier session raises
        :class:`~repro.errors.DistanceMemoryError`; stream through
        :meth:`distance_rows` instead.
        """
        if self._distance is not None:
            return self._distance.distances
        return self._computer.distances(self._graph)

    def distance_rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows (incremental mode only).

        Columns follow by symmetry; this is the tier-independent way to
        read distances, sized to the store's tile budget.
        """
        if self._distance is None:
            raise ConfigurationError(
                "distance_rows() requires evaluation_mode='incremental'; "
                "scratch mode recomputes matrices per call")
        return self._distance.rows(block)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def current(self) -> OpacityResult:
        """Full Algorithm 1 result for the current graph state."""
        if self._mode == "scratch":
            return self._computer.evaluate(self._graph)
        if self._current is None:
            counts = {key: int(within)
                      for key, within in zip(self._type_keys, self._withins)}
            self._current = self._computer.result_from_counts(counts)
        return self._current

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> EditEvaluation:
        """Opacity outcome after tentatively applying the edit (no trace left)."""
        if self._mode == "scratch":
            return self._scratch_evaluate(removals, insertions)
        delta = self._distance.preview(removals, insertions)
        changes = self._count_changes(delta)
        return self._summarize(changes)

    def evaluate_edits(self, candidates: Sequence[EditCandidate]) -> List[EditEvaluation]:
        """Outcomes of many *independent* tentative edits, batch-evaluated.

        Bit-identical to ``[self.evaluate_edit(r, i) for r, i in candidates]``
        — same ``Fraction`` maxima, tie counts, float totals, and the same
        graph-mutation history — but a homogeneous scan of single-edge
        removals (resp. insertions) computes all distance deltas in one
        stacked :meth:`~repro.graph.distance_delta.DistanceSession.preview_batch`
        pass and tallies every candidate's count deltas with a single grouped
        bincount over the stacked flipped cells.  Heterogeneous or multi-edge
        candidate lists (GADES swaps, look-ahead combinations) fall back to
        sequential previews at L >= 2 but still share the grouped count
        stage.  At L = 1 every candidate list, multi-edge ones included,
        skips the distance machinery: the flipped cells are the candidates'
        own edited edges, stacked and tallied in one grouped count.
        """
        pairs = [(tuple(removals), tuple(insertions))
                 for removals, insertions in candidates]
        if self._mode == "scratch":
            return [self._scratch_evaluate(removals, insertions)
                    for removals, insertions in pairs]
        if self._computer.length_threshold == 1:
            return self._summarize_batch(self._l1_changes_batch(pairs))
        if self._use_parallel_scan(pairs):
            return self._summarize_batch(self._parallel_changes(pairs))
        return self._summarize_batch(self._collect_changes(pairs))

    def collect_edit_changes(self, pairs: Sequence[EditCandidate]
                             ) -> List[Dict[int, int]]:
        """Per-candidate count-change dicts of a shard (scan-pool workers).

        The worker-side half of the parallel scan: exactly the serial
        batched collection over ``pairs`` against this session's state,
        returning the raw per-type change dicts (keyed by frozen type
        index) for the parent to concatenate and summarize.
        """
        pairs = [(tuple(removals), tuple(insertions))
                 for removals, insertions in pairs]
        return self._collect_changes(pairs)

    def take_scan_stats(self) -> Tuple[int, int]:
        """Drain the distance session's ``(affected rows, candidates)``."""
        if self._distance is None:
            return (0, 0)
        return self._distance.take_observed_stats()

    def _collect_changes(self, pairs: List[EditCandidate]
                         ) -> List[Dict[int, int]]:
        # Deltas are consumed into (small) per-type change dicts group by
        # group, so peak retained memory is bounded by ~128 MB of delta
        # cells even when many removal candidates hit the from-scratch
        # fallback (each such delta holds a full n × n matrix); grouping
        # changes neither the per-candidate math nor the mutation order.
        n = self._graph.num_vertices
        group = max(1, (1 << 25) // max(1, n * n))
        changes: List[Dict[int, int]] = []
        for start in range(0, len(pairs), group):
            deltas = self._preview_deltas(pairs[start:start + group])
            changes.extend(self._count_changes_batch(deltas))
        return changes

    # ------------------------------------------------------------------
    # parallel scan machinery
    # ------------------------------------------------------------------
    def _use_parallel_scan(self, pairs: List[EditCandidate]) -> bool:
        return (self._scan_workers > 1
                and not self._scan_failed
                and self._mode == "incremental"
                and len(pairs) > self._scan_workers)

    def _ensure_scan_pool(self):
        if self._scan_pool is None and not self._scan_failed:
            from repro.core.scan_pool import ScanPool

            self._scan_pool = ScanPool.start(
                self._computer, self._graph, self._distance.store,
                self._distance.requested_fallback_fraction,
                self._scan_workers)
            if self._scan_pool is None:
                self._scan_failed = True
        return self._scan_pool

    def _parallel_changes(self, pairs: List[EditCandidate]
                          ) -> List[Dict[int, int]]:
        """Shard the scan across the pool; serial fallback on any failure.

        On success the concatenated worker changes are exactly what
        :meth:`_collect_changes` would have produced (distance values are
        canonical, shards preserve candidate order), the workers' observed
        affected-row stats are folded into the parent's auto fallback
        fraction, and the scan's graph mutate/restore sequence is replayed
        so adjacency-set histories stay scan-mode-independent.
        """
        pool = self._ensure_scan_pool()
        if pool is not None:
            outcome = pool.scan(pairs)
            if outcome is not None:
                changes, stats = outcome
                for rows_total, candidates in stats:
                    self._distance.observe_affected_rows(rows_total,
                                                         candidates)
                self._distance.replay_scan_mutations(pairs)
                self.parallel_scans += 1
                return changes
            self._teardown_scan_pool(failed=True)
        return self._collect_changes(pairs)

    def _teardown_scan_pool(self, failed: bool) -> None:
        if self._scan_pool is not None:
            self._scan_pool.close()
            self._scan_pool = None
        if failed:
            self._scan_failed = True

    def close(self) -> None:
        """Release pool workers and store resources (idempotent)."""
        self._teardown_scan_pool(failed=False)
        if self._distance is not None:
            self._distance.close()

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        """Permanently apply the edit, keeping all session state in sync."""
        if self._mode == "scratch":
            for u, v in removals:
                self._graph.remove_edge(u, v)
            for u, v in insertions:
                self._graph.add_edge(u, v)
            return
        # Two-phase: stage mutates the graph exactly once (the same mutation
        # sequence scratch mode performs), count deltas are diffed against
        # the still-pre-edit matrix, then the delta is folded in.
        delta = self._distance.stage(removals, insertions)
        if delta.from_scratch:
            changes = self._count_changes(delta)
            if self._within_pairs is not None:
                rows, cols = triu_pair_indices(self._graph.num_vertices)
                self._within_pairs = (
                    delta.new_rows[rows, cols] <= self._computer.length_threshold)
        else:
            cells = self._flipped_cells(delta)
            changes = {} if cells is None else self._changes_from_cells(*cells)
            if self._within_pairs is not None and cells is not None:
                self._update_pair_mask(*cells)
        self._distance.commit(delta)
        for index, change in changes.items():
            self._withins[index] += change
        self._current = None
        if self._scan_pool is not None \
                and not self._scan_pool.apply(removals, insertions):
            self._teardown_scan_pool(failed=True)

    def resync(self) -> None:
        """Rebuild all incremental state from scratch (testing / recovery)."""
        if self._mode == "incremental":
            self._distance.refresh()
            self._init_counts()
        self._within_pairs = None

    # ------------------------------------------------------------------
    # pruning support
    # ------------------------------------------------------------------
    def violating_pair_indices(self, max_types,
                               distances: Optional[np.ndarray] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Upper-triangle ``(i, j)`` pairs within L whose type is in ``max_types``.

        The candidate-pruning pass of the removal heuristics asks this every
        step.  In incremental mode the within-L mask is *maintained* across
        applied edits (only the flipped cells of each step's delta are
        touched) and the frozen per-pair type codes are computed once, so a
        query costs one vectorized membership test instead of a per-pair
        Python scan.  Scratch mode recomputes the mask from ``distances``
        (or a fresh matrix) per call — same pairs, same triu order.
        """
        n = self._graph.num_vertices
        rows, cols = triu_pair_indices(n)
        if rows.size == 0:
            return rows, cols
        length = self._computer.length_threshold
        if self._mode == "incremental":
            self._ensure_pair_mask()
            within = self._within_pairs
        else:
            if distances is None:
                distances = self._computer.distances(self._graph)
            within = distances[rows, cols] <= length
        typing = self._computer.typing
        if isinstance(typing, DegreePairTyping):
            codes = self._ensure_triu_codes()
            span = self._triu_code_span
            wanted = np.unique(np.fromiter(
                (g * span + h for g, h in max_types), dtype=np.int64,
                count=len(max_types)))
            mask = within & np.isin(codes, wanted) if wanted.size else \
                np.zeros(rows.size, dtype=bool)
        else:
            candidate_positions = np.nonzero(within)[0]
            member = np.fromiter(
                (typing.type_of(int(rows[p]), int(cols[p])) in max_types
                 for p in candidate_positions),
                dtype=bool, count=candidate_positions.size)
            mask = np.zeros(rows.size, dtype=bool)
            mask[candidate_positions[member]] = True
        return rows[mask], cols[mask]

    def _ensure_triu_codes(self) -> np.ndarray:
        if self._triu_codes is None:
            typing = self._computer.typing
            assert isinstance(typing, DegreePairTyping)
            rows, cols = triu_pair_indices(self._graph.num_vertices)
            self._triu_codes, self._triu_code_span = encode_degree_pairs(
                typing.degrees, rows, cols)
        return self._triu_codes

    def _ensure_pair_mask(self) -> None:
        if self._within_pairs is None:
            rows, cols = triu_pair_indices(self._graph.num_vertices)
            length = self._computer.length_threshold
            store = self._distance.store
            if isinstance(store, DenseStore):
                self._within_pairs = store.array[rows, cols] <= length
                return
            # Tiled tier: stream the triu gather block by block.  The triu
            # row array is sorted ascending, so each block's pairs form one
            # contiguous slice found by binary search.
            mask = np.empty(rows.size, dtype=bool)
            for start, stop in store.row_blocks():
                low = np.searchsorted(rows, start, side="left")
                high = np.searchsorted(rows, stop, side="left")
                if low == high:
                    continue
                slab = store.rows(np.arange(start, stop))
                mask[low:high] = (slab[rows[low:high] - start, cols[low:high]]
                                  <= length)
            self._within_pairs = mask

    def _update_pair_mask(self, row_idx: np.ndarray, col_idx: np.ndarray,
                          gained: np.ndarray) -> None:
        """Fold one applied delta's flipped cells into the within-L mask."""
        n = self._graph.num_vertices
        i = np.minimum(row_idx, col_idx)
        j = np.maximum(row_idx, col_idx)
        flat = i * (2 * n - i - 1) // 2 + (j - i - 1)
        self._within_pairs[flat] = gained

    # ------------------------------------------------------------------
    # scratch reference path
    # ------------------------------------------------------------------
    def _scratch_evaluate(self, removals: Sequence[Edge],
                          insertions: Sequence[Edge]) -> EditEvaluation:
        for u, v in removals:
            self._graph.remove_edge(u, v)
        for u, v in insertions:
            self._graph.add_edge(u, v)
        try:
            outcome = self._computer.evaluate(self._graph)
        finally:
            for u, v in insertions:
                self._graph.remove_edge(u, v)
            for u, v in removals:
                self._graph.add_edge(u, v)
        total = float(sum(entry.opacity for entry in outcome.per_type.values()))
        return EditEvaluation(fraction=outcome.max_fraction,
                              types_at_max=outcome.types_at_max,
                              total_opacity=total)

    # ------------------------------------------------------------------
    # incremental machinery
    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        typing = self._computer.typing
        store = self._distance.store
        if isinstance(store, DenseStore):
            counts = self._computer.within_counts(store.array)
        else:
            counts = self._computer.within_counts_store(store)
        type_keys: List[TypeKey] = []
        totals: List[int] = []
        withins: List[int] = []
        for key in typing.types():
            total = typing.pair_count(key)
            if total == 0:
                continue
            type_keys.append(key)
            totals.append(total)
            withins.append(counts.get(key, 0))
        self._type_keys = type_keys
        self._totals = np.asarray(totals, dtype=np.int64)
        self._withins = np.asarray(withins, dtype=np.int64)
        self._type_index: Dict[TypeKey, int] = {
            key: index for index, key in enumerate(type_keys)}
        self._current = None

    def _summarize(self, changes: Dict[int, int]) -> EditEvaluation:
        """Max/tie/total scan over the per-type counts with ``changes`` applied.

        Exactness without per-type ``Fraction`` objects: correctly-rounded
        float division is monotone, so the exact maximum must live among the
        types whose float ratio equals the float maximum; only those few are
        compared by integer cross-multiplication (the ordering ``Fraction``
        induces), and only they can tie the exact maximum.  The float total
        accumulates left-to-right like the stateless evaluator's
        ``sum(entry.opacity ...)``, so GADED-Max sees bit-identical keys.
        """
        withins = self._withins
        if changes:
            withins = withins.copy()
            for index, change in changes.items():
                withins[index] += change
        if withins.size == 0:
            return EditEvaluation(fraction=Fraction(0), types_at_max=0,
                                  total_opacity=0.0)
        ratios = withins / self._totals
        total = sum(ratios.tolist())
        candidates = np.nonzero(ratios == ratios.max())[0].tolist()
        best_num, best_den = 0, 1
        for index in candidates:
            num = int(withins[index])
            den = int(self._totals[index])
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        ties = sum(1 for index in candidates
                   if int(withins[index]) * best_den == best_num * int(self._totals[index]))
        return EditEvaluation(fraction=Fraction(best_num, best_den),
                              types_at_max=ties, total_opacity=float(total))

    def _l1_changes_batch(self, pairs: List[Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]]
                          ) -> List[Dict[int, int]]:
        """Per-candidate count changes at L = 1, no distance delta needed.

        At L = 1 the within-L pairs are exactly the edges, so a removal
        flips exactly its own cell from within-L to outside and an
        insertion the reverse: a candidate's flipped cells are its edited
        edges themselves.  Every candidate's edges are stacked with their
        candidate index and gained flag and tallied in one grouped count
        (:meth:`_tally_cells`); non-degree typings tally each candidate's
        slice alone.  The graph is still touched and restored per
        candidate, in order, with the same mutation sequence a
        :meth:`DistanceSession.preview` performs, so adjacency-set
        iteration histories — and with them every seeded tie-break
        downstream — stay identical across evaluation and scan modes.
        """
        graph = self._graph
        edges: List[Edge] = []
        gained: List[bool] = []
        sizes: List[int] = []
        for removals, insertions in pairs:
            for u, v in removals:
                graph.remove_edge(u, v)
            for u, v in insertions:
                graph.add_edge(u, v)
            for u, v in insertions:
                graph.remove_edge(u, v)
            for u, v in removals:
                graph.add_edge(u, v)
            edges.extend(removals)
            edges.extend(insertions)
            gained.extend([False] * len(removals) + [True] * len(insertions))
            sizes.append(len(removals) + len(insertions))
        cells = np.array(edges, dtype=np.int64).reshape(-1, 2)
        row_idx, col_idx = cells[:, 0], cells[:, 1]
        flags = np.array(gained, dtype=bool)
        if isinstance(self._computer.typing, DegreePairTyping):
            candidate = np.repeat(np.arange(len(pairs)), sizes)
            return self._tally_cells(len(pairs), candidate, row_idx, col_idx,
                                     flags)
        changes_list: List[Dict[int, int]] = []
        stop = 0
        for size in sizes:
            start, stop = stop, stop + size
            changes_list.append(
                self._changes_from_cells(row_idx[start:stop], col_idx[start:stop],
                                         flags[start:stop]) if size else {})
        return changes_list

    def _count_changes(self, delta: DistanceDelta) -> Dict[int, int]:
        """Per-type within-L count deltas implied by a distance delta.

        Returns a mapping from type *index* (position in the frozen typing
        order) to the signed change of its within-L pair count.
        """
        if delta.rows.size == 0:
            return {}
        if delta.from_scratch:
            new_counts = self._computer.within_counts(delta.new_rows)
            changes = {}
            for index, key in enumerate(self._type_keys):
                change = new_counts.get(key, 0) - self._withins[index]
                if change:
                    changes[index] = change
            return changes
        cells = self._flipped_cells(delta)
        if cells is None:
            return {}
        return self._changes_from_cells(*cells)

    def _flipped_cells(self, delta: DistanceDelta
                       ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Cells whose within-L membership flips under a (non-scratch) delta.

        Returns ``(row_idx, col_idx, gained)`` with exactly one
        representative per unordered pair, or ``None`` when nothing flips.
        """
        length = self._computer.length_threshold
        rows = delta.rows
        old_within = self._distance.rows(rows) <= length
        new_within = delta.new_rows <= length
        flips = old_within != new_within
        if not flips.any():
            return None
        # Each changed cell appears in its row and (when both endpoints are
        # affected rows) again transposed; keep exactly one representative.
        n = self._graph.num_vertices
        in_rows = np.zeros(n, dtype=bool)
        in_rows[rows] = True
        columns = np.arange(n)
        keep = flips & (~in_rows[None, :] | (columns[None, :] > rows[:, None]))
        row_pos, col_idx = np.nonzero(keep)
        if row_pos.size == 0:
            return None
        return rows[row_pos], col_idx, new_within[row_pos, col_idx]

    def _changes_from_cells(self, row_idx: np.ndarray, col_idx: np.ndarray,
                            gained: np.ndarray) -> Dict[int, int]:
        """Tally one candidate's flipped cells into per-type count changes."""
        typing = self._computer.typing
        changes: Dict[int, int] = {}
        if isinstance(typing, DegreePairTyping):
            encoded, span = encode_degree_pairs(typing.degrees, row_idx, col_idx)
            for codes, sign in ((encoded[gained], 1), (encoded[~gained], -1)):
                if codes.size == 0:
                    continue
                counted = np.bincount(codes)
                for code in np.nonzero(counted)[0]:
                    index = self._type_index.get(decode_degree_pair(code, span))
                    if index is None:
                        continue
                    changes[index] = changes.get(index, 0) + sign * int(counted[code])
        else:
            for i, j, is_gain in zip(row_idx.tolist(), col_idx.tolist(),
                                     gained.tolist()):
                key = typing.type_of(i, j)
                if key is None:
                    continue
                index = self._type_index.get(key)
                if index is None:
                    continue
                changes[index] = changes.get(index, 0) + (1 if is_gain else -1)
        return {index: change for index, change in changes.items() if change}

    def _preview_deltas(self, pairs: List[Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]]
                        ) -> List[Optional[DistanceDelta]]:
        """Distance deltas of independent candidates, stacked when possible.

        The stacked single-edge paths run fused (``skip_unchanged=True``):
        candidates whose edit flips no distance cell come back as ``None``
        instead of an empty :class:`DistanceDelta`, so the grouped bincount
        downstream never allocates per-candidate delta objects for no-op
        rows.
        """
        if pairs and all(len(removals) == 1 and not insertions
                         for removals, insertions in pairs):
            return self._distance.preview_batch(
                removals=[removals[0] for removals, _ in pairs],
                skip_unchanged=True)
        if pairs and all(not removals and len(insertions) == 1
                         for removals, insertions in pairs):
            return self._distance.preview_batch(
                insertions=[insertions[0] for _, insertions in pairs],
                skip_unchanged=True)
        return [self._distance.preview(removals, insertions)
                for removals, insertions in pairs]

    def _count_changes_batch(self, deltas: List[Optional[DistanceDelta]]
                             ) -> List[Dict[int, int]]:
        """Per-candidate count changes, one grouped bincount over all flips.

        Every candidate's flipped cells are extracted from one stacked
        comparison over the concatenated delta rows and tallied in a single
        ``bincount`` over ``(candidate, type-code, sign)`` groups — the
        per-candidate results are exactly what :meth:`_count_changes`
        returns for each delta alone.  ``None`` entries (fused no-op
        candidates) contribute empty changes without any delta object;
        from-scratch fallbacks and non-degree typings take the
        per-candidate path.
        """
        changes_list: List[Optional[Dict[int, int]]] = [None] * len(deltas)
        batchable = isinstance(self._computer.typing, DegreePairTyping)
        stacked: List[Tuple[int, DistanceDelta]] = []
        for position, delta in enumerate(deltas):
            if delta is None or delta.rows.size == 0:
                changes_list[position] = {}
            elif delta.from_scratch or not batchable:
                changes_list[position] = self._count_changes(delta)
            else:
                stacked.append((position, delta))
        if not stacked:
            return changes_list  # type: ignore[return-value]
        length = self._computer.length_threshold
        n = self._graph.num_vertices
        rows_cat = np.concatenate([delta.rows for _, delta in stacked])
        new_cat = np.concatenate([delta.new_rows for _, delta in stacked], axis=0)
        group_of_row = np.repeat(np.arange(len(stacked)),
                                 [delta.rows.size for _, delta in stacked])
        old_within = self._distance.rows(rows_cat) <= length
        new_within = new_cat <= length
        flips = old_within != new_within
        # Each changed cell appears in its candidate's row and (when both
        # endpoints are that candidate's affected rows) again transposed;
        # keep exactly one representative per candidate — the same dedupe
        # rule as :meth:`_flipped_cells`, with the affected-row membership
        # looked up per candidate group.
        in_rows = np.zeros((len(stacked), n), dtype=bool)
        in_rows[group_of_row, rows_cat] = True
        columns = np.arange(n)
        keep = flips & (~in_rows[group_of_row]
                        | (columns[None, :] > rows_cat[:, None]))
        slab_pos, col_idx = np.nonzero(keep)
        row_idx = rows_cat[slab_pos]
        gained = new_within[slab_pos, col_idx]
        position_of_group = np.fromiter((position for position, _ in stacked),
                                        dtype=np.int64, count=len(stacked))
        candidate = position_of_group[group_of_row[slab_pos]]
        tallied = self._tally_cells(len(deltas), candidate, row_idx, col_idx,
                                    gained)
        for position, _ in stacked:
            changes_list[position] = tallied[position]
        return changes_list  # type: ignore[return-value]

    def _tally_cells(self, count: int, candidate: np.ndarray,
                     row_idx: np.ndarray, col_idx: np.ndarray,
                     gained: np.ndarray) -> List[Dict[int, int]]:
        """Count changes of ``count`` candidates from their stacked flipped cells.

        ``candidate`` names the candidate each cell belongs to.  The cells'
        degree-pair codes go through one ``np.unique`` and one grouped
        ``bincount`` over ``(candidate, type-code, sign)``; entry ``c`` of
        the result equals :meth:`_changes_from_cells` over candidate ``c``'s
        cells alone (a gain and a loss of the same type net to no entry).
        Degree typings only.
        """
        changes_list: List[Dict[int, int]] = [{} for _ in range(count)]
        if row_idx.size == 0:
            return changes_list
        encoded, span = encode_degree_pairs(self._computer.typing.degrees,
                                            row_idx, col_idx)
        codes, inverse = np.unique(encoded, return_inverse=True)
        type_of_code = [self._type_index.get(decode_degree_pair(int(code), span))
                        for code in codes]
        grouped = (candidate * codes.size + inverse) * 2 + gained.astype(np.int64)
        counts = np.bincount(grouped, minlength=count * codes.size * 2)
        net = counts.reshape(count, codes.size, 2)
        net = net[:, :, 1].astype(np.int64) - net[:, :, 0]
        positions, code_positions = np.nonzero(net)
        for position, code_pos, change in zip(positions.tolist(),
                                              code_positions.tolist(),
                                              net[positions, code_positions].tolist()):
            index = type_of_code[code_pos]
            if index is not None:
                changes_list[position][index] = change
        return changes_list

    def _summarize_batch(self, changes_list: List[Dict[int, int]]
                         ) -> List[EditEvaluation]:
        """:meth:`_summarize` across candidates without per-candidate passes.

        The float ratio matrix, its row maxima, and the left-to-right float
        totals (``cumsum`` accumulates element by element, exactly like the
        stateless evaluator's ``sum``) are computed for all candidates at
        once; only the exact cross-multiplied refinement of each row's few
        float-argmax columns stays scalar.  Bit-identical to mapping
        :meth:`_summarize` over ``changes_list``.
        """
        if self._withins.size == 0:
            return [EditEvaluation(fraction=Fraction(0), types_at_max=0,
                                   total_opacity=0.0)
                    for _ in changes_list]
        count = len(changes_list)
        if count == 0:
            return []
        withins = np.tile(self._withins, (count, 1))
        for row, changes in enumerate(changes_list):
            for index, change in changes.items():
                withins[row, index] += change
        ratios = withins / self._totals[None, :]
        totals = np.cumsum(ratios, axis=1)[:, -1]
        at_max = ratios == ratios.max(axis=1)[:, None]
        tie_rows, tie_cols = np.nonzero(at_max)
        rows_list = tie_rows.tolist()
        nums = withins[tie_rows, tie_cols].tolist()
        dens = self._totals[tie_cols].tolist()
        totals_list = totals.tolist()
        evaluations: List[Optional[EditEvaluation]] = [None] * count
        best_num, best_den, ties, current = 0, 1, 0, -1
        for row, num, den in zip(rows_list, nums, dens):
            if row != current:
                if current >= 0:
                    evaluations[current] = EditEvaluation(
                        fraction=Fraction(best_num, best_den),
                        types_at_max=ties,
                        total_opacity=totals_list[current])
                best_num, best_den, ties, current = 0, 1, 0, row
            ordering = num * best_den - best_num * den
            if ordering > 0:
                best_num, best_den, ties = num, den, 1
            elif ordering == 0:
                ties += 1
        evaluations[current] = EditEvaluation(
            fraction=Fraction(best_num, best_den), types_at_max=ties,
            total_opacity=totals_list[current])
        return evaluations  # type: ignore[return-value]
