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
flipped cells — a vectorized bincount over the changed pairs' type
positions (:meth:`~repro.core.opacity.OpacityComputer.type_indices`); at
L = 1 a batched scan skips
the distance machinery entirely (a flipped cell is exactly an edited edge,
so the tally reduces to a bincount over the candidates' own edges).  The
session reproduces the
stateless evaluator *bit-identically*: the same ``Fraction`` maxima, the
same ``types_at_max`` tie-break counts, and (for GADED-Max) the same
float-summed total opacity, so a greedy run chooses the same edits as the
stateless evaluator would.

The paper's copy-evaluate-restore loop is the reference semantics: apply
the edit, run the stateless evaluator, revert.  The test suite keeps that
loop as a reference session and runs every algorithm on both.  A
tentative edit never touches the working graph here: candidate scans
read the distance store, the adjacency mirror and the session's arrays,
so nothing downstream can depend on how a scan ran.

Look-ahead levels go through :meth:`OpacitySession.score_combinations`,
which returns exact maxima and tie counts as arrays, summarized from the
types each combination changes (:meth:`~OpacitySession._summarize_changed`)
instead of a full count vector per candidate.  At L = 1 a combination's
count change is the sum of its members' own ±1 type hits, so a whole
level is scored from one index array over the candidates' type positions.

Whole candidate scans go through :meth:`OpacitySession.evaluate_edits`,
which stacks the distance deltas of all single-edge candidates into one
:meth:`~repro.graph.distance_delta.DistanceSession.preview_batch` pass and
tallies every candidate with a single grouped bincount — the ``"batched"``
scan mode of the algorithms (DESIGN.md §7), bit-identical to the
per-candidate loop.  The session also maintains the pruning pass's
within-L pairs incrementally (:meth:`violating_pair_indices`) as a sparse
sorted set of upper-triangle flat indices — O(within-L pairs), never an
``n(n-1)/2``-sized array, so the tiled tier's memory bound holds through
the pruning pass too.

Every per-step query a greedy loop makes is served from the session's
arrays: :meth:`OpacitySession.current` and :meth:`~OpacitySession.max_type_mask`
summarize the count vector, and :meth:`~OpacitySession.edge_endpoints`
reads a sorted edge array kept in step with :meth:`~OpacitySession.apply_edit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opacity import (
    OpacityComputer,
    OpacityResult,
    exact_ranks,
    row_maxima,
    summarize_counts,
)
from repro.errors import ConfigurationError, InvalidEdgeError
from repro.graph.distance_delta import DistanceDelta, DistanceSession
from repro.graph.distance_store import DenseStore, DistanceStore, StoreConfig
from repro.graph.graph import Edge, Graph

#: Valid values of the ``scan_mode`` knob: how the greedy algorithms walk a
#: step's candidate list — :meth:`OpacitySession.evaluate_edits` passes in
#: the calling process (``"batched"``), or those same passes sharded across
#: a persistent pool of scan workers over a shared-memory arena
#: (``"parallel"``, :mod:`repro.core.scan_pool`).  Both scan modes choose
#: bit-identical edits.
SCAN_MODES: Tuple[str, ...] = ("batched", "parallel")

#: One candidate edit: the removals and insertions applied together.
EditCandidate = Tuple[Sequence[Edge], Sequence[Edge]]

#: Cells per row chunk when a distance matrix is streamed into the sparse
#: within-L pair set (bounds the chunk's boolean temporaries to ~4 MiB).
_WITHIN_CHUNK_CELLS = 1 << 22


def _triu_flat(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Flat position of pair ``(i, j)``, ``i < j``, in ``triu_indices(n, 1)`` order.

    That is ``i·(2n−i−1)/2 + (j−i−1)``, folded to five array operations.
    """
    return i * (2 * n - 3 - i) // 2 + j - 1


@lru_cache(maxsize=8)
def _triu_row_starts(n: int) -> np.ndarray:
    """Flat position of each row's first pair ``(i, i + 1)`` (read-only)."""
    rows = np.arange(n, dtype=np.int64)
    starts = _triu_flat(rows, rows + 1, n)
    starts.setflags(write=False)
    return starts


def _triu_unflat(flat: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`_triu_flat`: a searchsorted over the row starts."""
    row_starts = _triu_row_starts(n)
    i = np.searchsorted(row_starts, flat, side="right") - 1
    return i, flat - row_starts[i] + i + 1


def _splice(kept: np.ndarray, slots: np.ndarray, added: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """Merge ``kept`` into ``slots`` and ``added`` into positions ``at``."""
    out = np.empty(slots.size, dtype=np.int64)
    out[slots] = kept
    out[at] = added
    return out


def _within_pair_set(store: DistanceStore, length: int) -> np.ndarray:
    """Sorted triu flat indices of the pairs ``i < j`` with ``D[i, j] <= length``.

    Streams ``store.row_blocks()`` in ascending row chunks of at most
    :data:`_WITHIN_CHUNK_CELLS` cells; ``nonzero`` walks each chunk
    row-major, so the concatenation is already sorted.
    """
    n = store.num_vertices
    step = max(1, _WITHIN_CHUNK_CELLS // max(1, n))
    parts = [np.empty(0, dtype=np.int64)]
    for start, stop in store.row_blocks():
        for low in range(start, stop, step):
            slab = store.rows(np.arange(low, min(low + step, stop)))
            rows, cols = np.nonzero(slab <= length)
            rows += low
            upper = cols > rows
            parts.append(_triu_flat(rows[upper], cols[upper], n))
    return np.concatenate(parts)


def validate_scan_mode(mode: str) -> None:
    """Raise :class:`ConfigurationError` unless ``mode`` is a known scan mode."""
    if mode not in SCAN_MODES:
        raise ConfigurationError(
            f"unknown scan_mode {mode!r}; available: {SCAN_MODES}")


@dataclass(frozen=True)
class EditEvaluation:
    """Outcome of one tentative edit — exactly what the candidate scans need.

    ``numerator / denominator`` is the exact ``maxLO`` after the edit, a
    reduced integer pair, so scans compare outcomes by cross-multiplication
    without building a ``Fraction`` per candidate.  ``total_opacity`` is the
    float sum of per-type opacities in typing order (GADED-Max's secondary
    objective), accumulated identically to the stateless evaluator's
    ``sum(entry.opacity for entry in per_type)``.
    """

    numerator: int
    denominator: int
    types_at_max: int
    total_opacity: float

    @property
    def fraction(self) -> Fraction:
        """``maxLO`` after the edit, as an exact fraction."""
        return Fraction(self.numerator, self.denominator)

    @property
    def max_opacity(self) -> float:
        """``maxLO`` after the edit, as a float."""
        return self.numerator / self.denominator


class OpacitySession:
    """Evaluate and apply edge edits against a working graph.

    All graph mutations of an anonymization run must go through
    :meth:`apply_edit` so the incremental state stays in sync; tentative
    candidates go through :meth:`evaluate_edit`, which leaves no trace.

    Parameters
    ----------
    computer:
        The stateless evaluator fixing typing and L.
    graph:
        The working graph (shared, not copied).
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
        tier-aware cache — adopted as the session's starting state so
        construction skips the from-scratch distance computation.  The
        session takes ownership of the payload.
    store_config:
        Scale-tier policy for a session that must compute its own
        distances (ignored when ``initial_distances`` is given).
    """

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 fallback_row_fraction: Optional[float] = None,
                 initial_distances: Optional[np.ndarray | DistanceStore] = None,
                 store_config: Optional[StoreConfig] = None,
                 scan_workers: int = 0) -> None:
        self._computer = computer
        self._graph = graph
        self._current: Optional[OpacityResult] = None
        self._max_mask: Optional[np.ndarray] = None
        # Lazy pruning-pass state: the sorted triu flat indices of the
        # within-L pairs, and the type position of each.
        self._within_flat: Optional[np.ndarray] = None
        self._within_types: Optional[np.ndarray] = None
        # Lazy sorted edge array (flat codes u·n + v, u < v) of the working
        # graph, and the type position of each edge.
        self._edge_codes: Optional[np.ndarray] = None
        self._edge_types: Optional[np.ndarray] = None
        # Lazy exact ordering of the current type ratios (_type_ranking).
        self._ranking: Optional[Tuple[np.ndarray, ...]] = None
        # Parallel-scan state: the pool is started lazily on the first
        # large-enough scan and torn down permanently on any failure.
        self._scan_workers = max(0, int(scan_workers))
        self._scan_pool = None
        self._scan_failed = False
        self.parallel_scans = 0
        self._distance = DistanceSession(
            graph, computer.length_threshold,
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
    def scan_workers(self) -> int:
        """The configured parallel-scan pool size (0 = serial scans)."""
        return self._scan_workers

    @property
    def scan_parallelism(self) -> int:
        """How many processes a candidate scan currently spans (>= 1)."""
        if self._scan_workers > 1 and not self._scan_failed \
                and self._computer.length_threshold > 1:
            return self._scan_workers
        return 1

    @property
    def fallback_row_fraction(self) -> float:
        """The distance session's effective fallback fraction (debug hook)."""
        return self._distance.fallback_row_fraction

    def distance_rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows.

        Columns follow by symmetry; this is the tier-independent way to
        read distances, sized to the store's tile budget.
        """
        return self._distance.rows(block)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def current(self) -> OpacityResult:
        """Full Algorithm 1 result for the current graph state.

        Summarized from the count arrays once per applied edit; the
        result's ``per_type`` entries are only built if a caller reads
        them.
        """
        return self._summary()[0]

    def max_type_mask(self) -> np.ndarray:
        """Read-only flags, in type order, of the types at the current maximum."""
        return self._summary()[1]

    def _summary(self) -> Tuple[OpacityResult, np.ndarray]:
        if self._current is None:
            self._current, self._max_mask = self._computer.summarize(
                self._withins.copy())
            self._max_mask.setflags(write=False)
        return self._current, self._max_mask

    def type_opacities(self) -> np.ndarray:
        """Current opacity of every type, in type order, as floats."""
        return self._withins / self._totals

    def edge_endpoints(self, type_mask: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """The working graph's edges as int64 ``(u, v)`` arrays, ``u < v``.

        In :meth:`Graph.edges` order (sorted), read from the session's edge
        array: seeded from the graph on first use and updated by
        :meth:`apply_edit`.  ``type_mask`` (a flag per type, in type order)
        keeps only the edges whose pair type is flagged.
        """
        if self._edge_codes is None:
            edges = np.array(list(self._graph.edges()),
                             dtype=np.int64).reshape(-1, 2)
            self._edge_codes = edges[:, 0] * self._graph.num_vertices + edges[:, 1]
            self._edge_types = self._computer.type_indices(edges[:, 0],
                                                           edges[:, 1])
        codes = self._edge_codes
        if type_mask is not None:
            codes = codes[np.append(type_mask, False)[self._edge_types]]
        return np.divmod(codes, self._graph.num_vertices)

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> EditEvaluation:
        """Opacity outcome after tentatively applying the edit (no trace left)."""
        delta = self._distance.preview(removals, insertions)
        changes = self._count_changes(delta)
        return self._summarize_batch([changes])[0]

    def evaluate_edits(self, candidates: Sequence[EditCandidate]) -> List[EditEvaluation]:
        """Outcomes of many *independent* tentative edits, batch-evaluated.

        Bit-identical to ``[self.evaluate_edit(r, i) for r, i in candidates]``
        — same ``Fraction`` maxima, tie counts and float totals — but a
        homogeneous scan of single-edge
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
        return self._summarize_batch(self._edit_changes(pairs))

    def score_combinations(self, endpoints: np.ndarray, members: np.ndarray,
                           kind: str
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact outcomes of a look-ahead level's combinations, as arrays.

        ``endpoints`` is an int64 ``(c, 2)`` array of candidate edges and
        each row of ``members`` names one combination by candidate index;
        ``kind`` is ``"remove"`` or ``"insert"``.  Returns the
        combinations' maxima as reduced ``(numerators, denominators)`` and
        their ``types_at_max`` — exactly what :meth:`evaluate_edits` would
        report for each combination, without the float total.

        At L = 1 an edit flips only its own cells, so a combination's count
        change is the sum of its members' ±1 hits on their types: the level
        is scored from the members' type positions alone.  At L >= 2 the
        combinations are previewed like :meth:`evaluate_edits` candidates.
        Either way the summary comes from the changed types only
        (:meth:`_summarize_changed`).
        """
        if self._computer.length_threshold == 1:
            # Look the candidates up once each, or only the members used
            # when the chunk names fewer cells than there are candidates.
            if len(endpoints) <= members.size:
                cells, at = endpoints, members
            else:
                cells = endpoints[members.ravel()]
                at = np.arange(members.size).reshape(members.shape)
            self._check_cells(cells[:, 0], cells[:, 1],
                              np.full(len(cells), kind == "insert"))
            types = self._computer.type_indices(cells[:, 0], cells[:, 1])[at]
            # A type hit by several members carries their summed change in
            # its first column; the repeats become padding.
            types = np.sort(types, axis=1)
            hits = (types[:, :, None] == types[:, None, :]).sum(axis=2)
            repeat = np.zeros(types.shape, dtype=bool)
            repeat[:, 1:] = types[:, 1:] == types[:, :-1]
            types[repeat] = self._totals.size
            return self._summarize_changed(
                types, hits if kind == "insert" else -hits)
        combos = [tuple(map(tuple, combo))
                  for combo in endpoints[members].tolist()]
        pairs = [((), combo) if kind == "insert" else (combo, ())
                 for combo in combos]
        return self._summarize_changed(
            *_change_matrix(self._edit_changes(pairs), self._totals.size))

    def _edit_changes(self, pairs: List[EditCandidate]
                      ) -> List[Dict[int, int]]:
        """Per-candidate count-change dicts, by the scan path ``pairs`` need."""
        if self._computer.length_threshold == 1:
            return self._l1_changes_batch(pairs)
        if self._use_parallel_scan(pairs):
            return self._parallel_changes(pairs)
        return self._collect_changes(pairs)

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
        return self._distance.take_observed_stats()

    def _collect_changes(self, pairs: List[EditCandidate]
                         ) -> List[Dict[int, int]]:
        # Deltas are consumed into (small) per-type change dicts group by
        # group, so peak retained memory is bounded by ~128 MB of delta
        # cells even when many removal candidates hit the from-scratch
        # fallback (each such delta holds a full n × n matrix); grouping
        # does not change the per-candidate math.
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
        canonical, shards preserve candidate order), and the workers'
        observed affected-row stats are folded into the parent's auto
        fallback fraction.
        """
        pool = self._ensure_scan_pool()
        if pool is not None:
            outcome = pool.scan(pairs)
            if outcome is not None:
                changes, stats = outcome
                for rows_total, candidates in stats:
                    self._distance.observe_affected_rows(rows_total,
                                                         candidates)
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
        self._distance.close()

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        """Permanently apply the edit, keeping all session state in sync."""
        # Two-phase: stage mutates the graph exactly once (removals, then
        # insertions), count deltas are diffed against the still-pre-edit
        # matrix, then the delta is folded in.
        delta = self._distance.stage(removals, insertions)
        if delta.from_scratch:
            changes = self._count_changes(delta)
            if self._within_flat is not None:
                length = self._computer.length_threshold
                self._set_within_pairs(_within_pair_set(
                    DenseStore(delta.new_rows, length), length))
        else:
            cells = self._flipped_cells(delta)
            changes = {} if cells is None else self._changes_from_cells(*cells)
            if self._within_flat is not None and cells is not None:
                self._fold_flipped_cells(*cells)
        self._distance.commit(delta)
        for index, change in changes.items():
            self._withins[index] += change
        self._current = None
        self._ranking = None
        if self._edge_codes is not None:
            self._fold_edges(removals, insertions)
        if self._scan_pool is not None \
                and not self._scan_pool.apply(removals, insertions):
            self._teardown_scan_pool(failed=True)

    def resync(self) -> None:
        """Rebuild all incremental state from scratch (testing / recovery)."""
        self._distance.refresh()
        self._init_counts()
        self._within_flat = None
        self._within_types = None
        self._edge_codes = None
        self._edge_types = None

    # ------------------------------------------------------------------
    # pruning support
    # ------------------------------------------------------------------
    def violating_pair_indices(self, type_mask: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Upper-triangle ``(i, j)`` pairs within L of the types ``type_mask`` flags.

        ``type_mask`` holds one flag per type, in type order — the pruning
        pass of the removal heuristics asks with :meth:`max_type_mask`
        every step.  The within-L pairs are kept as a sorted set of triu
        flat indices ``i·(2n−i−1)/2 + (j−i−1)`` with the type position of
        each alongside: seeded lazily on the first query by streaming the
        store's row blocks, then folded forward by each applied delta's
        flipped cells, so a query is one gather over the within-L pairs.
        The result is int64 ``(rows, cols)`` in ``np.triu_indices(n, 1)``
        order, and no state grows with ``n²``.
        """
        if self._within_flat is None:
            length = self._computer.length_threshold
            self._set_within_pairs(_within_pair_set(self._distance.store,
                                                    length))
        flagged = np.append(type_mask, False)[self._within_types]
        return _triu_unflat(self._within_flat[flagged],
                            self._graph.num_vertices)

    def _set_within_pairs(self, flat: np.ndarray) -> None:
        """Adopt ``flat`` as the within-L set, with its aligned type positions."""
        self._within_flat = flat
        self._within_types = self._computer.type_indices(
            *_triu_unflat(flat, self._graph.num_vertices))

    def _fold_edges(self, removals: Sequence[Edge],
                    insertions: Sequence[Edge]) -> None:
        """Fold one applied edit into the sorted edge array and its types."""
        n = self._graph.num_vertices
        codes, types = self._edge_codes, self._edge_types
        if removals:
            gone = np.array([min(u, v) * n + max(u, v) for u, v in removals],
                            dtype=np.int64)
            keep = np.ones(codes.size, dtype=bool)
            keep[np.searchsorted(codes, gone)] = False
            codes, types = codes[keep], types[keep]
        if insertions:
            added = np.sort(np.array(
                [min(u, v) * n + max(u, v) for u, v in insertions],
                dtype=np.int64))
            at = np.searchsorted(codes, added)
            codes = np.insert(codes, at, added)
            types = np.insert(types, at,
                              self._computer.type_indices(*np.divmod(added, n)))
        self._edge_codes, self._edge_types = codes, types

    def _fold_flipped_cells(self, row_idx: np.ndarray, col_idx: np.ndarray,
                            gained: np.ndarray) -> None:
        """Fold one applied delta's flipped cells into the within-L set.

        ``_flipped_cells`` yields one cell per pair, so every lost pair is
        in the set and every gained one is not: a searchsorted locates
        both, a keep mask drops the lost ones and one slot mask splices the
        gained ones in, for the set and its type positions alike, without
        re-sorting either.  A removal-only step never reaches the splice.
        """
        i = np.minimum(row_idx, col_idx)
        j = np.maximum(row_idx, col_idx)
        flat = _triu_flat(i, j, self._graph.num_vertices)
        within, types = self._within_flat, self._within_types
        lost = flat[~gained]
        if lost.size:
            keep = np.ones(within.size, dtype=bool)
            keep[np.searchsorted(within, lost)] = False
            within, types = within[keep], types[keep]
        if gained.any():
            order = np.argsort(flat[gained])
            added = flat[gained][order]
            at = np.searchsorted(within, added) + np.arange(added.size)
            slots = np.ones(within.size + added.size, dtype=bool)
            slots[at] = False
            within = _splice(within, slots, added, at)
            types = _splice(types, slots, self._computer.type_indices(
                i[gained][order], j[gained][order]), at)
        self._within_flat, self._within_types = within, types

    # ------------------------------------------------------------------
    # incremental machinery
    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        store = self._distance.store
        self._withins = self._computer.within_counts(
            store.array if isinstance(store, DenseStore) else store)
        self._totals = self._computer.type_order[1]
        self._current = None
        self._ranking = None

    def _l1_changes_batch(self, pairs: List[Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]]
                          ) -> List[Dict[int, int]]:
        """Per-candidate count changes at L = 1, no distance delta needed.

        At L = 1 the within-L pairs are exactly the edges, so a removal
        flips exactly its own cell from within-L to outside and an
        insertion the reverse: a candidate's flipped cells are its edited
        edges themselves.  Every candidate's edges are stacked with their
        candidate index and gained flag and tallied in one grouped count
        (:meth:`_tally_cells`).
        """
        edges: List[Edge] = []
        gained: List[bool] = []
        sizes: List[int] = []
        for removals, insertions in pairs:
            edges.extend(removals)
            edges.extend(insertions)
            gained.extend([False] * len(removals) + [True] * len(insertions))
            sizes.append(len(removals) + len(insertions))
        cells = np.array(edges, dtype=np.int64).reshape(-1, 2)
        gained = np.array(gained, dtype=bool)
        self._check_cells(cells[:, 0], cells[:, 1], gained)
        candidate = np.repeat(np.arange(len(pairs)), sizes)
        return self._tally_cells(len(pairs), candidate, cells[:, 0],
                                 cells[:, 1], gained)

    def _check_cells(self, first: np.ndarray, second: np.ndarray,
                     gained: np.ndarray) -> None:
        """Raise :class:`InvalidEdgeError` unless every L = 1 edit is valid.

        A removed pair must be an edge of the working graph and an
        inserted one must not, each judged against the current graph; the
        lookup is one binary search over the sorted edge array.
        """
        self.edge_endpoints()
        codes = self._edge_codes
        n = self._graph.num_vertices
        wanted = np.minimum(first, second) * n + np.maximum(first, second)
        at = np.searchsorted(codes, wanted).clip(max=max(codes.size - 1, 0))
        present = codes[at] == wanted if codes.size else np.zeros(wanted.size, bool)
        wrong = np.flatnonzero(present == gained)
        if wrong.size:
            index = wrong[0]
            state = "already present" if gained[index] else "not present"
            raise InvalidEdgeError(
                f"edge ({first[index]}, {second[index]}) {state}")

    def _count_changes(self, delta: DistanceDelta) -> Dict[int, int]:
        """Per-type within-L count deltas implied by a distance delta.

        Returns a mapping from type *index* (position in the frozen typing
        order) to the signed change of its within-L pair count.
        """
        if delta.rows.size == 0:
            return {}
        if delta.from_scratch:
            net = self._computer.within_counts(delta.new_rows) - self._withins
            changed = np.nonzero(net)[0]
            return dict(zip(changed.tolist(), net[changed].tolist()))
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
        return self._tally_cells(1, np.zeros(row_idx.size, dtype=np.int64),
                                 row_idx, col_idx, gained)[0]

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
        from-scratch fallbacks take the per-candidate path.
        """
        changes_list: List[Optional[Dict[int, int]]] = [None] * len(deltas)
        stacked: List[Tuple[int, DistanceDelta]] = []
        for position, delta in enumerate(deltas):
            if delta is None or delta.rows.size == 0:
                changes_list[position] = {}
            elif delta.from_scratch:
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
        type positions go through one ``np.unique`` and one grouped
        ``bincount`` over ``(candidate, type, sign)``; entry ``c`` of the
        result holds the net change of every type candidate ``c``'s cells
        touch (a gain and a loss of the same type net to no entry, and
        untyped pairs count for nothing).
        """
        changes_list: List[Dict[int, int]] = [{} for _ in range(count)]
        if row_idx.size == 0:
            return changes_list
        types, inverse = np.unique(
            self._computer.type_indices(row_idx, col_idx), return_inverse=True)
        grouped = (candidate * types.size + inverse) * 2 + gained.astype(np.int64)
        counts = np.bincount(grouped, minlength=count * types.size * 2)
        net = counts.reshape(count, types.size, 2)
        net = net[:, :, 1].astype(np.int64) - net[:, :, 0]
        untyped = self._totals.size
        positions, type_positions = np.nonzero(net)
        for position, index, change in zip(positions.tolist(),
                                           types[type_positions].tolist(),
                                           net[positions, type_positions].tolist()):
            if index != untyped:
                changes_list[position][index] = change
        return changes_list

    def _summarize_batch(self, changes_list: List[Dict[int, int]]
                         ) -> List[EditEvaluation]:
        """Exact max, tie count and float total of every candidate's counts.

        The dense path, for the float total only GADED-Max reads: the base
        counts are tiled once per candidate, each row gets its candidate's
        changes, and :func:`~repro.core.opacity.summarize_counts` — the
        summarizer :meth:`current` and the stateless evaluator use too —
        scans all rows at once.
        """
        if not changes_list:
            return []
        withins = np.tile(self._withins, (len(changes_list), 1))
        for row, changes in enumerate(changes_list):
            for index, change in changes.items():
                withins[row, index] += change
        nums, dens, at_max, sums = summarize_counts(withins, self._totals)
        return [EditEvaluation(numerator=num, denominator=den,
                               types_at_max=ties, total_opacity=total)
                for num, den, ties, total in zip(
                    nums.tolist(), dens.tolist(),
                    at_max.sum(axis=1).tolist(), sums)]

    def _type_ranking(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The current type ratios in exact descending order, built once per state.

        Returns ``(order, rank, group, group_size)``: type positions by
        descending ratio, each type's place in that order, the index of its
        exact-ratio group (0 = the maximum) and the size of every group.
        """
        if self._ranking is None:
            ranks = exact_ranks(self._withins, self._totals)
            group = ranks.max(initial=0) - ranks
            order = np.argsort(group, kind="stable")
            rank = np.empty(order.size, dtype=np.int64)
            rank[order] = np.arange(order.size)
            self._ranking = (order, rank, group, np.bincount(group))
        return self._ranking

    def _summarize_changed(self, types: np.ndarray, deltas: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact max and tie count of every candidate, from the types it changes.

        Row ``c`` of the ``(candidates, k)`` matrices lists candidate
        ``c``'s distinct changed type positions and their count changes;
        padding entries hold the number of types.  The maximum after an edit is
        the larger of the changed types' new ratios and the best
        *untouched* ratio: the first type of the step's exact descending
        order (:meth:`_type_ranking`) the candidate does not touch, found
        as the smallest order position missing from its touched ones.  The
        untouched types at that ratio are its exact-ratio group less the
        touched members of the group.  Memory is O(candidates × k), never
        candidates × types.
        """
        size = self._totals.size
        count, width = types.shape
        if size == 0:
            empty = np.zeros(count, dtype=np.int64)
            return empty, empty + 1, empty
        order, rank, group, group_size = self._type_ranking()
        touched = types < size
        safe = np.where(touched, types, 0)
        # Sorted touched places; the first place j not held is the first
        # untouched type in the order (k + 1 probes at most).
        places = np.sort(np.where(touched, rank[safe], size), axis=1)
        held = (places == np.arange(width)).cumprod(axis=1).sum(axis=1)
        untouched = order[np.minimum(held, size - 1)]
        exists = held < size
        nums = np.empty((count, width + 1), dtype=np.int64)
        dens = np.ones((count, width + 1), dtype=np.int64)
        nums[:, :width] = np.where(touched, self._withins[safe] + deltas, -1)
        dens[:, :width] = np.where(touched, self._totals[safe], 1)
        nums[:, width] = np.where(exists, self._withins[untouched], -1)
        dens[:, width] = np.where(exists, self._totals[untouched], 1)
        # Weight of each column at the maximum: one per touched type, and
        # the untouched group's size for the untouched column.
        same_group = touched & (group[safe] == group[untouched][:, None])
        weights = np.empty((count, width + 1), dtype=np.int64)
        weights[:, :width] = touched
        weights[:, width] = np.where(
            exists, group_size[group[untouched]] - same_group.sum(axis=1), 0)
        best_num, best_den, at_max = row_maxima(nums, dens)
        return best_num, best_den, (at_max * weights).sum(axis=1)


def _change_matrix(changes_list: List[Dict[int, int]], padding: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-candidate change dicts as padded ``(types, deltas)`` matrices."""
    sizes = np.fromiter(map(len, changes_list), dtype=np.int64,
                        count=len(changes_list))
    width = int(sizes.max(initial=0))
    rows = np.repeat(np.arange(sizes.size), sizes)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    types = np.full((sizes.size, width), padding, dtype=np.int64)
    deltas = np.zeros((sizes.size, width), dtype=np.int64)
    types[rows, cols] = [index for changes in changes_list for index in changes]
    deltas[rows, cols] = [change for changes in changes_list
                          for change in changes.values()]
    return types, deltas
