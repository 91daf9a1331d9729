"""Stateful, delta-evaluated opacity sessions.

:class:`repro.core.opacity.OpacityComputer` stays the stateless Algorithm 1
evaluator; :class:`OpacitySession` adds the state the candidate scans need
to answer "what would ``maxLO`` be after this edit?" thousands of times per
greedy step without a from-scratch recount.

A session owns a working graph together with

* the per-type within-L counts of the *current* graph, kept in the frozen
  typing's iteration order, and
* at L >= 3, a :class:`repro.graph.distance_delta.DistanceSession`
  maintaining the L-bounded distance matrix.  At L = 1 the within-L pairs
  are the edges, so the session keeps only its sorted edge array: no
  distance store and no adjacency mirror.  At L = 2 the store serves only
  the opening count; afterwards the common-neighbour counts of
  :class:`~repro.graph.two_hop.TwoHopCounts` are the state of record,
  in triu planes where they fit the scale budget (with a pair-type plane
  beside them), in sorted codes otherwise.

A tentative or applied edit then costs one distance delta plus a count
delta over the flipped cells, tallied by their type positions
(:meth:`~repro.core.opacity.OpacityComputer.type_indices`); at L = 1 it
skips the distance machinery entirely, since a flipped cell is exactly
an edited edge, and at L = 2 it reads the common-neighbour counts of
:class:`~repro.graph.two_hop.TwoHopCounts` instead of distance rows.  The
session reproduces the stateless evaluator *bit-identically*: the same
``Fraction`` maxima and the same ``types_at_max`` tie-break counts, so a
greedy run chooses the same edits as the stateless evaluator would.

The paper's copy-evaluate-restore loop is the reference semantics: apply
the edit, run the stateless evaluator, revert.  The test suite keeps that
loop as a reference session and runs every algorithm on both.  A
tentative edit never touches the working graph here: candidate scans
read the distance store, the adjacency mirror, the common-neighbour
counts and the session's arrays, so nothing downstream can depend on how
a scan ran.

Every candidate scan goes through :meth:`OpacitySession.score_combinations`:
rows of candidate indices with one insertion flag per member, scored to
exact maxima and tie counts as arrays.  Look-ahead levels, GADES swaps and
GADED removals are such rows; :meth:`OpacitySession.evaluate_edits` is the
adapter for ``(removals, insertions)`` tuples.  Each batch is checked
once, at every L, by the rule of applying its candidates edit by edit
(:meth:`~OpacitySession._check_cells`), and only its live members reach
the scan of their L, as arrays.  At every L the candidates'
changes are one sparse form, :data:`Changes`: int64 ``(candidate, type,
delta)`` triples, sorted, one per type a candidate's edit changes; the
summary comes from those types only, by 1-D grouped operations
(:meth:`~OpacitySession._summarize_changed`).  At L = 1 a candidate's
flipped pairs are its live members' own pairs.  At L = 2 a pair is within
reach exactly when it is an edge or has a common neighbour, so a
candidate's flipped pairs follow from the 2-paths its members break or
create (:mod:`repro.graph.two_hop`), with no distance slab.  At L >= 3
every candidate of one live member is stacked into one
:meth:`~repro.graph.distance_delta.DistanceSession.preview_batch` pass;
only wider candidates are previewed one by one.  Every candidate's
flipped cells are tallied with one grouped count, whose groups are the
triples.  The session also maintains the pruning pass's within-L pairs
incrementally (:meth:`violating_pair_indices`) as a sparse
sorted set of upper-triangle flat indices — O(within-L pairs), never an
``n(n-1)/2``-sized array, so the tiled tier's memory bound holds through
the pruning pass too; only an L = 2 session on planes, which are
``n(n-1)/2``-sized already, scans its count plane instead.

Every per-step query a greedy loop makes is served from the session's
arrays: :meth:`OpacitySession.current` and :meth:`~OpacitySession.max_type_mask`
summarize the count vector, and :meth:`~OpacitySession.edge_endpoints`
reads a sorted edge array kept in step with :meth:`~OpacitySession.apply_edit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opacity import (
    OpacityComputer,
    OpacityResult,
    exact_ranks,
    group_maxima,
)
from repro.graph.distance_delta import DistanceDelta, DistanceSession
from repro.graph.distance_store import DistanceStore, StoreConfig
from repro.graph.graph import Edge, Graph, splice, validate_members
from repro.graph.matrices import block_within_pairs
from repro.graph.two_hop import (
    TwoHopCounts,
    group_sums,
    state_dtype,
    triu_flat,
    triu_unflat,
)

#: One candidate edit: the removals and insertions applied together.
EditCandidate = Tuple[Sequence[Edge], Sequence[Edge]]

#: Cells per row chunk when a distance matrix is streamed into the sparse
#: within-L pair set (bounds the chunk's boolean temporaries to ~4 MiB).
_WITHIN_CHUNK_CELLS = 1 << 22


def _planes_fit(config: StoreConfig, n: int, num_types: int) -> bool:
    """Whether an L = 2 session keeps its state in triu planes.

    The count plane (:func:`~repro.graph.two_hop.state_dtype`) and the
    pair-type plane (positions ``0..num_types``) take ``n(n−1)/2`` entries
    each; they are taken when both fit ``config.budget_bytes`` and the
    tier is not ``tiled``.
    """
    if config.tier == "tiled":
        return False
    entry = state_dtype(n).itemsize + _type_plane_dtype(num_types).itemsize
    return n * (n - 1) // 2 * entry <= config.budget_bytes


def _type_plane_dtype(num_types: int) -> np.dtype:
    """The narrowest unsigned dtype of a stored type position plus one.

    Positions run to ``num_types`` (untyped pairs) and 0 marks a pair not
    typed yet, so the largest stored value is ``num_types + 1``.
    """
    return np.min_scalar_type(num_types + 1)


def _within_pair_set(store: DistanceStore, length: int) -> np.ndarray:
    """Sorted triu flat indices of the pairs ``i < j`` with ``D[i, j] <= length``.

    Streams ``store.blocks()`` in place, in ascending row chunks of at
    most :data:`_WITHIN_CHUNK_CELLS` cells; :func:`block_within_pairs`
    walks each chunk row-major, so the concatenation is already sorted.
    """
    n = store.num_vertices
    step = max(1, _WITHIN_CHUNK_CELLS // max(1, n))
    parts = [np.empty(0, dtype=np.int64)]
    for start, slab in store.blocks():
        for low in range(0, len(slab), step):
            parts.append(triu_flat(*block_within_pairs(
                slab[low:low + step], start + low, length), n))
    return np.concatenate(parts)


@dataclass
class CandidateOutcome:
    """Evaluation of one candidate edge combination.

    ``numerator / denominator`` is the exact maximum opacity after applying
    the candidate, a reduced integer pair, so scans compare outcomes by
    cross-multiplication without building a ``Fraction`` per candidate.
    """

    edges: Tuple[Edge, ...]
    numerator: int
    denominator: int
    types_at_max: int

    @property
    def fraction(self) -> Fraction:
        """Maximum opacity after applying this candidate, exactly."""
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class ScoredBatch:
    """Outcomes of consecutive candidates, as aligned arrays.

    Entry ``i`` is the :class:`CandidateOutcome` of ``candidates[i]`` (an
    edge tuple), built only by :meth:`outcome`.
    """

    candidates: Sequence[Tuple[Edge, ...]]
    numerators: np.ndarray
    denominators: np.ndarray
    types_at_max: np.ndarray

    def __len__(self) -> int:
        return len(self.numerators)

    def outcome(self, index: int) -> CandidateOutcome:
        """The outcome of candidate ``index``."""
        return CandidateOutcome(edges=tuple(self.candidates[index]),
                                numerator=int(self.numerators[index]),
                                denominator=int(self.denominators[index]),
                                types_at_max=int(self.types_at_max[index]))

    def head(self, count: int) -> "ScoredBatch":
        """The first ``count`` outcomes."""
        return ScoredBatch(self.candidates[:count], self.numerators[:count],
                           self.denominators[:count],
                           self.types_at_max[:count])


#: Per-candidate count changes: int64 ``(candidate, type, delta)`` triples,
#: sorted by candidate then type position.  A candidate has one triple per
#: type whose within-L count its edit changes (a nonzero net change over
#: typed pairs), and none when it changes nothing.
Changes = Tuple[np.ndarray, np.ndarray, np.ndarray]


def own_cells(endpoints: np.ndarray, members: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The cells a batch's ``members`` name, and ``members`` renumbered to them.

    A batch that names fewer cells than ``endpoints`` holds (a chunk or a
    shard of a larger level) keeps only its members' own cells, one per
    member in row-major order; padding stays at -1 (reading the last cell,
    unused).  A batch that names as many or more is returned as it is.
    """
    if len(endpoints) <= members.size:
        return endpoints, members
    return (endpoints[members.ravel()],
            np.where(members < 0, -1,
                     np.arange(members.size).reshape(members.shape)))


def join_changes(parts: Sequence[Tuple[int, Changes]]) -> Changes:
    """Consecutive chunks' changes as one triple set, in chunk order.

    Each part is ``(first, changes)``: the changes of the candidates
    ``first, first + 1, ...``, numbered from 0 within the chunk.
    """
    if not parts:
        return (np.empty(0, dtype=np.int64),) * 3
    return (np.concatenate([first + candidate
                            for first, (candidate, _, _) in parts]),
            np.concatenate([types for _, (_, types, _) in parts]),
            np.concatenate([deltas for _, (_, _, deltas) in parts]))


class OpacitySession:
    """Evaluate and apply edge edits against a working graph.

    All graph mutations of an anonymization run must go through
    :meth:`apply_edit` so the incremental state stays in sync; tentative
    candidates are scored by :meth:`score_combinations`, which leaves no
    trace (:meth:`evaluate_edit` and :meth:`evaluate_edits` are its
    adapters for ``(removals, insertions)`` tuples).

    The state of record depends on L: the edge set at L = 1, the
    common-neighbour counts (:class:`~repro.graph.two_hop.TwoHopCounts`)
    at L = 2 — in triu planes or sorted codes, as ``store_config``
    decides — and the L-bounded distance store at L >= 3.

    Parameters
    ----------
    computer:
        The stateless evaluator fixing typing and L.
    graph:
        The working graph (shared, not copied).
    scan_workers:
        Size of the scan pool, as resolved by
        :func:`repro.core.scan_pool.resolve_scan_workers`.  With a value
        >= 2, :meth:`score_combinations` shards each L >= 3 scan wider than
        the pool across that many worker processes, each a forked copy of
        this session; 0 or 1 keeps
        every scan serial, and so does L <= 2, where scans compose from
        type positions or common-neighbour counts.  Any pool failure falls
        back to the serial scan permanently — results are bit-identical
        either way.
    initial_distances:
        Optional precomputed L-bounded distance matrix of ``graph`` (a
        thresholded slice of a grid sample's dense
        :class:`~repro.graph.distance_cache.LMaxDistanceCache`), adopted
        as the session's starting state so construction skips the
        from-scratch distance computation.  The session takes ownership
        of the matrix.  On the tiled tier no matrix is given: the session
        computes its own tiles at its own L.  An L = 1 session keeps
        no distances and ignores it; an L = 2 session reads only its
        opening count from it and then releases it.
    store_config:
        Scale-tier policy for a session that must compute its own
        distances (ignored for that when ``initial_distances`` is given,
        and at L = 1; at L = 2 the store it picks serves only the opening
        count).  At L = 2 it also picks where the common-neighbour counts
        live: in triu planes of ``n(n-1)/2`` entries — the packed count
        states and, beside them, the pair-type positions — when both fit
        ``budget_bytes`` and the tier is not ``tiled``, so that every
        lookup is one gather; in sorted codes, which hold no ``n²``
        array, otherwise.  ``None`` means the default
        :class:`~repro.graph.distance_store.StoreConfig`.
    """

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 initial_distances: Optional[np.ndarray] = None,
                 store_config: Optional[StoreConfig] = None,
                 scan_workers: int = 0) -> None:
        self._computer = computer
        self._graph = graph
        self._current: Optional[OpacityResult] = None
        self._max_mask: Optional[np.ndarray] = None
        # Lazy pruning-pass state: the sorted triu flat indices of the
        # within-L pairs (kept at L >= 3 only: at L = 2 they are the
        # common-neighbour counts' own codes), and the type position of each.
        self._within_flat: Optional[np.ndarray] = None
        self._within_types: Optional[np.ndarray] = None
        # Lazy type position of each edge of the working graph, aligned
        # with the graph's sorted edge snapshot (Graph.edge_codes).
        self._edge_types: Optional[np.ndarray] = None
        # Lazy exact ordering of the current type ratios (_type_ranking).
        self._ranking: Optional[Tuple[np.ndarray, ...]] = None
        # Parallel-scan state: the pool is started lazily on the first
        # large-enough scan and torn down permanently on any failure.
        self._scan_workers = max(0, int(scan_workers))
        self._scan_pool = None
        self._scan_failed = False
        self.parallel_scans = 0
        # At L = 1 the within-L pairs are the edges: no distance store.
        self._distance = (DistanceSession(
            graph, computer.length_threshold,
            initial_distances=initial_distances,
            store_config=store_config)
            if computer.length_threshold > 1 else None)
        self._two_hop: Optional[TwoHopCounts] = None
        # One more than the type position of every pair, by triu flat
        # code, 0 until the pair is first read (L = 2 planes only).
        self._type_plane: Optional[np.ndarray] = None
        self._init_counts()
        if computer.length_threshold == 2:
            # The store served the opening count only; nothing reads it
            # again at L = 2, where scans and edits run on the
            # common-neighbour counts alone.
            self._distance.close()
            self._distance = None
            plane = _planes_fit(store_config or StoreConfig(),
                                graph.num_vertices, self._totals.size)
            self._two_hop = TwoHopCounts(graph, plane=plane)
            if plane:
                self._type_plane = np.zeros(
                    graph.num_vertices * (graph.num_vertices - 1) // 2,
                    dtype=_type_plane_dtype(self._totals.size))

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
                and self._computer.length_threshold > 2:
            return self._scan_workers
        return 1

    def distance_rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows (L >= 3 sessions only).

        Columns follow by symmetry; this is the tier-independent way to
        read distances, sized to the store's tile budget.  An L <= 2
        session keeps no distances.
        """
        if self._distance is None:
            raise ValueError("distance_rows needs an L >= 3 session, not "
                             f"L = {self._computer.length_threshold}")
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

    def type_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current within-L count and pair count of every type, in type order.

        The session's live int64 arrays: read them before the next
        :meth:`apply_edit`, and do not write to them.
        """
        return self._withins, self._totals

    def edge_endpoints(self, type_mask: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """The working graph's edges as int64 ``(u, v)`` arrays, ``u < v``.

        In :meth:`Graph.edges` order (sorted), read from the graph's edge
        snapshot (:meth:`Graph.edge_array`), which :meth:`apply_edit`
        carries forward; read-only.  ``type_mask`` (a flag per type, in type
        order) keeps only the edges whose pair type is flagged, by the type
        positions the session keeps aligned with the snapshot.  Only a
        masked query types the edges; the session then carries the types
        across every applied edit.
        """
        edges = self._graph.edge_array()
        if type_mask is not None:
            # ``np.compress`` selects whole rows several times faster than
            # a boolean row index into an (m, 2) array.
            edges = np.compress(np.append(type_mask, False)[self._typed_edges()],
                                edges, axis=0)
        return edges[:, 0], edges[:, 1]

    def _typed_edges(self) -> np.ndarray:
        """The type position of each edge, aligned with the graph's snapshot."""
        if self._edge_types is None:
            edges = self._graph.edge_array()
            self._edge_types = self._computer.type_indices(edges[:, 0],
                                                           edges[:, 1])
        return self._edge_types

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> CandidateOutcome:
        """Opacity outcome after tentatively applying the edit (no trace left)."""
        return self.evaluate_edits([(removals, insertions)]).outcome(0)

    def evaluate_edits(self, candidates: Sequence[EditCandidate]) -> ScoredBatch:
        """Outcomes of many *independent* tentative edits, as one batch.

        The adapter from ``(removals, insertions)`` tuples to
        :meth:`score_combinations`: every candidate's edges are stacked
        into one cell array and each candidate becomes a row naming its
        cells, removals first, padded to the widest row (the empty edit
        ``((), ())`` is a row of padding).  Entry ``i`` of the result
        scores ``candidates[i]``, whose edges are its removals then its
        insertions.
        """
        edits = [(tuple(removals), tuple(insertions))
                 for removals, insertions in candidates]
        sizes = np.array([len(removals) + len(insertions)
                          for removals, insertions in edits], dtype=np.int64)
        owners = np.repeat(np.arange(len(edits)), sizes)
        columns = np.arange(owners.size) - np.repeat(np.cumsum(sizes) - sizes,
                                                     sizes)
        members = np.full((len(edits), int(sizes.max(initial=0))), -1,
                          dtype=np.int64)
        gained = np.zeros(members.shape, dtype=bool)
        members[owners, columns] = np.arange(owners.size)
        gained[owners, columns] = [flag for removals, insertions in edits
                                   for flag in [False] * len(removals)
                                   + [True] * len(insertions)]
        cells = np.array([edge for removals, insertions in edits
                          for edge in removals + insertions],
                         dtype=np.int64).reshape(-1, 2)
        return ScoredBatch([removals + insertions for removals, insertions in edits],
                           *self.score_combinations(cells, members, gained))

    def score_combinations(self, endpoints: np.ndarray, members: np.ndarray,
                           gained: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact outcomes of a batch of candidates, as arrays.

        ``endpoints`` is an int64 ``(c, 2)`` array of edges and each row of
        ``members`` names one candidate by edge index; a negative index is
        padding.  ``gained`` flags each member as an insertion (True) or a
        removal; it broadcasts against ``members``, so a look-ahead level
        passes one flag per column and a GADES swap row of four members
        ``[False, False, True, True]``.  Every member edit is judged
        against the current graph.  Returns the candidates' maxima as
        reduced ``(numerators, denominators)`` and their ``types_at_max``.

        A batch reads only its members' own cells (:func:`own_cells`) and
        is checked once (:meth:`_check_cells`); its live members go on, as
        arrays, to the changes of their L:
        at L = 1 an edit flips only its own pair (:meth:`_edge_changes`);
        at L = 2 the flipped pairs come from the common-neighbour counts
        (:meth:`_two_hop_changes`); at L >= 3 the candidates are previewed
        (:meth:`_scan_changes`).  In every case the candidates' changes
        are :data:`Changes` triples, and the summary comes from the
        changed types only (:meth:`_summarize_changed`).
        """
        count = len(members)
        endpoints, members = own_cells(endpoints, members)
        gained = np.broadcast_to(gained, members.shape)
        members = np.where(self._check_cells(endpoints, members, gained),
                           members, -1)
        if self._computer.length_threshold == 1:
            changes = self._edge_changes(endpoints, members, gained)
        elif self._two_hop is not None:
            changes = self._two_hop_changes(endpoints, members, gained)
        else:
            changes = self._scan_changes(endpoints, members, gained)
        return self._summarize_changed(count, *changes)

    def _edge_changes(self, endpoints: np.ndarray, members: np.ndarray,
                      gained: np.ndarray) -> Changes:
        """Per-candidate count changes at L = 1: each live member's own pair.

        An insertion gains its pair and a removal loses it.
        """
        candidate, column = np.nonzero(members >= 0)
        # Only live members' cells are read: the clip keeps a cell no member
        # names, which was never checked, from indexing past the typing.
        cells = np.clip(endpoints, 0, self._graph.num_vertices - 1)
        types = self._computer.type_indices(cells[:, 0], cells[:, 1])
        return self._tally_cells(candidate, types[members[candidate, column]],
                                 gained[candidate, column])

    def _two_hop_changes(self, endpoints: np.ndarray, members: np.ndarray,
                         gained: np.ndarray) -> Changes:
        """Per-candidate count changes at L = 2, from the common-neighbour counts.

        :meth:`TwoHopCounts.flips` yields each footprint-sized chunk's
        flipped pairs; each chunk is tallied alone and the chunks' triples
        are joined in candidate order.
        """
        return join_changes([
            (start, self._tally_cells(owner, self._pair_types(flat),
                                      now_within))
            for start, _, owner, flat, now_within
            in self._two_hop.flips(endpoints, members, gained)])

    def collect_edit_changes(self, endpoints: np.ndarray, members: np.ndarray,
                             gained: np.ndarray) -> Changes:
        """Per-candidate count changes of a shard (scan-pool workers).

        The worker-side half of the parallel scan: exactly the serial
        :meth:`_collect_changes` against this session's state, returning
        the shard's triples, numbered from 0, for the parent to join.
        """
        return self._collect_changes(endpoints, members, gained)

    def _collect_changes(self, endpoints: np.ndarray, members: np.ndarray,
                         gained: np.ndarray) -> Changes:
        # Deltas are consumed into (small) triple sets group by group, so
        # peak retained memory is bounded by ~128 MB of delta cells even
        # in the worst case, where every candidate's affected rows span the
        # whole vertex set (an n × n slab each); grouping does not change
        # the per-candidate math.
        n = self._graph.num_vertices
        group = max(1, (1 << 25) // max(1, n * n))
        return join_changes([
            (start, self._count_changes_batch(self._row_deltas(
                endpoints, members[start:start + group],
                gained[start:start + group])))
            for start in range(0, len(members), group)])

    # ------------------------------------------------------------------
    # parallel scan machinery
    # ------------------------------------------------------------------
    def _ensure_scan_pool(self):
        if self._scan_pool is None and not self._scan_failed:
            from repro.core.scan_pool import ScanPool

            self._scan_pool = ScanPool.start(self, self._scan_workers)
            if self._scan_pool is None:
                self._scan_failed = True
        return self._scan_pool

    def privatize_store(self) -> None:
        """Give this (forked) process a tiled store of its own.

        Scan-pool workers call it first thing: see
        :meth:`DistanceSession.privatize_store`.
        """
        if self._distance is not None:
            self._distance.privatize_store()

    def _scan_changes(self, endpoints: np.ndarray, members: np.ndarray,
                      gained: np.ndarray) -> Changes:
        """Per-candidate count changes at L >= 3, sharded when a pool pays.

        A scan wider than the pool goes to the workers; any pool failure
        falls back to the serial scan permanently.  On success the shards'
        triples, joined in candidate order, are exactly what
        :meth:`_collect_changes` would have produced (distance values are
        canonical, shards preserve candidate order).
        """
        pool = None
        if self._scan_workers > 1 and len(members) > self._scan_workers:
            pool = self._ensure_scan_pool()
        if pool is not None:
            parts = pool.scan(endpoints, members, gained)
            if parts is not None:
                self.parallel_scans += 1
                return join_changes(parts)
            self._teardown_scan_pool(failed=True)
        return self._collect_changes(endpoints, members, gained)

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
        """Permanently apply the edit, keeping all session state in sync.

        The graph takes the edit through :meth:`Graph.edit` (at L >= 3 by
        way of :meth:`DistanceSession.stage`), which validates it first
        and carries the graph's edge snapshot forward.  At L <= 2 the
        flipped pairs are the edit's own pairs (L = 1) or come from the
        common-neighbour counts (L = 2).
        """
        before = self._graph.edge_codes() if self._edge_types is not None else None
        if self._distance is None:
            removals, insertions = self._graph.edit(removals, insertions)
            if self._two_hop is not None:
                flat, now_within, gone, spot = self._two_hop.apply(
                    removals, insertions)
                types = self._pair_types(flat)
                if self._within_types is not None:
                    # The counts' sorted codes moved by ``gone``/``spot``;
                    # their type positions follow.
                    self._within_types = splice(
                        self._within_types, gone, spot, types[now_within])
            else:
                flat, now_within = self._edge_flips(removals, insertions)
                types = self._pair_types(flat)
        else:
            # Two-phase: stage mutates the graph exactly once (removals,
            # then insertions), count deltas are diffed against the
            # still-pre-edit matrix, then the delta is folded in.
            delta = self._distance.stage(removals, insertions)
            removals, insertions = delta.removals, delta.insertions
            _, rows, cols, now_within = self._flipped_cells([delta])
            self._distance.commit(delta)
            types = self._computer.type_indices(rows, cols)
            if self._within_flat is not None:
                self._fold_flipped_cells(rows, cols, now_within)
        # Each flipped pair is listed once: its type gains or loses one.
        typed = types < self._totals.size
        np.add.at(self._withins, types[typed], np.where(now_within[typed], 1, -1))
        self._current = None
        self._ranking = None
        if before is not None:
            self._fold_edge_types(before, removals, insertions)
        if self._scan_pool is not None \
                and not self._scan_pool.apply(removals, insertions):
            self._teardown_scan_pool(failed=True)

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
        each alongside, so a query is one gather over the within-L pairs.
        At L >= 3 the set is seeded lazily on the first query by streaming
        the store's row blocks, then folded forward by each applied delta's
        flipped cells.  At L = 2 the set is the common-neighbour counts'
        own codes (:meth:`TwoHopCounts.within_pairs`), which their
        :meth:`~TwoHopCounts.apply` keeps; only the type positions are kept
        here, spliced where ``apply`` moved the codes.  At L = 1 the
        within-L pairs are the edges, so the query is
        :meth:`edge_endpoints`.
        The result is int64 ``(rows, cols)`` in ``np.triu_indices(n, 1)``
        order, and no state grows with ``n²``.
        """
        if self._computer.length_threshold == 1:
            return self.edge_endpoints(type_mask)
        if self._two_hop is not None:
            within = self._two_hop.within_pairs()
        else:
            if self._within_flat is None:
                self._within_flat = _within_pair_set(
                    self._distance.store, self._computer.length_threshold)
            within = self._within_flat
        if self._type_plane is not None:
            types = self._pair_types(within)
        else:
            if self._within_types is None:
                self._within_types = self._pair_types(within)
            types = self._within_types
        flagged = np.append(type_mask, False)[types]
        return triu_unflat(within[flagged], self._graph.num_vertices)

    def short_path_edges(self, rows: np.ndarray, cols: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """The edges on a path of length <= 2 between each pair ``(rows[k], cols[k])``.

        An L = 2 session's pruning query, answered from the adjacency
        alone (:meth:`TwoHopCounts.path_edges`): int64 ``(u, v)`` arrays,
        ``u < v``, unordered and with repeats.
        """
        if self._two_hop is None:
            raise ValueError("short_path_edges needs an L = 2 session")
        return self._two_hop.path_edges(np.asarray(rows, dtype=np.int64),
                                        np.asarray(cols, dtype=np.int64))

    def _pair_types(self, flat: np.ndarray) -> np.ndarray:
        """The type position of each pair of the triu flat codes ``flat``.

        With a pair-type plane this is one gather; a pair read for the
        first time is typed then and its position stored.
        """
        plane = self._type_plane
        if plane is None:
            return self._typed(flat)
        stored = plane[flat]
        unknown = stored == 0
        if unknown.any():
            missing = flat[unknown]
            stored[unknown] = plane[missing] = self._typed(missing) + 1
        return stored - 1

    def _typed(self, flat: np.ndarray) -> np.ndarray:
        """:meth:`OpacityComputer.type_indices` of the triu flat codes ``flat``."""
        if not flat.size:
            return flat
        return self._computer.type_indices(
            *triu_unflat(flat, self._graph.num_vertices))

    def _fold_edge_types(self, before: np.ndarray, removals: Sequence[Edge],
                         insertions: Sequence[Edge]) -> None:
        """Carry the edge types across one applied edit.

        ``before`` holds the graph's sorted edge codes before the edit and
        the edges are canonical; the removed edges' types go from their
        positions there, and the inserted ones' go in at their positions
        in the graph's codes now (less the insertions ahead of each).
        """
        n = self._graph.num_vertices
        added = np.array(sorted(u * n + v for u, v in insertions),
                         dtype=np.int64)
        self._edge_types = splice(
            self._edge_types,
            np.searchsorted(before, [u * n + v for u, v in removals]),
            np.searchsorted(self._graph.edge_codes(), added)
            - np.arange(added.size),
            self._computer.type_indices(*np.divmod(added, n))
            if added.size else added)

    def _fold_flipped_cells(self, row_idx: np.ndarray, col_idx: np.ndarray,
                            gained: np.ndarray) -> None:
        """Fold one applied delta's flipped cells into the L >= 3 within-L set.

        ``_flipped_cells`` yields one cell per pair, so every lost pair is
        in the set and every gained one is not: a searchsorted locates
        both, and one :func:`~repro.graph.graph.splice` drops the lost
        ones and puts the gained ones in at their sorted places, for the
        set and its type positions alike, without re-sorting either.
        """
        i = np.minimum(row_idx, col_idx)
        j = np.maximum(row_idx, col_idx)
        flat = triu_flat(i, j, self._graph.num_vertices)
        within = self._within_flat
        gone = np.sort(np.searchsorted(within, flat[~gained]))
        order = np.argsort(flat[gained])
        added = flat[gained][order]
        # Insertion points among the pairs left once ``gone`` is dropped.
        at = np.searchsorted(within, added)
        at -= np.searchsorted(gone, at)
        self._within_flat = splice(within, gone, at, added)
        self._within_types = splice(self._within_types, gone, at,
                                    self._pair_types(added))

    # ------------------------------------------------------------------
    # incremental machinery
    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        self._totals = self._computer.type_order[1]
        if self._computer.length_threshold == 1:
            self._withins = np.bincount(
                self._typed_edges(), minlength=self._totals.size + 1
            )[:self._totals.size]
        else:
            self._withins = self._computer.within_counts(self._distance.store)
        self._current = None
        self._ranking = None

    def _check_cells(self, cells: np.ndarray, at: np.ndarray,
                     gained: np.ndarray) -> np.ndarray:
        """Raise unless every member edit is valid; return the live members.

        The one check of every scan, at every L.  Member ``at[r, k]``
        edits edge ``cells[at[r, k]]``, inserting it where ``gained``
        (shaped like ``at``) and removing it elsewhere; members at
        -1 are padding.  Each cell is looked up once, by one binary search
        over the graph's sorted edge codes; the members are then judged in
        order by :func:`~repro.graph.graph.validate_members`.
        """
        codes = self._graph.edge_codes()
        n = self._graph.num_vertices
        lo = np.minimum(cells[:, 0], cells[:, 1])
        hi = np.maximum(cells[:, 0], cells[:, 1])
        wanted = lo * n + hi
        found = np.searchsorted(codes, wanted).clip(max=max(codes.size - 1, 0))
        present = (codes[found] == wanted if codes.size
                   else np.zeros(wanted.size, dtype=bool))
        return validate_members(at, lo, hi, wanted, present, gained, n)

    def _edge_flips(self, removals: List[Edge], insertions: List[Edge]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs an L = 1 edit flips: its own, as ``(flat codes, gained)``.

        A removal the same edit re-inserts nets to nothing.
        """
        flips = [(*edge, 0) for edge in removals if edge not in insertions]
        flips += [(*edge, 1) for edge in insertions if edge not in removals]
        cells = np.array(flips, dtype=np.int64).reshape(-1, 3)
        return (triu_flat(cells[:, 0], cells[:, 1], self._graph.num_vertices),
                cells[:, 2].astype(bool))

    def _flipped_cells(self, deltas: Sequence[DistanceDelta]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cells whose within-L membership flips under the deltas.

        Returns ``(owner, row_idx, col_idx, gained)``: each cell with the
        index of its delta in ``deltas``, exactly one representative per
        unordered pair and delta.  Every delta's flips come from one
        stacked comparison over the concatenated delta rows.
        """
        length = self._computer.length_threshold
        n = self._graph.num_vertices
        rows_cat = np.concatenate([delta.rows for delta in deltas])
        new_within = np.concatenate([delta.new_rows for delta in deltas],
                                    axis=0) <= length
        group_of_row = np.repeat(np.arange(len(deltas)),
                                 [delta.rows.size for delta in deltas])
        flips = (self._distance.rows(rows_cat) <= length) != new_within
        # Each changed cell appears in its delta's row and (when both
        # endpoints are that delta's affected rows) again transposed; keep
        # exactly one representative per delta, looking the affected-row
        # membership up per delta.
        in_rows = np.zeros((len(deltas), n), dtype=bool)
        in_rows[group_of_row, rows_cat] = True
        keep = flips & (~in_rows[group_of_row]
                        | (np.arange(n)[None, :] > rows_cat[:, None]))
        slab_pos, col_idx = np.nonzero(keep)
        return (group_of_row[slab_pos], rows_cat[slab_pos], col_idx,
                new_within[slab_pos, col_idx])

    def _row_deltas(self, endpoints: np.ndarray, members: np.ndarray,
                    gained: np.ndarray) -> List[Optional[DistanceDelta]]:
        """Distance deltas of independent candidates, one per row of ``members``.

        The rows with one live member go to one
        :meth:`~DistanceSession.preview_batch` as endpoint arrays (``None``
        where an edit flips no within-L membership); only a wider row
        becomes an edit for :meth:`~DistanceSession.preview`.
        """
        live = members >= 0
        width = live.sum(axis=1)
        deltas: List[Optional[DistanceDelta]] = [None] * len(members)
        single = np.flatnonzero(width == 1)
        if single.size:
            column = live[single].argmax(axis=1)
            cells, insert = members[single, column], gained[single, column]
            batch = self._distance.preview_batch(endpoints[cells[~insert]],
                                                 endpoints[cells[insert]])
            order = np.concatenate([single[~insert], single[insert]])
            for row, delta in zip(order.tolist(), batch):
                deltas[row] = delta
        for row in np.flatnonzero(width > 1).tolist():
            cells, insert = members[row][live[row]], gained[row][live[row]]
            deltas[row] = self._distance.preview(
                endpoints[cells[~insert]].tolist(),
                endpoints[cells[insert]].tolist())
        return deltas

    def _count_changes_batch(self, deltas: List[Optional[DistanceDelta]]
                             ) -> Changes:
        """Per-candidate count changes, one grouped count over all flips.

        The flipped cells of every delta are tallied together by
        :meth:`_tally_cells`, candidate ``c`` being delta ``c``; ``None``
        entries (no-op candidates) and empty deltas change nothing.
        """
        stacked = [position for position, delta in enumerate(deltas)
                   if delta is not None and delta.rows.size]
        if not stacked:
            return (np.empty(0, dtype=np.int64),) * 3
        owner, rows, cols, gained = self._flipped_cells(
            [deltas[p] for p in stacked])
        return self._tally_cells(np.array(stacked, dtype=np.int64)[owner],
                                 self._computer.type_indices(rows, cols),
                                 gained)

    def _tally_cells(self, candidate: np.ndarray, types: np.ndarray,
                     gained: np.ndarray) -> Changes:
        """Count changes of candidates from their stacked flipped cells.

        ``candidate`` names the candidate each cell belongs to, ``types``
        its pair's type position and ``gained`` whether the pair is within
        L after the edit.  The cells are grouped by ``(candidate, type
        position)`` with one sort (:func:`~repro.graph.two_hop.group_sums`)
        and their gains and losses counted per group, so the work is
        O(cells) whatever the number of types or candidates.  The groups
        come out sorted, so the result is the :data:`Changes` triples as
        they are: a gain and a loss of the same type net to no triple, and
        untyped pairs count for nothing.
        """
        untyped = self._totals.size
        groups, gains, cells = group_sums(
            candidate * (untyped + 1) + types, gained, 2)
        net = 2 * gains - cells
        candidate, types = np.divmod(groups, untyped + 1)
        kept = (net != 0) & (types != untyped)
        return candidate[kept], types[kept], net[kept]

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

    def _summarize_changed(self, count: int, candidate: np.ndarray,
                           types: np.ndarray, deltas: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact max and tie count of ``count`` candidates, from the types they change.

        ``(candidate, types, deltas)`` are the candidates' :data:`Changes`
        triples.  The maximum after an edit is the larger of the changed
        types' new ratios and the best *untouched* ratio: the first type of
        the step's exact descending order (:meth:`_type_ranking`) the
        candidate does not touch.  The untouched types at that ratio are
        its exact-ratio group less the touched members of the group.  Every
        step is a 1-D grouped operation over the triples, so the work is
        O(triples + candidates), never candidates × types.
        """
        size = self._totals.size
        if size == 0:
            empty = np.zeros(count, dtype=np.int64)
            return empty, empty + 1, empty
        order, rank, group, group_size = self._type_ranking()
        # Each candidate's touched places in that order, ascending: being
        # distinct, they equal their position among the candidate's
        # triples exactly on a prefix, whose length is the first untouched
        # place.
        sizes = np.bincount(candidate, minlength=count)
        position = np.arange(candidate.size) - np.repeat(np.cumsum(sizes) - sizes,
                                                         sizes)
        places = np.sort(candidate * size + rank[types]) - candidate * size
        held = np.bincount(candidate[places == position], minlength=count)
        untouched = order[np.minimum(held, size - 1)]
        tied = group_size[group[untouched]] - np.bincount(
            candidate[group[types] == group[untouched][candidate]],
            minlength=count)
        # The touched types' new ratios, then each candidate's untouched
        # one, where a type is left untouched.
        kept = np.flatnonzero(held < size)
        first = untouched[kept]
        best_num, best_den, at_max = group_maxima(
            np.concatenate([candidate, kept]),
            np.concatenate([self._withins[types] + deltas, self._withins[first]]),
            np.concatenate([self._totals[types], self._totals[first]]), count)
        ties = np.bincount(candidate[at_max[:candidate.size]], minlength=count)
        ties[kept] += np.where(at_max[candidate.size:], tied[kept], 0)
        return best_num, best_den, ties
