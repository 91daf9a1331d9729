"""Incremental maintenance of L-bounded distance matrices.

The greedy heuristics spend almost all of their runtime asking "what would
the distances be after this one edit?" — and a single edge edit only
perturbs the distances of pairs whose geodesic passes near the edited edge
(the structural insight behind dynamic all-pairs shortest-path algorithms,
e.g. Demetrescu & Italiano).  Under the L-truncation this repository works
with, the affected region is even smaller: an edit to edge ``{u, v}`` can
only change cells of rows whose distance to ``u`` or ``v`` is below L.

:class:`DistanceSession` owns the current bounded matrix of a working graph
— held behind a :class:`~repro.graph.distance_store.DistanceStore`, so the
dense tier keeps today's in-RAM matrix while the tiled tier streams row
tiles under a byte budget — and turns a tentative removal/insertion (or a
look-ahead combination) into a :class:`DistanceDelta` — the affected rows
plus their new values — without a from-scratch recomputation:

* **Insertion** of ``{u, v}``: distances only shrink, and every improved
  path decomposes as ``i → u — v → j`` (or the mirror image) with legs that
  avoid the new edge, so the new rows follow from the *old* matrix by the
  vectorized relaxation ``min(D[i, j], D[i, u] + 1 + D[v, j],
  D[i, v] + 1 + D[u, j])``, truncated at L.  Exact, no graph traversal.
* **Removal** of ``{u, v}``: distances only grow, and a row ``i`` can only
  change when some shortest path from ``i`` crosses the edge, which forces
  ``|D[i, u] - D[i, v]| = 1`` and ``min(D[i, u], D[i, v]) ≤ L - 1``.  The
  (few) affected rows are recomputed by vectorized frontier expansion over
  the edited adjacency, restricted to those source rows (the ``numpy`` engine's
  recurrence on an ``|rows| × n`` slab).  However large the affected region,
  the delta is that slab: oversized slabs stream through a row cap in
  chunks, so no edit ever recomputes the whole matrix.

Every delta goes through the same four pieces of
:class:`DistanceSession`: one affected-rows rule (``_affected``), one
frontier-expansion kernel for removals (``_expand_rows``), one relaxation
kernel for insertions (``_relax_rows``), and one row cap that streams a
slab through either kernel in chunks (``_row_capped``).

Every matrix access is phrased in row blocks (columns are rows transposed —
the matrix is symmetric), which is exactly the store seam's contract; the
adjacency mirror follows the same split: the dense tier keeps the
BLAS-friendly float32 matrix, the tiled tier works off a CSR snapshot with
an edit-override set, producing bit-identical frontier booleans through
exact integer neighbor counts.

Multi-edge combinations are previewed sequentially, tracking intermediate
state in a sparse row overlay (changed cells always have both endpoints
among the affected rows, so overlaid rows compose consistently) — which
keeps every step exact without copying the matrix per candidate.  Both
code paths yield matrices identical to
:func:`repro.graph.distance.bounded_distance_matrix` on the edited graph;
the property suite asserts this bit-for-bit.

:meth:`DistanceSession.preview_batch` evaluates *many independent
single-edge candidates* of the same kind in one stacked pass: all removal
candidates share one ``|rows_total| × n`` slab expansion over the unedited
mirror, each row cutting its own candidate's edge, and all insertion
candidates share one relaxation, each row reading its own candidate's
endpoint rows, from ``(k, 2)`` endpoint arrays it does not validate.
Each candidate's delta is bit-identical to the equivalent
:meth:`preview`, except that a candidate whose edit flips no cell across
the L boundary comes back as ``None``.

Neither kind of preview touches the graph: tentative edits live in the
adjacency mirror only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DistanceMemoryError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import (
    CSRAdjacency,
    DenseStore,
    DistanceStore,
    StoreConfig,
    TiledStore,
)
from repro.graph.graph import Edge, Graph
from repro.graph.matrices import distance_dtype


def _edge_rows(edges: Union[np.ndarray, Sequence[Edge]]) -> np.ndarray:
    """``edges`` as an int64 ``(k, 2)`` array of canonical ``(u, v)``, ``u < v``."""
    return np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)


@dataclass(frozen=True)
class DistanceDelta:
    """Effect of one (tentative) edit on the bounded distance matrix.

    ``rows`` lists the affected row indices and ``new_rows`` their updated
    values; every cell outside ``rows × V ∪ V × rows`` is unchanged, and the
    symmetric counterpart of each listed cell changes identically.
    """

    removals: Tuple[Edge, ...]
    insertions: Tuple[Edge, ...]
    rows: np.ndarray
    new_rows: np.ndarray

    @property
    def num_affected_rows(self) -> int:
        """Number of rows whose values change under this edit."""
        return int(self.rows.size)


class _DenseAdjacency:
    """Dense-tier adjacency mirror: the historical float32 matrix.

    float32 keeps the 0/1 dot products exact (up to 2**24 neighbors; a
    uint8 accumulator would wrap at 256) and stays BLAS-friendly.
    """

    def __init__(self, graph: Graph) -> None:
        self._matrix = graph.adjacency_matrix(dtype=np.float32)

    def block(self, rows: np.ndarray) -> np.ndarray:
        """Fresh writable boolean adjacency rows."""
        return self._matrix[rows].astype(np.bool_)

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        """Per-row neighbor weights of a boolean frontier (``> 0`` = reach)."""
        return frontier.astype(np.float32) @ self._matrix

    def set_edge(self, u: int, v: int, present: bool) -> None:
        self._matrix[u, v] = self._matrix[v, u] = 1.0 if present else 0.0

    def compact(self) -> None:
        """Nothing to fold: the matrix is edited in place."""


class _CSROverlayAdjacency:
    """Tiled-tier adjacency mirror: CSR snapshot plus an edit-override set.

    No ``n × n`` matrix anywhere: frontier expansion gathers neighbors from
    the CSR arrays and counts them with an exact integer ``bincount``, so
    the ``> 0`` reachability booleans equal the dense float32 product bit
    for bit.  Edits accumulate in small add/remove override sets (previews
    cancel their own overrides on revert); :meth:`compact` rebuilds the
    snapshot from the graph once the net override count passes a
    threshold.  It is only called after a committed edit, when the graph
    holds exactly the mirrored state.
    """

    _REBUILD_THRESHOLD = 256

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._snapshot = CSRAdjacency.from_graph(graph)
        self._added: set = set()
        self._removed: set = set()

    def block(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        n = self._snapshot.num_vertices
        out = np.zeros((rows.size, n), dtype=np.bool_)
        rep, neighbors = self._snapshot.gather(rows)
        out[rep, neighbors] = True
        for (a, b), present in self._override_items():
            out[rows == a, b] = present
            out[rows == b, a] = present
        return out

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        num_rows, n = frontier.shape
        rows_idx, vertices = np.nonzero(frontier)
        rep, neighbors = self._snapshot.gather(vertices)
        counts = np.bincount(rows_idx[rep] * n + neighbors,
                             minlength=num_rows * n).reshape(num_rows, n)
        for (a, b), present in self._override_items():
            sign = 1 if present else -1
            counts[:, b] += sign * frontier[:, a]
            counts[:, a] += sign * frontier[:, b]
        return counts

    def _override_items(self):
        for edge in self._added:
            yield edge, True
        for edge in self._removed:
            yield edge, False

    def set_edge(self, u: int, v: int, present: bool) -> None:
        edge = (u, v) if u < v else (v, u)
        if present:
            if edge in self._removed:
                self._removed.discard(edge)
            else:
                self._added.add(edge)
        else:
            if edge in self._added:
                self._added.discard(edge)
            else:
                self._removed.add(edge)

    def compact(self) -> None:
        """Fold the overrides into a fresh snapshot once they pile up."""
        if len(self._added) + len(self._removed) > self._REBUILD_THRESHOLD:
            self.rebuild()

    def rebuild(self) -> None:
        self._snapshot = CSRAdjacency.from_graph(self._graph)
        self._added.clear()
        self._removed.clear()


class DistanceSession:
    """Stateful owner of a working graph's L-bounded distance matrix.

    The session holds a *reference* to ``graph``; all mutations of the graph
    must go through :meth:`apply` (or :meth:`stage` and :meth:`commit`) so
    the matrix stays in sync.  :meth:`preview` answers tentative edits without
    leaving any lasting change on either the graph or the matrix.

    Parameters
    ----------
    graph:
        The working graph (shared, not copied).
    length_bound:
        The L truncation of the distance matrix.
    initial_distances:
        Optional precomputed L-bounded distance matrix of ``graph`` (e.g. a
        thresholded slice of a shared
        :class:`~repro.graph.distance_cache.LMaxDistanceCache`), kept in a
        :class:`~repro.graph.distance_store.DenseStore`.  The session takes
        ownership (the matrix is mutated in place by :meth:`commit`); it
        must equal ``bounded_distance_matrix(graph, length_bound)`` or
        every delta downstream is wrong.
    store_config:
        Scale-tier policy consulted only when ``initial_distances`` is
        ``None``; defaults to ``auto`` under the default budget (dense for
        every historical workload).
    """

    def __init__(self, graph: Graph, length_bound: int,
                 initial_distances: Optional[np.ndarray] = None,
                 store_config: Optional[StoreConfig] = None) -> None:
        if length_bound < 1:
            raise ConfigurationError(f"length_bound must be >= 1, got {length_bound}")
        self._graph = graph
        self._length = int(length_bound)
        self._store = self._init_store(initial_distances, store_config)
        self._adjacency: Union[_DenseAdjacency, _CSROverlayAdjacency,
                               None] = None

    def _init_store(self, initial_distances: Optional[np.ndarray],
                    store_config: Optional[StoreConfig]) -> DistanceStore:
        n = self._graph.num_vertices
        if initial_distances is not None:
            if initial_distances.shape != (n, n):
                raise ConfigurationError(
                    f"initial_distances must be {n}x{n}, "
                    f"got {initial_distances.shape}")
            matrix = np.ascontiguousarray(initial_distances)
            if matrix.dtype != distance_dtype(self._length):
                # Legacy int32 payloads: renormalize the sentinel into the
                # contract dtype (values ≤ L are untouched, so the result
                # stays bit-identical to the engine output at L).
                from repro.graph.distance_cache import threshold_distances
                matrix = threshold_distances(matrix, self._length)
            return DenseStore(matrix, self._length)
        config = store_config or StoreConfig()
        tier = config.resolve(n, distance_dtype(self._length))
        if tier == "tiled":
            return TiledStore(self._graph, self._length,
                              tile_rows=config.tile_rows,
                              budget_bytes=config.budget_bytes,
                              spill_dir=config.spill_dir)
        matrix = bounded_distance_matrix(self._graph, self._length)
        return DenseStore(matrix, self._length)

    @property
    def _mirror(self) -> Union[_DenseAdjacency, _CSROverlayAdjacency]:
        """The adjacency mirror, built on first use.

        Only previews and edits read it, and each reads it before it edits
        the graph, so the mirror is built from the graph the store
        describes.  A session that only serves reads (an L = 2 opening
        count) never builds it.
        """
        if self._adjacency is None:
            self._adjacency = (_CSROverlayAdjacency(self._graph)
                               if isinstance(self._store, TiledStore)
                               else _DenseAdjacency(self._graph))
        return self._adjacency

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The working graph this session tracks."""
        return self._graph

    @property
    def length_bound(self) -> int:
        """The L truncation."""
        return self._length

    @property
    def store(self) -> DistanceStore:
        """The distance store backing this session (row-block reads)."""
        return self._store

    def close(self) -> None:
        """Release store resources (tiled spill files); idempotent."""
        if isinstance(self._store, TiledStore):
            self._store.close()

    def privatize_store(self) -> None:
        """Swap an inherited tiled store for a fresh one over the current graph.

        A forked process shares its parent's tiled store: the tile cache as
        it stood at the fork, and the spill file whose slots the parent
        keeps rewriting.  The fresh store has the same tile geometry and
        computes its tiles lazily from the current graph — canonical values,
        so equal to the parent's edited tiles — into its own spill file
        (:meth:`TiledStore.private_copy`).  The inherited one is left
        untouched (its finalizer releases the spill file only in the
        process that created it).  A dense store is the process's own
        copy-on-write matrix and stays.
        """
        store = self._store
        if isinstance(store, TiledStore):
            self._store = store.private_copy(self._graph)

    @property
    def distances(self) -> np.ndarray:
        """The current dense matrix (dense tier only; treat as read-only).

        The tiled tier never materializes ``n × n`` — read :meth:`rows` or
        stream the store's ``blocks()`` instead.
        """
        if isinstance(self._store, DenseStore):
            return self._store.array
        raise DistanceMemoryError(
            "this session runs on the tiled scale tier and has no dense "
            "matrix; read rows via session.rows() or stream "
            "session.store.blocks()")

    def rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows (columns by symmetry)."""
        return self._store.rows(block)

    # ------------------------------------------------------------------
    # delta evaluation
    # ------------------------------------------------------------------
    def preview(self, removals: Sequence[Edge] = (),
                insertions: Sequence[Edge] = ()) -> DistanceDelta:
        """Return the delta of tentatively applying the edit, leaving no trace.

        Removals are processed before insertions, each against the state
        produced by its predecessors, exactly mirroring how the greedy
        algorithms apply a chosen combination.
        """
        removals, insertions = map(tuple, self._graph.check_edit(removals,
                                                                  insertions))
        applied = []
        try:
            return self._compute_delta(removals, insertions, applied)
        finally:
            self._revert_mirror(applied)

    def preview_batch(self, removals: Union[np.ndarray, Sequence[Edge]] = (),
                      insertions: Union[np.ndarray, Sequence[Edge]] = ()
                      ) -> List[DistanceDelta | None]:
        """Deltas of *independent* single-edge candidates, one stacked pass.

        Unlike :meth:`preview` — where the listed edges form one combined
        edit — every edge here is its own candidate, in the order
        ``removals + insertions``; each side is a ``(k, 2)`` endpoint array
        or a sequence of edges.  Callers pass validated single-edge
        candidates, in either orientation: nothing is checked here.  All
        removal candidates share a single ``|rows_total| × n`` slab
        recompute and all insertion candidates share a single stacked
        relaxation, eliminating the per-candidate numpy call overhead that
        dominates the greedy scans.

        The pass serves consumers that only tally *within-L membership
        flips* (the opacity sessions): a candidate whose edit flips no cell
        across the L boundary — e.g. a removal whose every perturbed pair
        stays within L via an alternate path — yields ``None``, so no delta
        object (or row copy) is materialized for it.  Every other entry is
        bit-identical to the candidate's own :meth:`preview`.
        """
        deltas = self._batch_deltas(_edge_rows(removals), removal=True)
        deltas += self._batch_deltas(_edge_rows(insertions), removal=False)
        return deltas

    def _batch_slab_row_cap(self) -> int:
        """Rows per stacked pass, bounding the workspace to ~32 MB of int64.

        On the tiled tier the cap is additionally bounded by the store's
        byte budget: a stacked pass keeps ~16 bytes of frontier-expansion
        workspace per slab cell (the int64 expansion counts plus the
        boolean frontier/reached planes), so capping rows at
        ``budget // (16 n)`` keeps the scan's transient slabs inside the
        same envelope the tile cache honours — instead of densifying
        per-candidate slabs past ``scale_budget_bytes``.
        """
        n = max(1, self._graph.num_vertices)
        cap = max(256, (1 << 22) // n)
        if isinstance(self._store, TiledStore):
            cap = min(cap, self._store.budget_bytes // (16 * n))
        return max(16, cap)

    def _batch_candidate_cap(self) -> int:
        """Candidates per ``n × |chunk|`` column gather (bounds the gather)."""
        n = max(1, self._graph.num_vertices)
        cap = max(64, (1 << 21) // n)
        if isinstance(self._store, TiledStore):
            cap = min(cap, self._store.budget_bytes // (32 * n))
        return max(16, cap)

    def _slab_chunks(self, slab: List[Tuple[int, np.ndarray]]
                     ) -> Iterator[List[Tuple[int, np.ndarray]]]:
        """Greedily pack slab entries into row-capped stacked-pass chunks."""
        cap = self._batch_slab_row_cap()
        start = 0
        while start < len(slab):
            stop = start
            total_rows = 0
            while stop < len(slab) and (stop == start
                                        or total_rows + slab[stop][1].size <= cap):
                total_rows += slab[stop][1].size
                stop += 1
            yield slab[start:stop]
            start = stop

    def _batch_affected_rows(self, edges: np.ndarray,
                             removal: bool) -> List[np.ndarray]:
        """Affected-row arrays of every candidate from one stacked gather.

        Applies :meth:`_affected` to the chunk's candidates (rows of the
        ``(k, 2)`` array ``edges``) at once: both endpoint columns are
        gathered in one read — as matrix *rows*, transposed by symmetry —
        and the per-candidate row sets split out of a single ``nonzero``.
        """
        du = self._store.rows(edges[:, 0]).astype(np.int64)
        dv = self._store.rows(edges[:, 1]).astype(np.int64)
        affected = self._affected(du, dv, removal)
        _, row_index = np.nonzero(affected)
        return np.split(row_index, np.cumsum(affected.sum(axis=1))[:-1])

    def _batch_deltas(self, edges: np.ndarray, removal: bool
                      ) -> List[DistanceDelta | None]:
        """Deltas of single-edge candidates of one kind, slab chunk by chunk."""
        deltas: List[DistanceDelta | None] = [None] * len(edges)
        slab: List[Tuple[int, np.ndarray]] = []  # (candidate index, affected rows)
        candidate_cap = self._batch_candidate_cap()
        for chunk_start in range(0, len(edges), candidate_cap):
            chunk = edges[chunk_start:chunk_start + candidate_cap]
            for local, rows in enumerate(self._batch_affected_rows(chunk,
                                                                   removal)):
                if rows.size:
                    slab.append((chunk_start + local, rows))
        for slab_chunk in self._slab_chunks(slab):
            self._fill_chunk(edges, slab_chunk, deltas, removal)
        return deltas

    def _fill_chunk(self, edges: np.ndarray,
                    chunk: List[Tuple[int, np.ndarray]],
                    deltas: List[DistanceDelta | None], removal: bool) -> None:
        """Recompute one chunk's affected rows in a shared stacked pass.

        Removals re-expand the stacked rows in one slab, each row cut by
        its candidate's edge (:meth:`_expand_rows`); insertions relax them
        in one pass (:meth:`_relax_rows`).  A candidate gets a delta only
        when some cell of its rows crosses the L boundary (a within-L
        membership flip).
        """
        rows_cat = np.concatenate([rows for _, rows in chunk])
        sizes = [rows.size for _, rows in chunk]
        owners = [index for index, _ in chunk]
        edge_u = np.repeat(edges[owners, 0], sizes)
        edge_v = np.repeat(edges[owners, 1], sizes)
        old_block = self._store.rows(rows_cat)
        if removal:
            block = self._row_capped(self._expand_rows,
                                     (rows_cat, edge_u, edge_v))
        else:
            block = self._row_capped(self._relax_rows,
                                     (old_block, edge_u, edge_v))
        changed_cat = (block != old_block).any(axis=1)
        flips_cat = ((block <= self._length)
                     != (old_block <= self._length)).any(axis=1)
        offset = 0
        for index, rows in chunk:
            span = slice(offset, offset + rows.size)
            offset += rows.size
            if not flips_cat[span].any():
                continue
            changed = changed_cat[span]
            edge = (tuple(edges[index].tolist()),)
            deltas[index] = DistanceDelta(
                *((edge, ()) if removal else ((), edge)), rows[changed],
                np.ascontiguousarray(block[span][changed],
                                     dtype=self._store.dtype))

    def stage(self, removals: Sequence[Edge] = (),
              insertions: Sequence[Edge] = ()) -> DistanceDelta:
        """Apply the edit to the graph and return its delta, matrix untouched.

        Two-phase counterpart of :meth:`preview` for *permanent* edits: the
        graph (and adjacency mirror) are mutated exactly once, while the
        distance matrix still holds pre-edit values until :meth:`commit`
        folds the delta in — callers can diff counts against the old matrix
        in between.
        """
        removals, insertions = map(tuple, self._graph.check_edit(removals,
                                                                  insertions))
        applied = []
        try:
            delta = self._compute_delta(removals, insertions, applied)
        except BaseException:
            self._revert_mirror(applied)
            raise
        self._graph.edit(removals, insertions)
        return delta

    def commit(self, delta: DistanceDelta) -> None:
        """Fold a :meth:`stage`-d delta into the store."""
        if delta.rows.size:
            self._store.write_rows(delta.rows, delta.new_rows)
        if self._adjacency is not None:
            self._adjacency.compact()

    def apply(self, removals: Sequence[Edge] = (),
              insertions: Sequence[Edge] = ()) -> DistanceDelta:
        """Apply the edit to the graph and fold its delta into the matrix."""
        delta = self.stage(removals, insertions)
        self.commit(delta)
        return delta

    def _compute_delta(self, removals: Tuple[Edge, ...],
                       insertions: Tuple[Edge, ...],
                       applied: list) -> DistanceDelta:
        """Build the delta, applying ops to the adjacency mirror as it goes.

        Every applied op is recorded in ``applied`` (for the caller to
        revert, or keep); neither the graph nor the distance matrix is
        written.

        Multi-op sequences track intermediate state in a sparse *row
        overlay* instead of a full matrix copy: every changed cell has both
        endpoints among its op's affected rows, so a base row not in the
        overlay is guaranteed untouched by earlier ops and reads compose
        consistently.
        """
        ops = [("remove", edge) for edge in removals]
        ops += [("insert", edge) for edge in insertions]
        n = self._graph.num_vertices
        if not ops:
            return DistanceDelta(removals, insertions,
                                 np.empty(0, dtype=np.int64),
                                 np.empty((0, n), dtype=self._store.dtype))
        overlay: dict = {}  # row index -> updated store-dtype row

        def columns(u: int, v: int) -> np.ndarray:
            # Both endpoints' rows in one store read (columns by symmetry).
            cols = self._store.rows(np.asarray([u, v], dtype=np.int64))
            cols = cols.astype(np.int64)
            for i, row in overlay.items():
                cols[0, i], cols[1, i] = row[u], row[v]
            return cols

        for kind, (u, v) in ops:
            removal = kind == "remove"
            self._mirror.set_edge(u, v, not removal)
            applied.append((kind, (u, v)))
            du, dv = columns(u, v)
            rows = np.nonzero(self._affected(du, dv, removal))[0]
            if rows.size == 0:
                continue
            if removal:
                block = self._row_capped(self._expand_rows, (rows,))
            else:
                base = self._store.rows(rows)
                for position, index in enumerate(rows.tolist()):
                    if index in overlay:
                        base[position] = overlay[index]
                block = self._row_capped(self._relax_rows, (base,), u, v,
                                         du[None, :], dv[None, :])
            for position, index in enumerate(rows.tolist()):
                overlay[index] = block[position]
        rows = np.fromiter(sorted(overlay), dtype=np.int64, count=len(overlay))
        block = (np.stack([overlay[int(i)] for i in rows])
                 if rows.size else np.empty((0, n), dtype=self._store.dtype))
        # Drop rows that did not actually change, so downstream count
        # deltas only walk genuinely perturbed cells.
        if rows.size:
            changed = (block != self._store.rows(rows)).any(axis=1)
            rows = rows[changed]
            block = block[changed]
        return DistanceDelta(removals, insertions, rows,
                             np.ascontiguousarray(block,
                                                  dtype=self._store.dtype))

    def _revert_mirror(self, applied: list) -> None:
        """Undo the mirror ops :meth:`_compute_delta` applied."""
        for kind, (u, v) in reversed(applied):
            self._mirror.set_edge(u, v, kind == "remove")

    # ------------------------------------------------------------------
    # per-edit machinery
    # ------------------------------------------------------------------
    def _affected(self, du: np.ndarray, dv: np.ndarray,
                  removal: bool) -> np.ndarray:
        """Mask of the rows an edit of the edge between the columns can change.

        ``du`` / ``dv`` are the pre-edit int64 distances to the edge's
        endpoints (one column each, or one candidate per row).  A row more
        than L - 1 from both endpoints gains or loses no ≤L path through
        the edge.  A shortest path from ``i`` that crosses a removed edge
        reaches one endpoint at distance ``d`` and the other at ``d + 1``,
        so a removal also needs ``|du - dv| = 1``.
        """
        near = np.minimum(du, dv) <= self._length - 1
        return near & (np.abs(du - dv) == 1) if removal else near

    def _row_capped(self, kernel, per_row: Tuple[np.ndarray, ...],
                    *shared) -> np.ndarray:
        """``kernel`` over row-capped chunks of the ``per_row`` arrays, stacked.

        Slab rows are independent, so a slab beyond the row cap (one
        applied edit's whole region, or a giant candidate that
        :meth:`_slab_chunks` admits alone) streams through it chunk by
        chunk: bit-identical, with the kernel's workspace bounded by the
        cap.  ``shared`` arguments go whole to every chunk.
        """
        cap = self._batch_slab_row_cap()
        total = per_row[0].shape[0]
        if total <= cap:
            return kernel(*per_row, *shared)
        return np.concatenate(
            [kernel(*(array[start:start + cap] for array in per_row), *shared)
             for start in range(0, total, cap)], axis=0)

    def _expand_rows(self, rows: np.ndarray, cut_u: Optional[np.ndarray] = None,
                     cut_v: Optional[np.ndarray] = None) -> np.ndarray:
        """Recompute ``rows`` of the matrix by frontier expansion.

        The ``numpy`` engine's recurrence restricted to an ``|rows| × n``
        slab, so the cost scales with the affected region instead of the
        whole vertex set.  Without a cut it runs on the mirror as it stands
        (a sequential edit has already removed its edge there).  With one,
        ``cut_u[k]``/``cut_v[k]`` name the edge removed for slab row ``k``
        (one stacked candidate each): the expansion runs on the unedited
        mirror and subtracts, per row, the single term that edge would have
        contributed.  The mirror's neighbour weights are exact (float32 0/1
        dots or integer counts), so the corrected frontier equals the one on
        the edited adjacency bit for bit.
        """
        n = self._graph.num_vertices
        block = np.full((rows.size, n), self._store.sentinel,
                        dtype=self._store.dtype)
        source_index = np.arange(rows.size)
        block[source_index, rows] = 0
        reached = np.zeros((rows.size, n), dtype=np.bool_)
        reached[source_index, rows] = True
        frontier = self._mirror.block(rows)
        if cut_u is not None:
            # A source on its own cut edge does not start from the far end.
            at_u = rows == cut_u
            frontier[source_index[at_u], cut_v[at_u]] = False
            at_v = rows == cut_v
            frontier[source_index[at_v], cut_u[at_v]] = False
        step = 1
        while step <= self._length and frontier.any():
            new = frontier & ~reached
            block[new] = step
            reached |= new
            if step == self._length:
                break
            product = self._mirror.expand(new)
            if cut_u is not None:
                product[source_index, cut_v] -= new[source_index, cut_u]
                product[source_index, cut_u] -= new[source_index, cut_v]
            frontier = product > 0
            step += 1
        return block

    def _relax_rows(self, base: np.ndarray, edge_u: Union[int, np.ndarray],
                    edge_v: Union[int, np.ndarray],
                    far_u: Optional[np.ndarray] = None,
                    far_v: Optional[np.ndarray] = None) -> np.ndarray:
        """New values of ``base``'s rows after inserting an edge.

        ``min(base, near_u + 1 + far_v, near_v + 1 + far_u)``, truncated at
        L: every improved shortest path is simple, so it crosses the new
        edge exactly once.  ``edge_u``/``edge_v`` are the inserted edge's
        endpoints, one pair for every row (a sequential edit) or one per
        row (stacked candidates); ``near_*`` are each row's own distances
        to them.  ``far_*`` are the endpoints' distance rows (columns by
        symmetry): one broadcast row for a sequential edit or, when
        omitted, each row's endpoints read from the store.
        """
        block = base.astype(np.int64)
        within = np.arange(block.shape[0])
        near_u = block[within, edge_u]
        near_v = block[within, edge_v]
        if far_u is None:
            far_u = self._store.rows(edge_u).astype(np.int64)
            far_v = self._store.rows(edge_v).astype(np.int64)
        np.minimum(block, (near_u + 1)[:, None] + far_v, out=block)
        np.minimum(block, (near_v + 1)[:, None] + far_u, out=block)
        block[block > self._length] = self._store.sentinel
        return block.astype(self._store.dtype)
