"""Out-of-core distance plane: row-block stores behind one seam.

Every layer above the distance engines consumes the bounded matrix the same
way — ``|block| × n`` row slabs (the sessions' stacked passes, the opacity
tallies, the pruning gathers) — and the matrix is symmetric, so column
gathers are row gathers transposed.  :class:`DistanceStore` freezes that
contract: ``rows(block)`` returns a fresh slab, ``write_rows`` folds a
session delta back in symmetrically, and ``blocks()`` streams the matrix
in bounded read-only slabs, read in place.  Two implementations cover the
scale tiers:

* :class:`DenseStore` wraps today's dense ``n × n`` matrices unchanged —
  the fast tier for graphs whose matrix fits the byte budget.
* :class:`TiledStore` never materializes the matrix: it computes
  L-bounded distances one row tile at a time by sparse CSR frontier
  expansion (:func:`csr_bounded_rows`, a truncated breadth-first search
  from the tile's source rows — bit-identical values by the
  bounded-matrix contract), keeps an LRU tile cache under a configurable
  byte budget, and spills cold tiles to fixed slots of a temporary file.
  Each one is built from its session's graph at its session's L: a grid's
  tiled θ-groups share their sample, never a tile base.

:class:`StoreConfig` carries the ``scale_tier`` knob (``dense`` /
``tiled`` / ``auto``) and the byte budget through the config/request
layers; ``auto`` picks dense exactly when ``n² × itemsize`` fits the
budget, and an explicit ``dense`` request over budget raises
:class:`~repro.errors.DistanceMemoryError` up front instead of dying on
an opaque ``MemoryError`` mid-run (DESIGN.md §13).
"""

from __future__ import annotations

import os
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, DistanceMemoryError
from repro.graph.graph import Graph, splice
from repro.graph.matrices import distance_dtype, unreachable_value

__all__ = [
    "SCALE_TIERS",
    "DEFAULT_SCALE_BUDGET_BYTES",
    "StoreConfig",
    "validate_scale_tier",
    "dense_matrix_bytes",
    "ensure_dense_fits",
    "CSRAdjacency",
    "csr_bounded_rows",
    "DistanceStore",
    "DenseStore",
    "TiledStore",
]

#: Valid values of the ``scale_tier`` knob, service layer included.
SCALE_TIERS: Tuple[str, ...] = ("dense", "tiled", "auto")

#: Default byte budget of the distance plane: dense matrices under this
#: footprint stay dense (tier ``auto``), and the tiled tier's LRU cache is
#: bounded by it.  512 MB keeps every historical workload on the dense
#: fast path while capping what a single sample may pin in RAM.
DEFAULT_SCALE_BUDGET_BYTES: int = 512 * 1024 * 1024


def validate_scale_tier(tier: str) -> None:
    """Raise :class:`ConfigurationError` unless ``tier`` is a known tier."""
    if tier not in SCALE_TIERS:
        raise ConfigurationError(
            f"unknown scale_tier {tier!r}; available: {SCALE_TIERS}")


def dense_matrix_bytes(num_vertices: int, dtype: np.dtype) -> int:
    """Footprint of a dense ``n × n`` matrix of ``dtype`` in bytes."""
    return int(num_vertices) * int(num_vertices) * np.dtype(dtype).itemsize


def ensure_dense_fits(num_vertices: int, dtype: np.dtype, budget_bytes: int,
                      context: str = "distance matrix") -> None:
    """Up-front guard for dense allocations against the byte budget."""
    need = dense_matrix_bytes(num_vertices, dtype)
    if need > budget_bytes:
        raise DistanceMemoryError(
            f"dense {context} needs {need} bytes "
            f"({num_vertices} x {num_vertices} x "
            f"{np.dtype(dtype).itemsize}B) but the scale budget is "
            f"{budget_bytes} bytes; rerun with scale_tier='tiled' "
            f"(--scale-tier tiled) to stream it through the tiled store, "
            f"or raise the budget")


@dataclass(frozen=True)
class StoreConfig:
    """How the distance plane of one run/sample is stored.

    ``tier`` is the user-facing ``scale_tier`` knob; ``budget_bytes`` both
    decides the ``auto`` tier and bounds the tiled tier's LRU cache.
    ``tile_rows`` (rows per tile) and ``spill_dir`` are expert overrides —
    the defaults derive a tile size so roughly eight tiles fit the budget.
    """

    tier: str = "auto"
    budget_bytes: int = DEFAULT_SCALE_BUDGET_BYTES
    tile_rows: Optional[int] = None
    spill_dir: Optional[str] = None

    def validate(self) -> None:
        validate_scale_tier(self.tier)
        if self.budget_bytes <= 0:
            raise ConfigurationError(
                f"budget_bytes must be positive, got {self.budget_bytes}")
        if self.tile_rows is not None and self.tile_rows < 1:
            raise ConfigurationError(
                f"tile_rows must be >= 1, got {self.tile_rows}")

    def resolve(self, num_vertices: int, dtype: np.dtype) -> str:
        """Concrete tier (``dense`` or ``tiled``) for one matrix.

        ``auto`` picks dense exactly when the matrix fits the budget; an
        explicit ``dense`` request that does not fit raises
        :class:`DistanceMemoryError` up front (the memory guard).
        """
        self.validate()
        if self.tier == "tiled":
            return "tiled"
        if self.tier == "dense":
            ensure_dense_fits(num_vertices, dtype, self.budget_bytes)
            return "dense"
        need = dense_matrix_bytes(num_vertices, dtype)
        return "dense" if need <= self.budget_bytes else "tiled"


# ----------------------------------------------------------------------
# CSR adjacency + frontier-expansion kernel
# ----------------------------------------------------------------------
class CSRAdjacency:
    """Immutable CSR snapshot of a graph's adjacency (both edge directions).

    Built from sorted edges (:meth:`from_graph`, or :meth:`from_edges` over
    a sorted edge array), row ``r`` lists its neighbours above ``r``
    ascending, then those below ``r`` ascending: the entry ``(r, x)`` has
    rank ``(x − r − 1) mod n`` in its row.  :meth:`edited` keeps that
    order.
    """

    __slots__ = ("indptr", "indices", "num_vertices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.num_vertices = int(self.indptr.size - 1)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRAdjacency":
        edges = graph.edge_array()
        return cls.from_edges(graph.num_vertices, edges[:, 0], edges[:, 1])

    @classmethod
    def from_edges(cls, n: int, first: np.ndarray,
                   second: np.ndarray) -> "CSRAdjacency":
        """The CSR of the ``n``-vertex graph with edges ``(first[k], second[k])``."""
        if first.size == 0:
            return cls(np.zeros(n + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        src = np.concatenate([first, second])
        dst = np.concatenate([second, first])
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst[order])

    def edited(self, removals: np.ndarray, insertions: np.ndarray
               ) -> "CSRAdjacency":
        """The CSR after removing the edges ``removals``, then inserting ``insertions``.

        Both are int64 ``(k, 2)`` edge arrays; each removal is an edge and
        each insertion is absent once the removals are gone.  The result
        equals :meth:`from_edges` of the new sorted edge set, array for
        array, but only the 2·k changed entries move: one gather over the
        touched rows counts the entries ranked ahead of each, which places
        it; one :func:`~repro.graph.graph.splice` drops and inserts them in
        ``indices``, and a cumulative sum of the rows' degree changes
        shifts ``indptr``.
        """
        n = self.num_vertices
        ends = np.concatenate([removals, insertions]).astype(np.int64)
        # Both entries of every edge, the removals' first.
        rows, cols = ends.ravel(), ends[:, ::-1].ravel()
        cut = 2 * len(removals)
        rank = (cols - rows - 1) % n
        source, neighbors = self.gather(rows)
        ahead = np.bincount(source, minlength=rows.size, weights=(
            (neighbors - rows[source] - 1) % n < rank[source]))
        at = self.indptr[rows] + ahead.astype(np.int64)
        # Insertions in (row, rank) order, each placed among the entries
        # left once the removed ones are dropped.
        order = np.argsort(rows[cut:] * n + rank[cut:])
        place = at[cut:][order]
        place -= np.searchsorted(np.sort(at[:cut]), place)
        indices = splice(self.indices, at[:cut], place, cols[cut:][order])
        indptr = self.indptr + np.cumsum(
            np.bincount(rows[cut:] + 1, minlength=n + 1)
            - np.bincount(rows[:cut] + 1, minlength=n + 1))
        return CSRAdjacency(indptr, indices)

    def gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbors of ``vertices``: ``(source positions, neighbor ids)``.

        ``source positions`` index into ``vertices`` (repeated per
        neighbor), so callers can scatter per-source contributions.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        counts, slots = self.neighbor_slots(vertices)
        return np.repeat(np.arange(vertices.size), counts), self.indices[slots]

    def neighbor_slots(self, vertices: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Degree of each of ``vertices`` and the ``indices`` slots of their neighbors.

        The slots list the neighbors of ``vertices[0]``, then of
        ``vertices[1]``, and so on.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        # Neighbor k of vertices[p] sits at indices[starts[p] + k].
        slots = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        slots += np.arange(slots.size)
        return counts, slots


#: Frontier density at which :func:`csr_bounded_rows` stops deduplicating
#: its next frontier with ``np.unique`` and takes one ``flat == step`` pass
#: over the slab instead; both give the same sorted codes.  On a 2-core
#: x86-64 host ``np.unique`` costs about 150 ns per code and the pass about
#: 1.4 ns per slab cell, so the pass wins once a step reaches more than
#: about 1/100 of the slab; timing the whole kernel on gnutella, acm and
#: google row blocks (n = 1000 and 5000, L = 2 to n) found 1/64 to 1/256
#: equally good.
_DENSE_FRONTIER_SHARE = 128


def csr_bounded_rows(csr: CSRAdjacency, sources: np.ndarray, length_bound: int,
                     dtype: Optional[np.dtype] = None) -> np.ndarray:
    """L-bounded distance rows of ``sources`` by sparse CSR frontier expansion.

    A breadth-first search from every source at once, truncated at
    ``length_bound``.  The frontier is a sorted array of flat
    ``row·n + vertex`` codes into the ``|sources| × n`` slab.  Each step
    gathers the frontier's neighbors over the CSR, keeps the codes whose
    cell still holds the sentinel and writes ``step`` into them; those
    cells are the next frontier.  Work and transients are O(frontier ·
    degree) per step, not O(|sources| · n).  The values equal the dense
    engines' bit for bit under the bounded-matrix contract, whatever the
    order or multiplicity of ``sources``.
    """
    n = csr.num_vertices
    dtype = distance_dtype(length_bound) if dtype is None else np.dtype(dtype)
    sentinel = unreachable_value(dtype)
    sources = np.asarray(sources, dtype=np.int64)
    block = np.full((sources.size, n), sentinel, dtype=dtype)
    if sources.size == 0:
        return block
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"sources must lie in [0, {n})")
    flat = block.reshape(-1)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    flat[frontier] = 0
    for step in range(1, length_bound + 1):
        vertices = frontier % n
        counts, slots = csr.neighbor_slots(vertices)
        # A neighbor's code is its frontier cell's row base plus its id.
        codes = np.repeat(frontier - vertices, counts)
        codes += csr.indices[slots]
        codes = codes[flat[codes] == sentinel]
        if codes.size == 0:
            break
        flat[codes] = step
        if step == length_bound:
            break
        if codes.size * _DENSE_FRONTIER_SHARE < flat.size:
            frontier = np.unique(codes)
        else:
            frontier = np.flatnonzero(flat == step)
    return block


# ----------------------------------------------------------------------
# the store seam
# ----------------------------------------------------------------------
def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (which stays writable)."""
    view = array.view()
    view.setflags(write=False)
    return view


class DistanceStore:
    """Row-block interface over one symmetric L-bounded distance matrix.

    The matrix is symmetric, so this interface is complete: column gathers
    are ``rows(cols).T`` and a delta commit is one symmetric
    :meth:`write_rows`.  ``rows`` always returns a *fresh* slab the caller
    may mutate; writes only go through :meth:`write_rows`.  Streaming
    consumers read :meth:`blocks` instead, which copies nothing.
    """

    num_vertices: int
    length_bound: int
    dtype: np.dtype

    @property
    def sentinel(self) -> int:
        """The dtype-local unreachable sentinel of this store's values."""
        return unreachable_value(self.dtype)

    def rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` slab of the given rows (any order, dups ok)."""
        raise NotImplementedError

    def write_rows(self, rows: np.ndarray, new_rows: np.ndarray) -> None:
        """Symmetric write: set ``D[rows, :] = new_rows`` and ``D[:, rows] = new_rows.T``."""
        raise NotImplementedError

    def blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """``(start, slab)`` for streaming consumers, every row once, ascending.

        ``slab`` is a read-only view of the rows ``start, start + 1, …``
        held in the store itself, not a copy: it is valid until the next
        :meth:`write_rows`.
        """
        raise NotImplementedError

    def to_array(self) -> np.ndarray:
        """Materialize the full dense matrix (testing / small-n interop)."""
        raise NotImplementedError


class DenseStore(DistanceStore):
    """The dense tier: a thin adapter over today's ``n × n`` matrices."""

    def __init__(self, matrix: np.ndarray, length_bound: int) -> None:
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(
                f"dense store needs a square matrix, got {matrix.shape}")
        self._matrix = matrix
        self.num_vertices = int(matrix.shape[0])
        self.length_bound = int(length_bound)
        self.dtype = matrix.dtype

    @property
    def array(self) -> np.ndarray:
        """The backing matrix itself (zero-copy; owned by this store)."""
        return self._matrix

    def rows(self, block: Sequence[int]) -> np.ndarray:
        return self._matrix[np.asarray(block, dtype=np.int64)]

    def write_rows(self, rows: np.ndarray, new_rows: np.ndarray) -> None:
        self._matrix[rows, :] = new_rows
        self._matrix[:, rows] = new_rows.T

    def blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        yield 0, _read_only(self._matrix)

    def to_array(self) -> np.ndarray:
        return self._matrix


class TiledStore(DistanceStore):
    """The out-of-core tier: lazy row tiles, LRU cache, temp-file spill.

    Tiles are computed on first touch from the graph's CSR snapshot, held
    in an LRU dict bounded by ``budget_bytes``, and
    written to a fixed slot of a lazily-created temp file on eviction if
    its slot is missing or stale (the tile was computed or
    written since it was last spilled or loaded).  The file is private to
    this store and unlinked as soon as it is made, so it has no name and
    goes with its descriptor: :meth:`close`, the store's collection or the
    end of the process, however it ends, releases it.
    After the first :meth:`write_rows` the store is *edited*: every tile is
    materialized once (the CSR snapshot no longer describes the mutating
    graph) and from then on tiles only move between cache and spill file.

    Counters (``tile_computes`` / ``tile_loads`` / ``tile_evictions`` /
    ``tile_spills``) are the observability hooks the differential suite and
    the scale benchmark assert against.
    """

    def __init__(self, graph: Graph, length_bound: int, *,
                 tile_rows: Optional[int] = None,
                 budget_bytes: int = DEFAULT_SCALE_BUDGET_BYTES,
                 spill_dir: Optional[str] = None) -> None:
        if length_bound < 1:
            raise ConfigurationError(
                f"length_bound must be >= 1, got {length_bound}")
        if budget_bytes <= 0:
            raise ConfigurationError(
                f"budget_bytes must be positive, got {budget_bytes}")
        self._csr = CSRAdjacency.from_graph(graph)
        self.num_vertices = self._csr.num_vertices
        self.length_bound = int(length_bound)
        self.dtype = distance_dtype(length_bound)
        n = self.num_vertices
        if tile_rows is None:
            row_bytes = max(1, n) * self.dtype.itemsize
            tile_rows = max(16, budget_bytes // (8 * row_bytes))
        self.tile_rows = max(1, min(int(tile_rows), max(1, n)))
        self.num_tiles = -(-n // self.tile_rows) if n else 0
        self._budget = int(budget_bytes)
        self._spill_dir = spill_dir
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_bytes = 0
        # Cached tiles whose spill slot is missing or stale: only these
        # are written back on eviction.
        self._dirty: Set[int] = set()
        self._on_disk = np.zeros(max(1, self.num_tiles), dtype=bool)
        self._edited = False
        self._spill_fd: Optional[int] = None
        self._finalizer = None
        self.tile_computes = 0
        self.tile_loads = 0
        self.tile_evictions = 0
        self.tile_spills = 0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Drop the tile cache and release the spill file."""
        self._cache.clear()
        self._cache_bytes = 0
        self._dirty.clear()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._spill_fd = None

    @staticmethod
    def _cleanup_spill(fd: int, owner: int) -> None:
        # A forked process inherits the finalizer along with the store; the
        # descriptor stays the creating process's to release.
        if os.getpid() != owner:
            return
        try:
            os.close(fd)
        except OSError:
            pass

    def _ensure_spill_file(self) -> int:
        if self._spill_fd is None:
            fd, path = tempfile.mkstemp(prefix="repro-tiles-",
                                        dir=self._spill_dir)
            # Nothing opens the file by name: unlinked now, it goes with
            # its descriptor however the process ends.
            try:
                os.unlink(path)
            except OSError:
                os.close(fd)
                raise
            self._spill_fd = fd
            self._finalizer = weakref.finalize(
                self, TiledStore._cleanup_spill, fd, os.getpid())
        return self._spill_fd

    def private_copy(self, graph: Graph) -> "TiledStore":
        """A fresh store over ``graph`` with this store's tile geometry.

        For a forked process (:meth:`DistanceSession.privatize_store`): its
        tiles are computed lazily from ``graph`` into its own cache and
        spill file.
        """
        return TiledStore(graph, self.length_bound, tile_rows=self.tile_rows,
                          budget_bytes=self.budget_bytes,
                          spill_dir=self.spill_dir)

    @property
    def budget_bytes(self) -> int:
        """The LRU cache's byte budget."""
        return self._budget

    @property
    def spill_dir(self) -> Optional[str]:
        """Directory spill files are created in (``None`` = system tmp)."""
        return self._spill_dir

    def cache_bytes(self) -> int:
        """Bytes currently pinned by the LRU tile cache."""
        return self._cache_bytes

    # -- tile machinery ------------------------------------------------
    def _tile_span(self, tile_id: int) -> Tuple[int, int]:
        start = tile_id * self.tile_rows
        return start, min(self.num_vertices, start + self.tile_rows)

    def _slot_bytes(self) -> int:
        return self.tile_rows * self.num_vertices * self.dtype.itemsize

    def _compute_tile(self, tile_id: int) -> np.ndarray:
        start, stop = self._tile_span(tile_id)
        sources = np.arange(start, stop, dtype=np.int64)
        return csr_bounded_rows(self._csr, sources, self.length_bound,
                                dtype=self.dtype)

    def _spill(self, tile_id: int, tile: np.ndarray) -> None:
        fd = self._ensure_spill_file()
        os.pwrite(fd, tile.tobytes(), tile_id * self._slot_bytes())
        self._on_disk[tile_id] = True
        self._dirty.discard(tile_id)
        self.tile_spills += 1

    def _load_spilled(self, tile_id: int) -> np.ndarray:
        start, stop = self._tile_span(tile_id)
        count = (stop - start) * self.num_vertices * self.dtype.itemsize
        data = os.pread(self._spill_fd, count, tile_id * self._slot_bytes())
        tile = np.frombuffer(bytearray(data), dtype=self.dtype)
        self.tile_loads += 1
        return tile.reshape(stop - start, self.num_vertices)

    def _insert(self, tile_id: int, tile: np.ndarray) -> None:
        while self._cache and self._cache_bytes + tile.nbytes > self._budget:
            victim, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= evicted.nbytes
            if victim in self._dirty:
                self._spill(victim, evicted)
            self.tile_evictions += 1
        self._cache[tile_id] = tile
        self._cache_bytes += tile.nbytes

    def _tile(self, tile_id: int) -> np.ndarray:
        tile = self._cache.get(tile_id)
        if tile is not None:
            self._cache.move_to_end(tile_id)
            return tile
        if self._on_disk[tile_id]:
            tile = self._load_spilled(tile_id)
        else:
            tile = self._compute_tile(tile_id)
            self.tile_computes += 1
            self._dirty.add(tile_id)
        self._insert(tile_id, tile)
        return tile

    def _materialize_all(self) -> None:
        """Force every tile into existence (cache or spill file).

        Called on the first write: lazily computing a tile from the CSR
        snapshot after the graph started mutating would be stale.
        """
        for tile_id in range(self.num_tiles):
            self._tile(tile_id)

    # -- DistanceStore interface ---------------------------------------
    def rows(self, block: Sequence[int]) -> np.ndarray:
        block = np.asarray(block, dtype=np.int64)
        out = np.empty((block.size, self.num_vertices), dtype=self.dtype)
        if block.size == 0:
            return out
        tile_ids = block // self.tile_rows
        for tile_id in np.unique(tile_ids):
            selector = tile_ids == tile_id
            tile = self._tile(int(tile_id))
            out[selector] = tile[block[selector] - int(tile_id) * self.tile_rows]
        return out

    def write_rows(self, rows: np.ndarray, new_rows: np.ndarray) -> None:
        if not self._edited:
            self._materialize_all()
            self._edited = True
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        new_rows = np.ascontiguousarray(new_rows, dtype=self.dtype)
        tile_ids = rows // self.tile_rows
        for tile_id in range(self.num_tiles):
            start, stop = self._tile_span(tile_id)
            tile = self._tile(tile_id)
            # Transposed column update first, then the full row overwrite
            # for rows living in this tile — the same cell order as the
            # dense commit (row values win on the rows × rows overlap,
            # which is symmetric anyway).
            tile[:, rows] = new_rows[:, start:stop].T
            self._dirty.add(tile_id)
            selector = tile_ids == tile_id
            if selector.any():
                tile[rows[selector] - start] = new_rows[selector]

    def blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """The tiles in order, each a view of the cached tile itself.

        A tile is computed or loaded on first touch, and evicted, by the
        same LRU rules as for :meth:`rows`.
        """
        for tile_id in range(self.num_tiles):
            yield tile_id * self.tile_rows, _read_only(self._tile(tile_id))

    def to_array(self) -> np.ndarray:
        out = np.empty((self.num_vertices, self.num_vertices), dtype=self.dtype)
        for start, slab in self.blocks():
            out[start:start + len(slab)] = slab
        return out
