"""Triangular matrices for geodesic distances.

The paper stores all-pairs geodesic distances in an upper-triangular matrix
(Section 5.1, Figure 4a).  :class:`TriangularMatrix` reproduces that storage
layout while also offering a dense NumPy view for the vectorized engines.
Distances that exceed the pruning threshold ``L`` or belong to mutually
unreachable pairs carry the sentinel :data:`UNREACHABLE`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

#: Canonical sentinel for "no path of interest" (unreachable or pruned
#: beyond L).  Matrices narrower than int32 carry the dtype-local sentinel
#: :func:`unreachable_value` instead; histogram keys and any value crossing
#: a dtype boundary are normalized back to this canonical constant.
UNREACHABLE: int = np.iinfo(np.int32).max


def distance_dtype(length_bound: int) -> np.dtype:
    """Smallest unsigned/signed dtype holding every distance ≤ L plus a sentinel.

    A bounded matrix only ever stores values in ``{0, ..., L}`` plus one
    "unreachable" sentinel, so uint8 suffices for L ≤ 254 (sentinel 255) and
    uint16 for L ≤ 65534 — roughly 4x less RAM and ``/dev/shm`` than the
    historical int32 tier.  Bounds beyond uint16 (including the unbounded
    :data:`UNREACHABLE` pseudo-bound) keep int32, whose sentinel is the
    canonical :data:`UNREACHABLE`.
    """
    if length_bound <= np.iinfo(np.uint8).max - 1:
        return np.dtype(np.uint8)
    if length_bound <= np.iinfo(np.uint16).max - 1:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def unreachable_value(dtype: np.dtype | type) -> int:
    """The dtype-local sentinel: the largest value the integer dtype holds.

    Every dtype produced by :func:`distance_dtype` reserves its maximum for
    the sentinel, so ``matrix <= L`` / ``matrix > L`` comparisons work
    unchanged and the sentinel is always at least ``L + 1``.
    """
    return int(np.iinfo(np.dtype(dtype)).max)


#: Largest matrix size whose triangle indices are worth pinning in memory
#: (each cached entry holds ~8·n² bytes); together with the bounded LRU this
#: caps the cache at a few tens of MB while covering every sampled size a
#:  sweep is realistically working on at once.
_TRIU_CACHE_MAX_N = 1024


def triu_pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``np.triu_indices(n, k=1)`` — the (row, col) arrays of all pairs.

    Every opacity evaluation scans the strict upper triangle of an ``n x n``
    distance matrix, and a greedy run performs thousands of evaluations at a
    handful of distinct sizes; caching the index arrays removes their
    regeneration from the hot path.  The arrays are marked read-only — take a
    copy before mutating (boolean/fancy indexing already returns copies).
    Sizes beyond :data:`_TRIU_CACHE_MAX_N` are computed per call rather than
    pinned (the arrays would dwarf the distance matrix itself).  The
    remaining callers all hold a dense matrix already (the stateless
    evaluator and distance summaries); the tiled tier's pruning pass keeps
    a sparse within-L set instead and never calls this.
    """
    if n > _TRIU_CACHE_MAX_N:
        return np.triu_indices(n, k=1)
    return _cached_triu_pair_indices(n)


@lru_cache(maxsize=8)
def _cached_triu_pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def block_within_pairs(slab: np.ndarray, start: int,
                       length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangle pairs within ``length`` of the distance rows in ``slab``.

    ``slab`` holds the rows ``start, start + 1, …`` of a symmetric bounded
    distance matrix.  Returns the int64 ``(rows, cols)`` of every pair
    ``i < j`` with ``slab[i - start, j] <= length``, in row-major order.
    Only the columns from ``start`` on can hold such a pair, so one
    ``flatnonzero`` over them and a ``divmod`` find every candidate cell.
    The sentinel is above any admissible ``length``, so one comparison
    covers both reachability and the threshold.
    """
    rows, cols = np.divmod(np.flatnonzero(slab[:, start:] <= length),
                           slab.shape[1] - start)
    upper = cols > rows
    return rows[upper] + start, cols[upper] + start


class TriangularMatrix:
    """Upper-triangular symmetric matrix over vertex pairs ``i < j``.

    Stores one ``int32`` per unordered pair in a flat array, the same
    information content as the triangular distance matrix of Figure 4a.
    """

    __slots__ = ("_n", "_data")

    def __init__(self, num_vertices: int, fill: int = UNREACHABLE) -> None:
        self._n = int(num_vertices)
        size = self._n * (self._n - 1) // 2
        self._data = np.full(size, fill, dtype=np.int32)

    @property
    def num_vertices(self) -> int:
        """Number of vertices indexed by this matrix."""
        return self._n

    def _index(self, i: int, j: int) -> int:
        if i == j:
            raise IndexError("diagonal entries (i == j) are not stored")
        if i > j:
            i, j = j, i
        if not 0 <= i < j < self._n:
            raise IndexError(f"pair ({i}, {j}) out of range for n={self._n}")
        # Row-major offset of the upper triangle excluding the diagonal.
        return i * (2 * self._n - i - 1) // 2 + (j - i - 1)

    def __getitem__(self, pair: Tuple[int, int]) -> int:
        i, j = pair
        return int(self._data[self._index(i, j)])

    def __setitem__(self, pair: Tuple[int, int], value: int) -> None:
        i, j = pair
        self._data[self._index(i, j)] = value

    def pairs(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(i, j, value)`` for every stored pair with ``i < j``."""
        for i in range(self._n):
            for j in range(i + 1, self._n):
                yield i, j, int(self._data[self._index(i, j)])

    def to_dense(self) -> np.ndarray:
        """Return a dense symmetric ``n x n`` matrix (diagonal = 0)."""
        dense = np.full((self._n, self._n), UNREACHABLE, dtype=np.int32)
        np.fill_diagonal(dense, 0)
        for i, j, value in self.pairs():
            dense[i, j] = value
            dense[j, i] = value
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "TriangularMatrix":
        """Build a triangular matrix from a dense symmetric matrix."""
        n = dense.shape[0]
        matrix = cls(n)
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = int(dense[i, j])
        return matrix

    def copy(self) -> "TriangularMatrix":
        """Return a deep copy of this matrix."""
        clone = TriangularMatrix(self._n)
        clone._data = self._data.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriangularMatrix):
            return NotImplemented
        return self._n == other._n and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"TriangularMatrix(num_vertices={self._n})"
