"""Exact L = 2 edit footprints from common-neighbour counts.

For ``i != j``, ``d(i, j) <= 2`` exactly when ``A[i, j] = 1`` or the
common-neighbour count ``c[i, j] = |N(i) ∩ N(j)|`` is positive.  An edit of
edge ``{m, x}`` changes ``c`` only on the cells ``{x, w}`` with ``w`` a
neighbour of ``m`` (and the mirror image), so a candidate edit's effect on
the within-2 pairs is local: O(deg u + deg v) cells per member edge, never
a distance slab.

:class:`TwoHopCounts` keeps each pair's state packed as ``2·c + A`` (zero
exactly when the pair is not within 2 hops), keyed by the pair's
upper-triangle flat code (:func:`triu_flat`), plus a CSR snapshot of the
adjacency.  The states live in one of two representations, fixed when
the counts are built:

* a *plane*: one triu array of ``n(n−1)/2`` states in the narrowest
  unsigned dtype that holds ``2(n − 2) + 1`` (:func:`state_dtype`), so a
  lookup is one gather and an applied edit writes only its footprint's
  cells;
* *sorted codes*: one sorted int64 array of the codes of the pairs within
  2 hops (the edges and the pairs with ``c > 0``) with their states
  aligned, so a lookup is one binary search and an applied edit splices
  both arrays.  Memory is O(2-paths + edges), never ``n²``.

It scores candidate edits without changing state
(:meth:`TwoHopCounts.flips`, over members the session has already checked
and reduced to the live ones; it validates nothing itself) and folds an
applied edit in, returning the
pairs it flips (:meth:`TwoHopCounts.apply`); both go through one
footprint routine.  An applied edit edits the CSR in place
(:meth:`~repro.graph.distance_store.CSRAdjacency.edited`): only the
edit's own entries move, and the result equals a CSR rebuilt from the new
edge set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.graph.distance_store import CSRAdjacency
from repro.graph.graph import Edge, Graph, normalize_edge, splice

#: Footprint entries (2-paths a sub-chunk's member edits break or create)
#: per :meth:`TwoHopCounts.flips` pass, bounding its temporaries to a few
#: MiB however large the candidates' degrees are.
FOOTPRINT_CHUNK = 1 << 17


def triu_flat(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Flat position of pair ``(i, j)``, ``i < j``, in ``triu_indices(n, 1)`` order.

    That is ``i·(2n−i−1)/2 + (j−i−1)``, folded to five array operations.
    """
    return i * (2 * n - 3 - i) // 2 + j - 1


def _pair_flat(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """:func:`triu_flat` of the unordered pairs ``{a[k], b[k]}``."""
    return triu_flat(np.minimum(a, b), np.maximum(a, b), n)


@lru_cache(maxsize=8)
def _triu_row_starts(n: int) -> np.ndarray:
    """Flat position of each row's first pair ``(i, i + 1)`` (read-only)."""
    rows = np.arange(n, dtype=np.int64)
    starts = triu_flat(rows, rows + 1, n)
    starts.setflags(write=False)
    return starts


def triu_unflat(flat: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`triu_flat`: a searchsorted over the row starts."""
    row_starts = _triu_row_starts(n)
    i = np.searchsorted(row_starts, flat, side="right") - 1
    return i, flat - row_starts[i] + i + 1


def state_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype of a packed state ``2·c + A`` at ``n`` vertices.

    A pair has at most ``n − 2`` common neighbours, so the largest state
    is ``2(n − 2) + 1``.
    """
    return np.min_scalar_type(max(2 * n - 3, 0))


def group_sums(keys: np.ndarray, values: np.ndarray, spread: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` ascending, with the sum and count of their ``values``.

    ``keys`` are non-negative and every value lies in ``[0, spread)``: each
    key carries its value in its low digits, so one ``np.sort`` groups
    them (an ``argsort`` or a ``np.unique`` inverse costs several times
    more).
    """
    packed = np.sort(keys * spread + values)
    grouped = packed // spread
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    if not starts.size:
        return grouped, grouped.copy(), grouped.copy()
    return (grouped[starts], np.add.reduceat(packed % spread, starts),
            np.diff(np.append(starts, packed.size)))


class TwoHopCounts:
    """Common-neighbour counts of a graph, and exact L = 2 edit footprints.

    Built from the graph's adjacency; afterwards the graph is never read
    again, and only :meth:`apply` changes the state.  ``plane`` picks the
    representation (see the module docstring): a triu plane of
    ``n(n−1)/2`` states when true, sorted codes otherwise.  Every query
    and edit answers the same either way.
    """

    def __init__(self, graph: Graph, plane: bool = False) -> None:
        n = self._n = graph.num_vertices
        edges = graph.edge_array()
        csr = CSRAdjacency.from_edges(n, edges[:, 0], edges[:, 1])
        # Every pair of neighbours of every middle vertex is one 2-path.
        ends = np.repeat(csr.indptr[1:], np.diff(csr.indptr))
        later = ends - np.arange(ends.size) - 1
        first = np.repeat(np.arange(ends.size), later)
        second = first + 1 + np.arange(first.size) - np.repeat(
            np.cumsum(later) - later, later)
        a, b = csr.indices[first], csr.indices[second]
        pairs, counts = np.unique(_pair_flat(a, b, n), return_counts=True)
        edge_codes = triu_flat(edges[:, 0], edges[:, 1], n)
        self._csr = csr
        if plane:
            self._plane = np.zeros(n * (n - 1) // 2, dtype=state_dtype(n))
            self._plane[pairs] = 2 * counts
            self._plane[edge_codes] += 1
            self._codes = self._states = None
            return
        self._plane = None
        # A sorted merge: ``np.union1d`` hashes, many times slower here.
        merged = np.sort(np.concatenate([pairs, edge_codes]))
        self._codes = merged[np.diff(merged, prepend=-1) != 0]
        self._states = np.zeros(self._codes.size, dtype=np.int64)
        self._states[np.searchsorted(self._codes, pairs)] = 2 * counts
        self._states[np.searchsorted(self._codes, edge_codes)] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted flat codes of the pairs with ``c > 0``, and their counts."""
        if self._plane is not None:
            codes = np.flatnonzero(self._plane > 1)
            return codes, (self._plane[codes] >> 1).astype(np.int64)
        positive = self._states > 1
        return self._codes[positive], self._states[positive] >> 1

    def within_pairs(self) -> np.ndarray:
        """Sorted flat codes of the pairs ``i < j`` with ``d(i, j) <= 2``.

        The sorted codes themselves, or one scan of the plane.
        """
        if self._plane is None:
            return self._codes
        return np.flatnonzero(self._plane != 0)

    def path_edges(self, rows: np.ndarray, cols: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The edges on a path of length <= 2 between each pair ``(rows[k], cols[k])``.

        That is the edge ``(i, j)`` itself when present and ``(i, m)``,
        ``(m, j)`` for every common neighbour ``m``; returned as int64
        ``(u, v)`` arrays, ``u < v``, in no particular order, with repeats.
        """
        n = self._n
        direct = _pair_flat(rows, cols, n)
        direct = direct[self._is_edge(direct)]
        source, middle = self._csr.gather(rows)
        far = cols[source]
        legs = _pair_flat(middle, far, n)
        common = self._is_edge(legs) & (middle != far)
        near_legs = _pair_flat(rows[source], middle, n)
        return triu_unflat(np.concatenate([direct, legs[common],
                                           near_legs[common]]), n)

    # ------------------------------------------------------------------
    # candidate edits
    # ------------------------------------------------------------------
    def flips(self, endpoints: np.ndarray, members: np.ndarray,
              gained: np.ndarray
              ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """Within-2 pairs each candidate's edit flips, in footprint-sized chunks.

        ``endpoints``, ``members`` and ``gained`` are as in
        :meth:`repro.core.opacity_session.OpacitySession.score_combinations`
        once it has checked them: row ``r`` of ``members`` names candidate
        ``r``'s live member edges (negative = padding or a member the
        candidate cancels), ``gained`` (shaped like ``members``) flags
        insertions.  Yields ``(start,
        stop, owner, flat, within)`` per chunk of candidates
        ``start:stop``: each flipped pair's candidate (relative to
        ``start``), flat code and whether it is within 2 hops after the
        edit.
        """
        live = members >= 0
        # A trailing zero cell serves the padding (and an empty batch).
        lo = np.append(np.minimum(endpoints[:, 0], endpoints[:, 1]), 0)[members]
        hi = np.append(np.maximum(endpoints[:, 0], endpoints[:, 1]), 0)[members]
        codes = np.where(live, triu_flat(lo, hi, self._n), -1)
        degree = np.append(np.diff(self._csr.indptr), 0)
        cost = (degree[np.where(live, lo, -1)] + degree[np.where(live, hi, -1)]
                + live).sum(axis=1)
        start = 0
        bounds = np.cumsum(cost)
        while start < members.shape[0]:
            # At least one candidate per chunk, however large its footprint.
            base = bounds[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(
                bounds, base + FOOTPRINT_CHUNK, side="right")))
            window = slice(start, stop)
            flat, owner, change, edited = self._footprint(
                lo[window], hi[window], codes[window], gained[window],
                live[window])
            before = self._state(flat)
            after = (before ^ edited) + 2 * change != 0
            flipped = (before != 0) != after
            yield start, stop, owner[flipped], flat[flipped], after[flipped]
            start = stop

    def apply(self, removals: Sequence[Edge], insertions: Sequence[Edge]
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold one applied edit (removals, then insertions) into the counts.

        Returns ``(flat, within, gone, spot)``: the pairs whose within-2
        membership the edit flips — their flat codes, lost pairs first,
        then the gained ones in sorted order, and whether each is within 2
        hops after the edit — and how :meth:`within_pairs` moved: the
        positions it dropped (the lost pairs) and the insertion points
        of the gained pairs, as :func:`~repro.graph.graph.splice` takes
        them.  An array aligned with :meth:`within_pairs` stays aligned by
        the same splice.  A plane writes its footprint's cells and moves
        nothing: ``gone`` and ``spot`` are ``None`` there.  The CSR
        takes the net edit in place (:meth:`CSRAdjacency.edited`).
        """
        removed = {normalize_edge(u, v) for u, v in removals}
        inserted = {normalize_edge(u, v) for u, v in insertions}
        # ``Graph.edit`` validated the edit; a removal it re-inserts nets
        # to nothing.
        edits = sorted(removed - inserted) + sorted(inserted - removed)
        if not edits:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=bool), empty, empty
        edges = np.array(edits, dtype=np.int64)
        num_removed = len(removed - inserted)
        ends = edges.T[:, None, :]
        gained = (np.arange(len(edits)) >= num_removed)[None, :]
        flat, _, change, edited = self._footprint(
            ends[0], ends[1], triu_flat(ends[0], ends[1], self._n), gained,
            np.ones(gained.shape, dtype=bool))
        # The footprint lists each pair once, so each cell takes its count
        # change and edge flip in one write; only footprint entries are
        # computed on.
        before = self._state(flat)
        after = (before ^ edited) + 2 * change
        lost = flat[(before != 0) & (after == 0)]
        new = (before == 0) & (after != 0)
        order = np.argsort(flat[new])
        added = flat[new][order]
        gone = spot = None
        if self._plane is not None:
            self._plane[flat] = after
        else:
            at = np.searchsorted(self._codes, flat)
            known = before != 0
            self._states[at[known]] = after[known]
            gone = np.sort(at[known & (after == 0)])
            # Insertion points among the codes left once ``gone`` is dropped.
            spot = np.searchsorted(self._codes, added)
            spot -= np.searchsorted(gone, spot)
            self._codes = splice(self._codes, gone, spot, added)
            self._states = splice(self._states, gone, spot, after[new][order])
        self._csr = self._csr.edited(edges[:num_removed], edges[num_removed:])
        return (np.concatenate([lost, added]),
                np.arange(lost.size + added.size) >= lost.size, gone, spot)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _state(self, flat: np.ndarray) -> np.ndarray:
        """The packed state ``2·c + A`` of each flat pair code (0 = not within 2)."""
        if self._plane is not None:
            return self._plane[flat]
        if not self._codes.size:
            return np.zeros(flat.shape, dtype=np.int64)
        at = np.searchsorted(self._codes, flat).clip(max=self._codes.size - 1)
        return np.where(self._codes[at] == flat, self._states[at], 0)

    def _is_edge(self, flat: np.ndarray) -> np.ndarray:
        """Whether each flat pair code is an edge."""
        return (self._state(flat) & 1).astype(bool)

    def _footprint(self, lo: np.ndarray, hi: np.ndarray, codes: np.ndarray,
                   gained: np.ndarray, live: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair a chunk's candidates touch, with its change of ``c``.

        Returns ``(flat, row, change, edited)``, one entry per distinct
        (candidate row, pair): the pair's flat code, the row, the net
        change of its common-neighbour count, and whether the candidate
        edits the pair itself.  A member edit of ``{m, x}`` breaks
        (removal) or creates (insertion) the 2-path ``x – m – w`` for every
        other neighbour ``w`` of ``m``; a path both of whose legs the
        candidate edits counts once, and a path the candidate also breaks
        on its other leg is not created.  Each member's own pair is listed
        too (with no count change), since its adjacency flips.  With one
        member per candidate every entry is already distinct; wider
        candidates are merged by :func:`group_sums` over ``flat · rows +
        row`` keys.
        """
        n, (rows, width) = self._n, lo.shape
        # Each candidate's live member codes, to test pairs against.
        member = np.where(live, codes, -1)
        row, column = np.nonzero(live)
        m_lo, m_hi = lo[row, column], hi[row, column]
        code, insert = codes[row, column], gained[row, column]
        # Both orientations of each member: middle vertex m, far end x.
        middle = np.concatenate([m_lo, m_hi])
        far = np.concatenate([m_hi, m_lo])
        source, other = self._csr.gather(middle)
        entry_row = np.concatenate([row, row])[source]
        entry_far = far[source]
        entry_insert = np.concatenate([insert, insert])[source]
        keep = other != entry_far
        if width > 1:
            # A removal keeps a doubly-broken path from its lower-coded leg
            # only; an insertion's path through a removed leg is never made.
            leg = _pair_flat(middle[source], other, n)
            both = (member[entry_row] == leg[:, None]).any(axis=1)
            keep &= np.where(entry_insert, ~both,
                             ~both | (np.concatenate([code, code])[source] < leg))
        flat = [_pair_flat(entry_far[keep], other[keep], n), code]
        owner = [entry_row[keep], row]
        change = [np.where(entry_insert[keep], 1, -1),
                  np.zeros(code.size, dtype=np.int64)]
        if width <= 1:
            own = np.zeros(flat[0].size + code.size, dtype=bool)
            own[flat[0].size:] = True
            return (np.concatenate(flat), np.concatenate(owner),
                    np.concatenate(change), own)
        # Paths both of whose legs are inserted: m's other neighbour is the
        # other insertion's far end, which no current adjacency lists.
        for a in range(width):
            for b in range(a + 1, width):
                pair = live[:, a] & live[:, b] & gained[:, a] & gained[:, b]
                if not pair.any():
                    continue
                for end_a, mid_a, end_b, mid_b in ((hi, lo, hi, lo), (hi, lo, lo, hi),
                                                   (lo, hi, hi, lo), (lo, hi, lo, hi)):
                    hit = np.flatnonzero(pair & (mid_a[:, a] == mid_b[:, b]))
                    x, w = end_a[hit, a], end_b[hit, b]
                    flat.append(_pair_flat(x, w, n))
                    owner.append(hit)
                    change.append(np.ones(hit.size, dtype=np.int64))
        keys, shifted, count = group_sums(
            np.concatenate(flat) * rows + np.concatenate(owner),
            np.concatenate(change) + 1, 3)
        flat, owner = np.divmod(keys, rows)
        return (flat, owner, shifted - count,
                (member[owner] == flat[:, None]).any(axis=1))
