"""A mutable simple undirected graph.

The anonymization heuristics of the paper repeatedly try removing and
inserting single edges, evaluate the resulting opacity, and revert the
change.  The :class:`Graph` type is therefore designed around O(1) edge
mutation, O(1) adjacency membership tests, and cheap snapshots of the edge
set: :meth:`Graph.edge_array` is the one O(m) edge walk every bulk reader
shares, built in C and cached.  A single :meth:`Graph.add_edge` or
:meth:`Graph.remove_edge` drops the cache; :meth:`Graph.edit`, the path a
greedy step's edit takes, carries it forward instead.  :meth:`Graph.copy`
is copy-on-write: the clone shares the per-vertex neighbour sets, and each
graph copies a vertex's set the first time it writes it.  Vertices are
integers ``0 .. n-1`` so distance matrices and NumPy adjacency exports can
index directly by vertex id.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import GraphError, InvalidEdgeError

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) representation of an undirected edge."""
    if u == v:
        raise InvalidEdgeError(f"self-loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def check_vertex(v: int, num_vertices: int) -> None:
    """Raise :class:`GraphError` unless ``v`` is a vertex ``0 .. num_vertices - 1``."""
    if not 0 <= v < num_vertices:
        raise GraphError(
            f"vertex {v} out of range for graph with {num_vertices} vertices")


def validate_members(at: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     codes: np.ndarray, present: np.ndarray, gained: np.ndarray,
                     num_vertices: int) -> np.ndarray:
    """Raise where applying the members in order would; return the live ones.

    The batch form of :meth:`Graph.check_edit`.  Row ``r`` of ``at`` is one
    candidate and column ``k`` an edit of cell ``at[r, k]`` (negative =
    padding).  Cell ``c`` is the pair ``(lo[c], hi[c])``, ``lo <= hi``, with
    ``codes[c]`` unique to the pair among pairs of vertices ``0 ..
    num_vertices - 1`` and ``present[c]`` whether it is an edge; ``gained``
    (shaped like ``at``) flags insertions.  Each candidate removes
    its removal members in column order, then inserts its insertions, as
    :meth:`Graph.remove_edge` and :meth:`Graph.add_edge` would: the first
    self-loop, out-of-range vertex, absent removal or present insertion
    of the first bad candidate raises their error.  Returns the live
    members: a removal re-inserted by the same candidate nets to nothing,
    so neither of the two is live, nor is padding.
    """
    pad = at < 0
    if not codes.size:  # no cells: every member is padding
        return ~pad
    # A member's verdict reads only the members applied before it, so a
    # code a broken cell shares with another pair misleads no verdict up
    # to the first bad member, the one that raises.
    broken = (lo == hi) | (lo < 0) | (hi >= num_vertices)
    broken = broken[at] if broken.any() else False
    present = present[at]
    width = at.shape[1]
    # Whether each member repeats the pair of an earlier member of its
    # candidate, one column pair at a time (widths are small).
    member = np.where(pad, -1, codes[at]) if width > 1 else None
    repeats = [(k, j, (member[:, k] == member[:, j]) & ~pad[:, k])
               for k in range(1, width) for j in range(k)]
    if not any(hit.any() for _, _, hit in repeats):
        # No pair repeats within a candidate: each member is judged alone.
        bad = (broken | (present == gained)) & ~pad
        if bad.any():
            _raise_first(at, lo, hi, num_vertices, bad & ~gained, bad & gained)
        return ~pad
    removal, insertion = ~pad & ~gained, ~pad & gained
    repeat = np.zeros(at.shape + (width,), dtype=bool)
    for k, j, hit in repeats:
        repeat[:, k, j] = hit
    same = repeat | repeat.transpose(0, 2, 1)
    removed_before = (repeat & removal[:, None, :]).any(axis=2)
    removed_ever = (same & removal[:, None, :]).any(axis=2)
    inserted_before = (repeat & insertion[:, None, :]).any(axis=2)
    _raise_first(at, lo, hi, num_vertices,
                 removal & (broken | ~present | removed_before),
                 insertion & (broken | present & ~removed_ever
                              | inserted_before))
    cancelled = (same & (removal[:, :, None] & insertion[:, None, :]
                         | insertion[:, :, None] & removal[:, None, :])).any(axis=2)
    return ~pad & ~cancelled


def _raise_first(at: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 num_vertices: int, bad_removal: np.ndarray,
                 bad_insertion: np.ndarray) -> None:
    """Raise for the first bad member of the first bad candidate, if any."""
    bad = bad_removal.any(axis=1) | bad_insertion.any(axis=1)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        if bad_removal[row].any():
            column, state = int(np.argmax(bad_removal[row])), "not present"
        else:
            column, state = int(np.argmax(bad_insertion[row])), "already present"
        u, v = int(lo[at[row, column]]), int(hi[at[row, column]])
        normalize_edge(u, v)
        check_vertex(u, num_vertices)
        check_vertex(v, num_vertices)
        raise InvalidEdgeError(f"edge ({u}, {v}) {state}")


def splice(array: np.ndarray, gone, at: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """``np.insert(np.delete(array, gone), at, values)`` for a 1-D ``array``.

    ``gone`` lists distinct positions of ``array`` to drop; ``values[k]``
    then goes in before the entry at position ``at[k]`` of what is left
    (``at`` ascending; equal positions keep the order of ``values``).
    A few C-level passes: numpy's pair spends tens of microseconds in
    Python per call, which outweighs the copies on a small graph's arrays.
    """
    if len(gone):
        keep = np.ones(array.size, dtype=bool)
        keep[gone] = False
        array = array[keep]
    if not len(at):
        return array
    spot = at + np.arange(len(at))
    out = np.empty(array.size + len(at), dtype=array.dtype)
    slots = np.ones(out.size, dtype=bool)
    slots[spot] = False
    out[slots] = array
    out[spot] = values
    return out


class Graph:
    """Simple undirected graph (no self-loops, no parallel edges).

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertices are ``0 .. num_vertices - 1``.
    edges:
        Optional iterable of ``(u, v)`` pairs to add at construction time.

    Examples
    --------
    >>> g = Graph(4, edges=[(0, 1), (1, 2)])
    >>> g.has_edge(1, 0)
    True
    >>> g.degree(1)
    2
    """

    __slots__ = ("_num_vertices", "_adjacency", "_num_edges", "_edge_array",
                 "_edge_codes", "_owned")

    def __init__(self, num_vertices: int, edges: Optional[Iterable[Edge]] = None) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._num_vertices = int(num_vertices)
        self._adjacency: List[Set[int]] = [set() for _ in range(self._num_vertices)]
        self._num_edges = 0
        self._edge_array: Optional[np.ndarray] = None
        self._edge_codes: Optional[np.ndarray] = None
        # ``None``: every neighbour set is this graph's own.  Otherwise a
        # set is shared with a copy until its flag here is set.
        self._owned: Optional[bytearray] = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges in the graph."""
        return self._num_edges

    def vertices(self) -> range:
        """Iterate over vertex ids ``0 .. n-1``."""
        return range(self._num_vertices)

    def neighbors(self, v: int) -> FrozenSet[int]:
        """Return the neighbor set of ``v`` as an immutable snapshot."""
        self._check_vertex(v)
        return frozenset(self._adjacency[v])

    def adjacency(self, v: int) -> Set[int]:
        """Return the live adjacency set of ``v`` (do not mutate).

        Valid until the graph's next write: a write may replace a set it
        shares with a copy by a private one.
        """
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Return the degree of vertex ``v``."""
        self._check_vertex(v)
        return len(self._adjacency[v])

    def degrees(self) -> List[int]:
        """Return the degree of every vertex, indexed by vertex id."""
        return [len(adj) for adj in self._adjacency]

    def degree_array(self) -> np.ndarray:
        """Return the degree sequence as a NumPy integer array."""
        return np.fromiter(map(len, self._adjacency), dtype=np.int64,
                           count=self._num_vertices)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in sorted canonical ``(u, v)`` order, ``u < v``.

        The order is a function of the edge *content* only, never of the
        mutation history.  Python sets iterate in a history-dependent order
        (deletions leave holes, table sizes depend on peak occupancy), and
        the greedy candidate lists draw tie-breaks from a seeded RNG in
        this order — a checkpoint-resumed pass rebuilds its adjacency sets
        from scratch and would silently diverge from the uninterrupted run
        if this order were left history-dependent.
        """
        for u in range(self._num_vertices):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only int64 ``(m, 2)`` array, in :meth:`edges` order.

        Built in one C-level pass (the adjacency sets chained into
        ``np.fromiter``, then one sort of the ``u·n + v`` codes) and cached,
        so every bulk reader of one graph state shares a single walk.  A
        single :meth:`add_edge` or :meth:`remove_edge` drops the cache, so a
        loop of them costs O(1) per edge; :meth:`edit` carries the cache
        forward instead (a searchsorted delete and insert on the sorted
        codes, then one ``divmod``), so a greedy run never walks the sets
        again.  The carried arrays are new ones, so a :meth:`copy`, which
        shares them, keeps the ones it was taken with.
        """
        if self._edge_array is None:
            n = self._num_vertices
            heads = np.fromiter(chain.from_iterable(self._adjacency),
                                dtype=np.int64, count=2 * self._num_edges)
            tails = np.repeat(np.arange(n, dtype=np.int64), self.degree_array())
            upper = tails < heads
            self._adopt_snapshot(np.sort(tails[upper] * n + heads[upper]))
        return self._edge_array

    def edge_codes(self) -> np.ndarray:
        """The sorted flat codes ``u·n + v`` of :meth:`edge_array`'s rows (read-only).

        Cached and carried forward with the array.
        """
        self.edge_array()
        return self._edge_codes

    def edge_set(self) -> Set[Edge]:
        """Return a snapshot of the edge set (canonical tuples)."""
        return set(map(tuple, self.edge_array().tolist()))

    def edge_list(self) -> List[Edge]:
        """Return a sorted list of edges (canonical tuples)."""
        return list(map(tuple, self.edge_array().tolist()))

    def non_edges(self) -> Iterator[Edge]:
        """Iterate over all vertex pairs that are *not* edges (u < v)."""
        for u in range(self._num_vertices):
            adj = self._adjacency[u]
            for v in range(u + 1, self._num_vertices):
                if v not in adj:
                    yield (u, v)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert the edge ``{u, v}``.

        Raises
        ------
        InvalidEdgeError
            If the edge is a self-loop or already present.
        """
        u, v = normalize_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adjacency[u]:
            raise InvalidEdgeError(f"edge ({u}, {v}) already present")
        self._writable(u).add(v)
        self._writable(v).add(u)
        self._num_edges += 1
        self._edge_array = self._edge_codes = None

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        InvalidEdgeError
            If the edge is not present.
        """
        u, v = normalize_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adjacency[u]:
            raise InvalidEdgeError(f"edge ({u}, {v}) not present")
        self._writable(u).discard(v)
        self._writable(v).discard(u)
        self._num_edges -= 1
        self._edge_array = self._edge_codes = None

    def check_edit(self, removals: Iterable[Edge], insertions: Iterable[Edge]
                   ) -> Tuple[List[Edge], List[Edge]]:
        """Raise where removing ``removals`` then inserting ``insertions`` would.

        Each removal must be present and each insertion absent, in the
        state the edit's earlier operations leave; the error is the one
        the sequential :meth:`remove_edge` and :meth:`add_edge` calls would
        raise first.  Nothing changes.  Returns the canonical removals and
        insertions.
        """
        changed: Dict[Edge, bool] = {}
        checked: Tuple[List[Edge], List[Edge]] = ([], [])
        for present, edges, out in ((False, removals, checked[0]),
                                    (True, insertions, checked[1])):
            for u, v in edges:
                edge = normalize_edge(int(u), int(v))
                self._check_vertex(edge[0])
                self._check_vertex(edge[1])
                if changed.get(edge, edge[1] in self._adjacency[edge[0]]) == present:
                    state = "already present" if present else "not present"
                    raise InvalidEdgeError(f"edge {edge} {state}")
                changed[edge] = present
                out.append(edge)
        return checked

    def edit(self, removals: Iterable[Edge], insertions: Iterable[Edge]
             ) -> Tuple[List[Edge], List[Edge]]:
        """Remove ``removals``, then insert ``insertions``, as one edit.

        Validated by :meth:`check_edit` before anything changes, so an
        invalid edit raises and leaves the graph as it was.  A cached
        snapshot is carried forward: the removed edges' codes are deleted
        and the inserted ones inserted at their searchsorted positions,
        and :meth:`edge_array` is decoded from the new codes, O(m) in C
        with no walk over the adjacency sets.  Returns the canonical
        removals and insertions.
        """
        removals, insertions = self.check_edit(removals, insertions)
        writable = self._writable
        for u, v in removals:
            writable(u).discard(v)
            writable(v).discard(u)
        for u, v in insertions:
            writable(u).add(v)
            writable(v).add(u)
        self._num_edges += len(insertions) - len(removals)
        codes = self._edge_codes
        if codes is not None:
            n = self._num_vertices
            gone = np.searchsorted(codes, sorted(u * n + v for u, v in removals))
            added = np.array(sorted(u * n + v for u, v in insertions),
                             dtype=np.int64)
            # Insertion points among the codes left once ``gone`` is dropped.
            at = np.searchsorted(codes, added)
            at -= np.searchsorted(gone, at)
            self._adopt_snapshot(splice(codes, gone, at, added))
        return removals, insertions

    def add_edge_if_absent(self, u: int, v: int) -> bool:
        """Insert ``{u, v}`` if absent; return whether an insertion happened."""
        u, v = normalize_edge(u, v)
        if self.has_edge(u, v):
            return False
        self.add_edge(u, v)
        return True

    def remove_edge_if_present(self, u: int, v: int) -> bool:
        """Remove ``{u, v}`` if present; return whether a removal happened."""
        u, v = normalize_edge(u, v)
        if not self.has_edge(u, v):
            return False
        self.remove_edge(u, v)
        return True

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of this graph, copy-on-write.

        The clone shares this graph's neighbour sets, and both give up
        their ownership of them: each copies a vertex's set the first time
        it writes it (:meth:`add_edge`, :meth:`remove_edge`, :meth:`edit`),
        so a copy costs O(n), not O(n + m), and neither sees the other's
        writes.
        """
        n = self._num_vertices
        clone = Graph._from_adjacency(list(self._adjacency), self._num_edges)
        self._owned = bytearray(n)
        clone._owned = bytearray(n)
        # Read-only and replaced, never written, so shareable.
        clone._edge_array = self._edge_array
        clone._edge_codes = self._edge_codes
        return clone

    def adjacency_matrix(self, dtype=np.bool_) -> np.ndarray:
        """Return the dense symmetric adjacency matrix of the graph."""
        n = self._num_vertices
        matrix = np.zeros((n, n), dtype=dtype)
        edges = self.edge_array()
        matrix[edges[:, 0], edges[:, 1]] = True
        matrix[edges[:, 1], edges[:, 0]] = True
        return matrix

    def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Return the induced subgraph on ``vertices`` plus the relabeling map.

        The returned mapping goes from the original vertex id to the id used
        in the new graph (ids are assigned in the order of ``vertices``).
        """
        mapping = {old: new for new, old in enumerate(dict.fromkeys(vertices))}
        sub = Graph(len(mapping))
        for old_u, new_u in mapping.items():
            for old_v in self._adjacency[old_u]:
                if old_v in mapping and old_u < old_v:
                    sub.add_edge(new_u, mapping[old_v])
        return sub, mapping

    def connected_components(self) -> List[List[int]]:
        """Return the connected components as lists of vertex ids."""
        seen = [False] * self._num_vertices
        components: List[List[int]] = []
        for start in range(self._num_vertices):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor in self._adjacency[node]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the graph has a single connected component."""
        if self._num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._num_vertices == other._num_vertices
                and np.array_equal(self.edge_array(), other.edge_array()))

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    def __len__(self) -> int:
        return self._num_vertices

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self._num_vertices}, num_edges={self._num_edges})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_adjacency(cls, adjacency: List[Set[int]],
                        num_edges: Optional[int] = None) -> "Graph":
        """Adopt ``adjacency``, symmetric neighbour sets without self-loops.

        The bulk builder behind :meth:`copy` and the generators, which fill
        plain sets in local loops: the list and its sets are taken as they
        are, unchecked.  ``num_edges`` defaults to the sets' size sum halved.
        """
        graph = cls(0)
        graph._num_vertices = len(adjacency)
        graph._adjacency = adjacency
        graph._num_edges = (sum(map(len, adjacency)) // 2
                            if num_edges is None else num_edges)
        return graph

    @classmethod
    def from_edge_list(cls, edges: Iterable[Edge], num_vertices: Optional[int] = None) -> "Graph":
        """Build a graph from an edge list, inferring the vertex count if needed."""
        edge_list = [normalize_edge(u, v) for u, v in edges]
        if num_vertices is None:
            num_vertices = 1 + max((max(e) for e in edge_list), default=-1)
        graph = cls(num_vertices)
        for u, v in edge_list:
            graph.add_edge_if_absent(u, v)
        return graph

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _adopt_snapshot(self, codes: np.ndarray) -> None:
        """Cache the sorted edge ``codes`` and the ``(m, 2)`` array they encode."""
        edges = np.empty((codes.size, 2), dtype=np.int64)
        np.divmod(codes, self._num_vertices, out=(edges[:, 0], edges[:, 1]))
        codes.setflags(write=False)
        edges.setflags(write=False)
        self._edge_codes, self._edge_array = codes, edges

    def _writable(self, v: int) -> Set[int]:
        """The neighbour set of ``v``, first copied if a copy shares it."""
        owned = self._owned
        if owned is not None and not owned[v]:
            self._adjacency[v] = set(self._adjacency[v])
            owned[v] = 1
        return self._adjacency[v]

    def _check_vertex(self, v: int) -> None:
        check_vertex(v, self._num_vertices)
