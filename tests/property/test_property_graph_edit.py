"""Edits carried forward equal state rebuilt from scratch.

:meth:`Graph.edit` carries a cached edge snapshot across an edit with one
sorted delete and insert, and :meth:`TwoHopCounts.apply` edits its CSR in
place (:meth:`CSRAdjacency.edited`).  Random sequences of removals,
insertions and mixed edits, including edits that empty a vertex's row,
touch one vertex twice, re-insert a removed edge or remove the last edge,
must leave:

* the snapshot equal to the :meth:`Graph.edge_array` of a graph rebuilt
  from :meth:`Graph.edges`, and a copy taken between edits with the
  snapshot it was taken with;
* the counts' CSR equal, array for array, to
  :meth:`CSRAdjacency.from_edges` of the new edge set, and the counts
  equal to a fresh :class:`TwoHopCounts`, on the plane and on the sorted
  codes alike.

An invalid edit raises the error the sequential :meth:`Graph.remove_edge`
and :meth:`Graph.add_edge` calls would raise first, and changes neither
the graph nor its snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, InvalidEdgeError
from repro.graph.distance_store import CSRAdjacency
from repro.graph.graph import Graph
from repro.graph.two_hop import TwoHopCounts
from tests.property.strategies import graphs

#: The shapes of edit the sequences draw from.
KINDS = ("remove", "insert", "mixed", "reinsert", "empty row", "one vertex twice",
         "remove all")


@st.composite
def edits(draw, graph: Graph):
    """One valid edit of ``graph``, of a drawn kind, as ``(removals, insertions)``.

    Edges come in either orientation.  A kind the graph cannot serve (no
    edge to remove, no pair to insert) falls back to the empty edit.
    """
    present = graph.edge_list()
    absent = list(graph.non_edges())
    kind = draw(st.sampled_from(KINDS))
    removals, insertions = [], []
    if kind in ("remove", "mixed", "reinsert") and present:
        removals = draw(st.lists(st.sampled_from(present), min_size=1,
                                 max_size=3, unique=True))
    if kind in ("insert", "mixed") and absent:
        insertions = draw(st.lists(st.sampled_from(absent), min_size=1,
                                   max_size=3, unique=True))
    if kind == "reinsert" and removals:
        insertions = [removals[0]]
    if kind == "empty row" and present:
        vertex = draw(st.sampled_from(sorted({u for edge in present
                                               for u in edge})))
        removals = [edge for edge in present if vertex in edge]
    if kind == "one vertex twice":
        vertex = draw(st.integers(0, graph.num_vertices - 1))
        removals = [edge for edge in present if vertex in edge][:2]
        insertions = [edge for edge in absent if vertex in edge][:2]
    if kind == "remove all":
        removals = list(present)
    flip = draw(st.booleans())
    return ([edge[::-1] if flip else edge for edge in removals],
            [edge[::-1] if not flip else edge for edge in insertions])


def rebuilt(graph: Graph) -> Graph:
    return Graph(graph.num_vertices, graph.edges())


def assert_csr_equal(csr: CSRAdjacency, graph: Graph) -> None:
    edges = rebuilt(graph).edge_array()
    expected = CSRAdjacency.from_edges(graph.num_vertices, edges[:, 0],
                                       edges[:, 1])
    assert np.array_equal(csr.indptr, expected.indptr)
    assert np.array_equal(csr.indices, expected.indices)


class TestCarriedEdits:
    @pytest.mark.parametrize("plane", [True, False])
    @given(graphs(min_vertices=2, max_vertices=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_snapshot_csr_and_counts_match_rebuilds(self, plane, graph, data):
        # Building the counts caches the graph's snapshot too.
        counts = TwoHopCounts(graph, plane=plane)
        copies = []
        for _ in range(data.draw(st.integers(1, 6))):
            removals, insertions = data.draw(edits(graph))
            copy = graph.copy()
            copies.append((copy, copy.edge_array(), copy.edge_list()))
            removals, insertions = graph.edit(removals, insertions)
            assert graph._edge_array is not None  # carried, not dropped
            fresh = rebuilt(graph)
            assert np.array_equal(graph.edge_array(), fresh.edge_array())
            assert np.array_equal(graph.edge_codes(), fresh.edge_codes())
            assert not graph.edge_array().flags.writeable
            counts.apply(removals, insertions)
            assert_csr_equal(counts._csr, graph)
            expected = TwoHopCounts(fresh, plane=plane)
            assert np.array_equal(counts.within_pairs(), expected.within_pairs())
            assert all(np.array_equal(a, b) for a, b in
                       zip(counts.pairs, expected.pairs))
        for copy, snapshot, edges in copies:
            assert copy.edge_array() is snapshot
            assert copy.edge_list() == edges

    @given(graphs(min_vertices=2, max_vertices=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_csr_edited_equals_from_edges(self, graph, data):
        csr = CSRAdjacency.from_graph(graph)
        for _ in range(data.draw(st.integers(1, 6))):
            removals, insertions = graph.edit(*data.draw(edits(graph)))
            csr = csr.edited(np.array(removals, dtype=np.int64).reshape(-1, 2),
                             np.array(insertions, dtype=np.int64).reshape(-1, 2))
            assert_csr_equal(csr, graph)

    @given(graphs(min_vertices=2, max_vertices=10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edits_without_a_snapshot_build_none(self, graph, data):
        edit = data.draw(edits(graph))
        graph = rebuilt(graph)  # built edge by edge: no snapshot cached
        graph.edit(*edit)
        assert graph._edge_array is None
        assert np.array_equal(graph.edge_array(), rebuilt(graph).edge_array())


def sequentially(graph: Graph, removals, insertions) -> None:
    for u, v in removals:
        graph.remove_edge(u, v)
    for u, v in insertions:
        graph.add_edge(u, v)


@st.composite
def invalid_edits(draw, graph: Graph):
    """A valid edit of ``graph`` with one bad operation spliced in."""
    removals, insertions = draw(edits(graph))
    n = graph.num_vertices
    vertex = draw(st.integers(0, n - 1))
    removed = {tuple(sorted(edge)) for edge in removals}
    kept = [edge for edge in graph.edge_list() if edge not in removed]
    absent = list(graph.non_edges())
    bad = {"self-loop": (vertex, vertex),
           "out of range": (vertex, n + draw(st.integers(0, 2)))}
    if absent:
        bad["absent removal"] = draw(st.sampled_from(absent))
    if kept:
        # An edge the edit removes first could be inserted again.
        bad["present insertion"] = draw(st.sampled_from(kept))
    kind = draw(st.sampled_from(sorted(bad)))
    if kind == "present insertion" or (kind in ("self-loop", "out of range")
                                       and draw(st.booleans())):
        ops = insertions
    else:
        ops = removals
    ops.insert(draw(st.integers(0, len(ops))), bad[kind])
    if draw(st.booleans()) and (removals or insertions):
        # A repeat of an earlier operation is invalid too.
        ops = removals if removals else insertions
        ops.append(ops[0])
    return removals, insertions


class TestInvalidEdits:
    @given(graphs(min_vertices=2, max_vertices=10), st.data())
    @settings(max_examples=120, deadline=None)
    def test_raises_the_sequential_error_and_changes_nothing(self, graph, data):
        removals, insertions = data.draw(invalid_edits(graph))
        snapshot, edges = graph.edge_array(), graph.edge_list()
        with pytest.raises((InvalidEdgeError, GraphError)) as expected:
            sequentially(graph.copy(), removals, insertions)
        with pytest.raises(expected.type) as raised:
            graph.edit(removals, insertions)
        assert str(raised.value) == str(expected.value)
        assert graph.edge_array() is snapshot
        assert graph.edge_list() == edges
        assert rebuilt(graph).edge_list() == edges
        assert graph.num_edges == len(edges)
