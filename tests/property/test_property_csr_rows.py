"""Property-based differential tests of the sparse CSR row kernel.

:func:`~repro.graph.distance_store.csr_bounded_rows` computes L-bounded
distance rows by a sparse-frontier breadth-first search and serves every
tiled L_max computation, every thresholded child and the geodesic
histogram.  These tests hold it to the dense engine row for row:

* on edgeless graphs, graphs with isolated vertices and near-complete
  graphs, with the next frontier deduplicated always by ``np.unique``,
  always by one pass over the slab, or by the default switch between them;
* for sources that are unsorted, duplicated or empty;
* for L from 1 to 5 and L = n, under the default and explicit dtypes.

The tally that consumes the rows, :meth:`OpacityComputer.within_counts`,
is held to the dense tally and to a per-pair count over every tile size,
and the L ≥ 3 pruning set built from the same row-block walk keeps its
sorted-output contract.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OpacityComputer
from repro.core import opacity_session
from repro.graph import distance_store
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import CSRAdjacency, TiledStore, csr_bounded_rows
from repro.graph.graph import Graph
from repro.graph.matrices import unreachable_value
from repro.graph.two_hop import triu_flat
from tests.property.strategies import graphs, typings

#: Values of the dedup switch: 0 always takes ``np.unique``, ``sys.maxsize``
#: always takes the pass over the slab, ``None`` keeps the default.
DEDUP_SHARES = (0, sys.maxsize, None)


@st.composite
def kernel_graphs(draw, max_vertices: int = 12) -> Graph:
    """Random, edgeless, partly isolated or near-complete graphs."""
    shape = draw(st.sampled_from(("random", "edgeless", "isolated",
                                  "near-complete")))
    if shape == "edgeless":
        return Graph(draw(st.integers(1, max_vertices)), edges=[])
    if shape == "random":
        return draw(graphs(min_vertices=1, max_vertices=max_vertices))
    if shape == "isolated":
        core = draw(graphs(min_vertices=2, max_vertices=max_vertices - 3))
        extra = draw(st.integers(1, 3))
        graph = Graph(core.num_vertices + extra, edges=core.edge_list())
        # Shuffle the isolated vertices in among the others.
        order = draw(st.permutations(range(graph.num_vertices)))
        return Graph(graph.num_vertices,
                     edges=[(order[u], order[v]) for u, v in graph.edges()])
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    missing = set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return Graph(n, edges=[pair for pair in pairs if pair not in missing])


@st.composite
def kernel_cases(draw):
    """A graph, a source list, a length bound and a dtype override."""
    graph = draw(kernel_graphs())
    n = graph.num_vertices
    sources = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    length = draw(st.sampled_from((1, 2, 3, 4, 5, n)))
    dtype = draw(st.sampled_from((None, np.uint16, np.int32, np.int64)))
    return graph, np.asarray(sources, dtype=np.int64), length, dtype


def _expected_rows(graph: Graph, sources: np.ndarray, length: int,
                   dtype) -> np.ndarray:
    """The dense engine's rows of ``sources``, re-expressed in ``dtype``."""
    dense = bounded_distance_matrix(graph, length)[sources]
    if dtype is None:
        return dense
    unreached = dense == unreachable_value(dense.dtype)
    out = dense.astype(dtype)
    out[unreached] = unreachable_value(dtype)
    return out


class TestCSRRowsMatchTheDenseEngine:
    @given(kernel_cases(), st.sampled_from(DEDUP_SHARES))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_dense_rows(self, case, share):
        graph, sources, length, dtype = case
        csr = CSRAdjacency.from_graph(graph)
        with mock.patch.object(
                distance_store, "_DENSE_FRONTIER_SHARE",
                distance_store._DENSE_FRONTIER_SHARE if share is None
                else share):
            rows = csr_bounded_rows(csr, sources, length, dtype=dtype)
        expected = _expected_rows(graph, sources, length, dtype)
        assert rows.dtype == expected.dtype
        assert rows.shape == (sources.size, graph.num_vertices)
        np.testing.assert_array_equal(rows, expected)

    def test_both_dedup_branches_run_by_default(self):
        # A sparse step of a wide slab sorts its codes; a near-complete
        # graph's first step fills the slab and takes the pass.
        sparse = Graph(300, edges=[(v, v + 1) for v in range(299)])
        dense = Graph(12, edges=[(u, v) for u in range(12)
                                 for v in range(u + 1, 12) if (u, v) != (0, 1)])
        for graph, taken, skipped in ((sparse, "unique", "flatnonzero"),
                                      (dense, "flatnonzero", "unique")):
            sources = np.arange(graph.num_vertices)[::-1]
            with mock.patch.object(np, taken, wraps=getattr(np, taken)) \
                    as spy, mock.patch.object(np, skipped,
                                              wraps=getattr(np, skipped)) \
                    as other:
                rows = csr_bounded_rows(CSRAdjacency.from_graph(graph),
                                        sources, 3)
            assert spy.called and not other.called, taken
            np.testing.assert_array_equal(
                rows, bounded_distance_matrix(graph, 3)[sources])

    @pytest.mark.parametrize("sources", ([5], [0, 5], [-1], [1, -1]))
    def test_out_of_range_sources_raise(self, sources):
        # A code past its row would land in the next row's cells.
        graph = Graph(5, edges=[(0, 1), (1, 2)])
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            csr_bounded_rows(CSRAdjacency.from_graph(graph),
                             np.asarray(sources), 2)

    def test_empty_sources_give_an_empty_slab(self):
        graph = Graph(5, edges=[(0, 1), (1, 2)])
        rows = csr_bounded_rows(CSRAdjacency.from_graph(graph),
                                np.empty(0, dtype=np.int64), 2)
        assert rows.shape == (0, 5) and rows.dtype == np.uint8


def _per_pair_counts(computer: OpacityComputer, graph: Graph,
                     length: int) -> list:
    """Within-L counts per type, one ``type_of`` per pair."""
    keys, _ = computer.type_order
    position = {key: index for index, key in enumerate(keys)}
    counts = [0] * len(keys)
    dense = bounded_distance_matrix(graph, length)
    for u, v in zip(*np.nonzero(np.triu(dense <= length, 1))):
        key = computer.typing.type_of(int(u), int(v))
        if key in position:
            counts[position[key]] += 1
    return counts


class TestTiledTallyMatchesTheDenseTally:
    @given(graphs(min_vertices=2, max_vertices=12), st.integers(1, 4),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_tile_size_gives_the_dense_counts(self, graph, length,
                                                    data):
        n = graph.num_vertices
        computer = OpacityComputer(data.draw(typings(graph)), length)
        dense = computer.within_counts(bounded_distance_matrix(graph, length))
        assert dense.tolist() == _per_pair_counts(computer, graph, length)
        for tile_rows in sorted({1, 3, 7, n}):
            store = TiledStore(graph, length, tile_rows=tile_rows,
                               budget_bytes=64)
            try:
                assert computer.within_counts(store).tolist() == \
                    dense.tolist(), tile_rows
            finally:
                store.close()

    @given(graphs(min_vertices=2, max_vertices=12), st.integers(3, 5),
           st.sampled_from((1, 3, 7, 12)), st.sampled_from((1, 13, 1 << 22)))
    @settings(max_examples=40, deadline=None)
    def test_pruning_pair_set_is_sorted_and_exact(self, graph, length,
                                                  tile_rows, chunk_cells):
        store = TiledStore(graph, length, tile_rows=tile_rows,
                           budget_bytes=64)
        try:
            with mock.patch.object(opacity_session, "_WITHIN_CHUNK_CELLS",
                                   chunk_cells):
                flat = opacity_session._within_pair_set(store, length)
        finally:
            store.close()
        rows, cols = np.nonzero(np.triu(
            bounded_distance_matrix(graph, length) <= length, 1))
        expected = triu_flat(rows, cols, graph.num_vertices)
        assert np.all(np.diff(flat) > 0)
        assert flat.tolist() == expected.tolist()
