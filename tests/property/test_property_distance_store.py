"""Property-based differential tests: TiledStore ≡ DenseStore.

The tiled tier's whole claim is *bit-identical* distances to the dense
plane — same values, same dtype, same sentinel — under every tile size and
cache budget, including budgets small enough to force evictions and
temp-file spills on graphs of a dozen vertices.  These tests drive both
stores through the same operations and compare exact arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_cache import threshold_distances
from repro.graph.distance_store import DenseStore, TiledStore
from tests.property.strategies import graphs, length_bounds

tile_rows_values = st.integers(min_value=1, max_value=6)
#: Budgets from "one tile fits" to "everything fits"; the low end forces
#: the LRU to evict and spill even on the tiny strategy graphs.
budget_values = st.sampled_from([64, 256, 1 << 20])


class TestTiledDenseEquivalence:
    @given(graphs(), length_bounds, tile_rows_values, budget_values)
    @settings(max_examples=40, deadline=None)
    def test_full_matrix_is_bit_identical(self, graph, length_bound,
                                          tile_rows, budget):
        dense = bounded_distance_matrix(graph, length_bound)
        tiled = TiledStore(graph, length_bound, tile_rows=tile_rows,
                           budget_bytes=budget)
        out = tiled.to_array()
        assert out.dtype == dense.dtype
        np.testing.assert_array_equal(out, dense)

    @given(graphs(), length_bounds, tile_rows_values, st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_under_spill_pressure(self, graph, length_bound,
                                               tile_rows, data):
        n = graph.num_vertices
        dense = bounded_distance_matrix(graph, length_bound)
        tiled = TiledStore(graph, length_bound, tile_rows=tile_rows,
                           budget_bytes=64)
        block = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                   min_size=1, max_size=n))
        block = np.asarray(block, dtype=np.int64)
        np.testing.assert_array_equal(tiled.rows(block), dense[block])
        # Streamed tiles, read in place interleaved with evictions, cover
        # every row once and never change later reads.
        for _ in range(2):
            covered = 0
            for start, slab in tiled.blocks():
                assert start == covered and not slab.flags.writeable
                np.testing.assert_array_equal(slab,
                                              dense[start:start + len(slab)])
                covered += len(slab)
            assert covered == n
        np.testing.assert_array_equal(tiled.to_array(), dense)

    @given(graphs(min_vertices=3), length_bounds, tile_rows_values)
    @settings(max_examples=40, deadline=None)
    def test_csr_snapshot_agrees_with_every_engine(self, graph, length_bound,
                                                   tile_rows):
        tiled = TiledStore(graph, length_bound, tile_rows=tile_rows)
        out = tiled.to_array()
        for engine in available_engines():
            reference = bounded_distance_matrix(graph, length_bound,
                                                engine=engine)
            np.testing.assert_array_equal(out, reference, err_msg=engine)

    @given(graphs(), st.integers(min_value=2, max_value=4), tile_rows_values,
           budget_values)
    @settings(max_examples=40, deadline=None)
    def test_thresholded_children_match_dense_thresholding(
            self, graph, l_max, tile_rows, budget):
        # Each tiled session's own store at L equals the dense L_max base
        # thresholded to L, so tiled and dense grids agree without a base.
        base = bounded_distance_matrix(graph, l_max)
        for length in range(1, l_max + 1):
            reference = threshold_distances(base, length)
            out = TiledStore(graph, length, tile_rows=tile_rows,
                             budget_bytes=budget).to_array()
            assert out.dtype == reference.dtype
            np.testing.assert_array_equal(out, reference)

    @given(graphs(min_vertices=3), length_bounds, tile_rows_values,
           budget_values, st.data())
    @settings(max_examples=40, deadline=None)
    def test_write_rows_keeps_both_stores_identical(self, graph, length_bound,
                                                    tile_rows, budget, data):
        n = graph.num_vertices
        matrix = bounded_distance_matrix(graph, length_bound)
        dense = DenseStore(matrix.copy(), length_bound)
        tiled = TiledStore(graph, length_bound, tile_rows=tile_rows,
                           budget_bytes=budget)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            rows = data.draw(st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=3, unique=True))
            rows = np.asarray(rows, dtype=np.int64)
            new_rows = dense.rows(rows)
            # Flip some cells to other in-range distances, then restore the
            # contract the callers guarantee: the slab is symmetric-
            # consistent on its rows × rows overlap (it carries distances).
            value = data.draw(st.integers(min_value=1, max_value=length_bound))
            stride = data.draw(st.integers(min_value=1, max_value=3))
            new_rows[:, ::stride] = value
            overlap = new_rows[:, rows]
            new_rows[:, rows] = np.minimum(overlap, overlap.T)
            dense.write_rows(rows, new_rows.copy())
            tiled.write_rows(rows, new_rows.copy())
        np.testing.assert_array_equal(tiled.to_array(), dense.to_array())
