"""Tests for the distance-store seam (dense and tiled scale tiers)."""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, DistanceMemoryError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import (
    DEFAULT_SCALE_BUDGET_BYTES,
    CSRAdjacency,
    DenseStore,
    StoreConfig,
    TiledStore,
    csr_bounded_rows,
    dense_matrix_bytes,
    ensure_dense_fits,
    validate_scale_tier,
)
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.matrices import distance_dtype


def sample_graph(n=40, p=0.12, seed=3):
    return erdos_renyi_graph(n, p, seed=seed)


class TestStoreConfig:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError, match="scale_tier"):
            validate_scale_tier("huge")
        with pytest.raises(ConfigurationError, match="scale_tier"):
            StoreConfig(tier="huge").validate()

    def test_budget_and_tile_rows_validated(self):
        with pytest.raises(ConfigurationError, match="budget_bytes"):
            StoreConfig(budget_bytes=0).validate()
        with pytest.raises(ConfigurationError, match="tile_rows"):
            StoreConfig(tile_rows=0).validate()

    def test_auto_resolves_by_budget(self):
        dtype = np.dtype(np.uint8)
        fits = StoreConfig(tier="auto", budget_bytes=dense_matrix_bytes(10, dtype))
        assert fits.resolve(10, dtype) == "dense"
        over = StoreConfig(tier="auto",
                           budget_bytes=dense_matrix_bytes(10, dtype) - 1)
        assert over.resolve(10, dtype) == "tiled"

    def test_explicit_tiers_resolve_to_themselves(self):
        assert StoreConfig(tier="tiled", budget_bytes=1).resolve(
            1000, np.uint8) == "tiled"
        assert StoreConfig(tier="dense").resolve(10, np.uint8) == "dense"

    def test_explicit_dense_over_budget_fires_the_memory_guard(self):
        config = StoreConfig(tier="dense", budget_bytes=64)
        with pytest.raises(DistanceMemoryError, match="scale_tier='tiled'"):
            config.resolve(100, np.uint8)

    def test_ensure_dense_fits_names_the_tiled_tier(self):
        with pytest.raises(DistanceMemoryError, match="--scale-tier tiled"):
            ensure_dense_fits(1000, np.int32, budget_bytes=1024)
        ensure_dense_fits(4, np.int32, budget_bytes=64)  # exactly fits


class TestCSRAdjacency:
    def test_from_graph_round_trips_neighbors(self):
        graph = sample_graph(25)
        csr = CSRAdjacency.from_graph(graph)
        assert csr.num_vertices == graph.num_vertices
        for v in range(graph.num_vertices):
            start, stop = csr.indptr[v], csr.indptr[v + 1]
            assert sorted(csr.indices[start:stop]) == sorted(graph.neighbors(v))

    def test_gather_positions_index_the_query(self):
        graph = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        csr = CSRAdjacency.from_graph(graph)
        positions, neighbors = csr.gather(np.array([2, 0]))
        got = {}
        for pos, nb in zip(positions, neighbors):
            got.setdefault(int(pos), set()).add(int(nb))
        assert got == {0: {1, 3}, 1: {1}}

    def test_edgeless_graph(self):
        csr = CSRAdjacency.from_graph(Graph(3, edges=[]))
        assert csr.indices.size == 0
        positions, neighbors = csr.gather(np.array([0, 1, 2]))
        assert positions.size == neighbors.size == 0

    def test_csr_bounded_rows_match_the_dense_engine(self):
        graph = sample_graph(30)
        csr = CSRAdjacency.from_graph(graph)
        for length in (1, 2, 4):
            dense = bounded_distance_matrix(graph, length)
            sources = np.array([0, 7, 29])
            rows = csr_bounded_rows(csr, sources, length)
            assert rows.dtype == dense.dtype
            np.testing.assert_array_equal(rows, dense[sources])


class TestDenseStore:
    def test_rows_are_fresh_writable_slabs(self):
        graph = sample_graph(20)
        matrix = bounded_distance_matrix(graph, 2)
        store = DenseStore(matrix.copy(), 2)
        rows = store.rows([3, 5])
        np.testing.assert_array_equal(rows, matrix[[3, 5]])
        rows[0, 0] = 77  # caller owns the slab
        np.testing.assert_array_equal(store.rows([3]), matrix[[3]])

    def test_write_rows_is_symmetric(self):
        graph = sample_graph(15)
        matrix = bounded_distance_matrix(graph, 2)
        store = DenseStore(matrix.copy(), 2)
        new_rows = store.rows([4])
        new_rows[:] = 1
        store.write_rows(np.array([4]), new_rows)
        out = store.to_array()
        assert (out[4] == 1).all()
        assert (out[:, 4] == 1).all()

    def test_row_blocks_cover_the_matrix_once(self):
        store = DenseStore(bounded_distance_matrix(sample_graph(17), 1), 1)
        covered = [r for start, stop in store.row_blocks()
                   for r in range(start, stop)]
        assert covered == list(range(17))


class TestTiledStore:
    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("tile_rows", [1, 7, 64])
    def test_to_array_matches_the_dense_engine(self, length, tile_rows):
        graph = sample_graph(33)
        store = TiledStore(graph, length, tile_rows=tile_rows)
        np.testing.assert_array_equal(
            store.to_array(), bounded_distance_matrix(graph, length))

    def test_rows_across_tile_boundaries(self):
        graph = sample_graph(30)
        dense = bounded_distance_matrix(graph, 2)
        store = TiledStore(graph, 2, tile_rows=7)
        block = np.array([0, 6, 7, 13, 29])
        np.testing.assert_array_equal(store.rows(block), dense[block])

    def test_tiny_budget_forces_spills_without_changing_values(self, tmp_path):
        graph = sample_graph(40)
        dense = bounded_distance_matrix(graph, 3)
        row_bytes = 40 * dense.dtype.itemsize
        store = TiledStore(graph, 3, tile_rows=5,
                           budget_bytes=5 * row_bytes,  # one tile resident
                           spill_dir=str(tmp_path))
        np.testing.assert_array_equal(store.to_array(), dense)
        assert store.tile_computes == store.num_tiles
        assert store.tile_spills > 0
        assert store.spill_path is not None
        assert os.path.dirname(store.spill_path) == str(tmp_path)
        # A second full read reloads spilled tiles instead of recomputing.
        np.testing.assert_array_equal(store.to_array(), dense)
        assert store.tile_computes == store.num_tiles
        assert store.tile_loads > 0

    def test_only_dirty_tiles_are_spilled(self, tmp_path):
        graph = sample_graph(40)
        dense = bounded_distance_matrix(graph, 3)
        store = TiledStore(graph, 3, tile_rows=5,
                           budget_bytes=5 * 40 * dense.dtype.itemsize,
                           spill_dir=str(tmp_path))  # one tile resident
        tiles = store.num_tiles
        np.testing.assert_array_equal(store.to_array(), dense)
        assert store.tile_spills == store.tile_evictions == tiles - 1
        # Rereads reload tiles; only the never-spilled last one is written.
        for _ in range(2):
            np.testing.assert_array_equal(store.to_array(), dense)
        assert store.tile_loads > tiles
        assert store.tile_evictions == 3 * tiles - 1
        assert store.tile_spills == tiles
        # A write dirties every tile (row 3 and column 3), so each is
        # spilled once more, and rereads return the written values.
        new_row = dense[3].copy()
        new_row[[10, 30]] = 1
        store.write_rows(np.array([3]), new_row[None, :])
        expected = dense.copy()
        expected[3, :] = expected[:, 3] = new_row
        for _ in range(2):
            np.testing.assert_array_equal(store.to_array(), expected)
        assert store.tile_spills == 2 * tiles

    def test_close_removes_the_spill_file(self, tmp_path):
        graph = sample_graph(24)
        store = TiledStore(graph, 2, tile_rows=3, budget_bytes=200,
                           spill_dir=str(tmp_path))
        store.to_array()
        path = store.spill_path
        assert path is not None and os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_cache_bytes_stay_under_budget(self):
        graph = sample_graph(36)
        budget = 4 * 36 * distance_dtype(2).itemsize
        store = TiledStore(graph, 2, tile_rows=4, budget_bytes=budget)
        store.to_array()
        assert 0 < store.cache_bytes() <= budget

    def test_preload_tile_skips_the_compute(self):
        graph = sample_graph(20)
        dense = bounded_distance_matrix(graph, 2)
        store = TiledStore(graph, 2, tile_rows=8)
        store.preload_tile(0, dense[0:8])
        np.testing.assert_array_equal(store.rows(np.arange(8)), dense[0:8])
        assert store.tile_computes == 0
        store.preload_tile(1, dense[8:16])  # idempotent over cached ids
        assert store.cached_tiles() == (0, 1)

    def test_preload_rejects_wrong_geometry(self):
        store = TiledStore(sample_graph(20), 2, tile_rows=8)
        with pytest.raises(ConfigurationError, match="tile 0"):
            store.preload_tile(0, np.zeros((3, 20), dtype=store.dtype))

    def test_write_rows_matches_the_dense_store(self):
        graph = sample_graph(26)
        matrix = bounded_distance_matrix(graph, 2)
        dense = DenseStore(matrix.copy(), 2)
        tiled = TiledStore(graph, 2, tile_rows=5)
        rows = np.array([2, 11, 25])
        new_rows = dense.rows(rows)
        new_rows[:, ::3] = 2
        dense.write_rows(rows, new_rows.copy())
        tiled.write_rows(rows, new_rows.copy())
        np.testing.assert_array_equal(tiled.to_array(), dense.to_array())

    def test_thresholded_child_matches_dense_thresholding(self):
        graph = sample_graph(30)
        base = TiledStore(graph, 3, tile_rows=6)
        child = base.thresholded(1)
        np.testing.assert_array_equal(
            child.to_array(), bounded_distance_matrix(graph, 1))
        # The child derives from the parent's tiles, shared across children.
        assert base.tile_computes > 0
        assert child.length_bound == 1

    def test_thresholded_bound_cannot_exceed_the_parent(self):
        base = TiledStore(sample_graph(10), 2)
        with pytest.raises(ConfigurationError, match="exceeds"):
            base.thresholded(3)

    def test_csr_snapshot_construction_needs_no_graph(self):
        graph = sample_graph(22)
        csr = CSRAdjacency.from_graph(graph)
        store = TiledStore(None, 2, csr=csr)
        np.testing.assert_array_equal(
            store.to_array(), bounded_distance_matrix(graph, 2))

    def test_construction_without_any_source_is_rejected(self):
        with pytest.raises(ConfigurationError, match="graph"):
            TiledStore(None, 2)

    def test_edgeless_and_tiny_graphs(self):
        for graph in (Graph(4, edges=[]), Graph(1, edges=[])):
            store = TiledStore(graph, 2)
            np.testing.assert_array_equal(
                store.to_array(), bounded_distance_matrix(graph, 2))


class TestPersistentSpill:
    """``spill_path`` spills that survive ``close`` and warm later stores."""

    def _spill_all(self, graph, path, length=2, tile_rows=4):
        row_bytes = graph.num_vertices * distance_dtype(length).itemsize
        store = TiledStore(graph, length, tile_rows=tile_rows,
                          budget_bytes=tile_rows * row_bytes,  # one tile
                          spill_path=path)
        store.to_array()
        return store

    def test_spill_survives_close_and_is_reused(self, tmp_path):
        graph = sample_graph(32)
        dense = bounded_distance_matrix(graph, 2)
        path = str(tmp_path / "job.tiles")
        first = self._spill_all(graph, path)
        assert first.tile_spills > 0
        assert first.spill_path == path
        first.close()
        assert os.path.exists(path)
        assert os.path.exists(path + ".index.npz")
        second = TiledStore(graph, 2, tile_rows=4, spill_path=path)
        assert second.tile_reuses > 0
        np.testing.assert_array_equal(second.to_array(), dense)
        # Adopted slots are loaded, never recomputed.
        assert second.tile_computes == second.num_tiles - second.tile_reuses
        assert second.tile_loads >= second.tile_reuses
        second.close()

    def test_geometry_mismatch_starts_fresh(self, tmp_path):
        graph = sample_graph(32)
        path = str(tmp_path / "job.tiles")
        self._spill_all(graph, path, tile_rows=4).close()
        other = TiledStore(graph, 2, tile_rows=5, spill_path=path)
        assert other.tile_reuses == 0
        np.testing.assert_array_equal(
            other.to_array(), bounded_distance_matrix(graph, 2))
        other.close()

    def test_different_bound_starts_fresh(self, tmp_path):
        graph = sample_graph(32)
        path = str(tmp_path / "job.tiles")
        self._spill_all(graph, path, length=2).close()
        other = TiledStore(graph, 3, tile_rows=4, spill_path=path)
        assert other.tile_reuses == 0
        np.testing.assert_array_equal(
            other.to_array(), bounded_distance_matrix(graph, 3))
        other.close()

    def test_first_edit_retires_the_sidecar(self, tmp_path):
        graph = sample_graph(32)
        path = str(tmp_path / "job.tiles")
        first = self._spill_all(graph, path)
        rows = np.array([0, 1])
        first.write_rows(rows, first.rows(rows))
        # Edited stores never advertise their tiles for reuse: the spilled
        # rows no longer describe the pristine matrix.
        assert not os.path.exists(path + ".index.npz")
        np.testing.assert_array_equal(
            first.to_array(), bounded_distance_matrix(graph, 2))
        first.close()
        second = TiledStore(graph, 2, tile_rows=4, spill_path=path)
        assert second.tile_reuses == 0
        np.testing.assert_array_equal(
            second.to_array(), bounded_distance_matrix(graph, 2))
        second.close()

    def test_missing_sidecar_truncates_stale_bytes(self, tmp_path):
        graph = sample_graph(20)
        path = tmp_path / "job.tiles"
        path.write_bytes(b"stale garbage with no index")
        store = TiledStore(graph, 2, tile_rows=4, spill_path=str(path))
        assert store.tile_reuses == 0
        assert os.path.getsize(path) == 0
        np.testing.assert_array_equal(
            store.to_array(), bounded_distance_matrix(graph, 2))
        store.close()
