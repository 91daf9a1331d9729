"""Tests for the distance-store seam (dense and tiled scale tiers)."""

import os
import signal
import tempfile
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, DistanceMemoryError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_cache import LMaxDistanceCache
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


def is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def spill_bytes(store):
    """The store's whole spill file, read through its descriptor."""
    fd = store._spill_fd
    return os.pread(fd, os.fstat(fd).st_size, 0)


@pytest.fixture
def made_spills(monkeypatch):
    """Paths ``mkstemp`` hands out during the test."""
    made = []
    mkstemp = tempfile.mkstemp

    def recording(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        made.append(path)
        return fd, path

    monkeypatch.setattr(tempfile, "mkstemp", recording)
    return made


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

    def test_blocks_cover_the_matrix_once(self):
        matrix = bounded_distance_matrix(sample_graph(17), 1)
        store = DenseStore(matrix, 1)
        (start, slab), = store.blocks()
        assert start == 0
        np.testing.assert_array_equal(slab, matrix)
        # The matrix itself, read in place and read-only.
        assert np.shares_memory(slab, store.array)
        assert not slab.flags.writeable and store.array.flags.writeable


@pytest.mark.parametrize("tier", ["dense", "tiled"])
@pytest.mark.parametrize("tile_rows", [1, 3, 7, 17])
def test_blocks_cover_every_row_once_read_only(tier, tile_rows):
    graph = sample_graph(17)
    dense = bounded_distance_matrix(graph, 2)
    store = (DenseStore(dense.copy(), 2) if tier == "dense" else
             TiledStore(graph, 2, tile_rows=tile_rows,
                        budget_bytes=2 * tile_rows * 17))  # forces evictions
    covered = []
    for start, slab in store.blocks():
        assert not slab.flags.writeable
        with pytest.raises(ValueError):
            slab[0, 0] = 0
        np.testing.assert_array_equal(slab, dense[start:start + len(slab)])
        covered.extend(range(start, start + len(slab)))
    assert covered == list(range(17))
    # Rows are still written through the store, and blocks read them.
    new_rows = dense[[4]].copy()
    new_rows[0, ::2] = 1
    store.write_rows(np.array([4]), new_rows)
    expected = dense.copy()
    expected[4, :] = expected[:, 4] = new_rows[0]
    np.testing.assert_array_equal(
        np.concatenate([slab for _, slab in store.blocks()]), expected)


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

    def test_tiny_budget_forces_spills_without_changing_values(
            self, tmp_path, made_spills):
        graph = sample_graph(40)
        dense = bounded_distance_matrix(graph, 3)
        row_bytes = 40 * dense.dtype.itemsize
        store = TiledStore(graph, 3, tile_rows=5,
                           budget_bytes=5 * row_bytes,  # one tile resident
                           spill_dir=str(tmp_path))
        np.testing.assert_array_equal(store.to_array(), dense)
        assert store.tile_computes == store.num_tiles
        assert store.tile_spills > 0
        assert [os.path.dirname(path) for path in made_spills] == [
            str(tmp_path)]
        # The file lost its name as soon as it was made.
        assert is_open(store._spill_fd)
        assert os.fstat(store._spill_fd).st_nlink == 0
        assert os.listdir(tmp_path) == []
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
        fd = store._spill_fd
        assert fd is not None and is_open(fd)
        assert os.listdir(tmp_path) == []
        store.close()
        assert not is_open(fd)

    def test_cache_bytes_stay_under_budget(self):
        graph = sample_graph(36)
        budget = 4 * 36 * distance_dtype(2).itemsize
        store = TiledStore(graph, 2, tile_rows=4, budget_bytes=budget)
        store.to_array()
        assert 0 < store.cache_bytes() <= budget

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
        # A tiled session builds its own store at its own L; it must equal
        # the child a dense grid thresholds from its L_max base.
        graph = sample_graph(30)
        base = LMaxDistanceCache(graph, 3)
        for length in (1, 2, 3):
            store = TiledStore(graph, length, tile_rows=6)
            child = base.matrix(length)
            out = store.to_array()
            assert out.dtype == child.dtype
            np.testing.assert_array_equal(out, child)
            assert store.tile_computes > 0
            assert store.length_bound == length
        assert base.compute_count == 1

    def test_edgeless_and_tiny_graphs(self):
        for graph in (Graph(4, edges=[]), Graph(1, edges=[])):
            store = TiledStore(graph, 2)
            np.testing.assert_array_equal(
                store.to_array(), bounded_distance_matrix(graph, 2))


class TestSpillFileOwnership:
    """One private, nameless ``mkstemp`` spill file per store, released by
    its creator."""

    def _spilled_store(self, tmp_path, n=32):
        graph = sample_graph(n)
        store = TiledStore(graph, 2, tile_rows=4,
                           budget_bytes=4 * n * distance_dtype(2).itemsize,
                           spill_dir=str(tmp_path))  # one tile resident
        store.to_array()
        assert store.tile_spills > 0  # premise: the file holds tiles
        return graph, store

    def test_every_store_gets_its_own_file(self, tmp_path):
        _, first = self._spilled_store(tmp_path)
        _, second = self._spilled_store(tmp_path)
        fds = [store._spill_fd for store in (first, second)]
        stats = [os.fstat(fd) for fd in fds]
        assert stats[0].st_ino != stats[1].st_ino
        assert [stat.st_nlink for stat in stats] == [0, 0]
        assert os.listdir(tmp_path) == []
        first.close()
        second.close()
        assert not any(is_open(fd) for fd in fds)

    def test_dropping_the_store_deletes_its_file(self, tmp_path):
        _, store = self._spilled_store(tmp_path)
        fd = store._spill_fd
        del store
        assert not is_open(fd)

    def test_a_forked_process_never_deletes_the_file(self, tmp_path):
        import multiprocessing

        graph, store = self._spilled_store(tmp_path)
        fd = store._spill_fd
        before = spill_bytes(store)
        # The list holds the only reference, so the child's copy of the
        # store dies when the child pops it: its inherited finalizer must
        # leave the parent's file alone.
        holder = [store]
        del store
        child = multiprocessing.get_context("fork").Process(
            target=holder.clear)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        (store,) = holder
        assert store._spill_fd == fd and is_open(fd)
        assert spill_bytes(store) == before
        np.testing.assert_array_equal(store.to_array(),
                                      bounded_distance_matrix(graph, 2))
        store.close()
        assert not is_open(fd)

    def test_a_killed_process_leaves_no_file(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        spilled = context.Event()

        def spill_then_wait():
            _, store = self._spilled_store(tmp_path)
            spilled.set()
            time.sleep(60)

        child = context.Process(target=spill_then_wait)
        child.start()
        try:
            assert spilled.wait(timeout=60)  # premise: the child spilled
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert list(tmp_path.glob("repro-tiles-*")) == []
