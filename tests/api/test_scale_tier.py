"""Acceptance tests for the scale-tier seam across the api layers.

The contract under test: a grid run with ``scale_tier="tiled"`` produces
responses bit-identical to the dense tier on every execution path (serial,
shm pool), while never materializing a dense L_max matrix in the parent —
and an explicit ``dense`` request over budget fails up front with an error
naming the tiled tier instead of dying on an opaque ``MemoryError``.
"""

import numpy as np
import pytest

from repro.api import AnonymizationRequest, ExecutionCache, GridRequest, run_grid
from repro.api.requests import request_fingerprint
from repro.api.shm import SharedSampleArena, TiledMatrixSpec, attach_arena
from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import CSRAdjacency, DistanceStore, TiledStore
from repro.graph.graph import Graph

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0)
TILED = BASE.with_overrides(scale_tier="tiled", scale_budget_bytes=1 << 20)

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason")


def assert_response_parity(response, reference):
    for field in PARITY_FIELDS:
        assert getattr(response, field) == getattr(reference, field), field


def small_graph():
    return Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestRequestSurface:
    def test_scale_fields_are_validated(self):
        with pytest.raises(ConfigurationError, match="scale_tier"):
            BASE.with_overrides(scale_tier="huge")
        with pytest.raises(ConfigurationError, match="scale_budget_bytes"):
            BASE.with_overrides(scale_budget_bytes=0)

    def test_scale_fields_reach_the_algorithm_params(self):
        params = TILED.algorithm_params()
        assert params["scale_tier"] == "tiled"
        assert params["scale_budget_bytes"] == 1 << 20

    def test_scale_fields_change_the_fingerprint(self):
        assert request_fingerprint(BASE) != request_fingerprint(TILED)
        assert request_fingerprint(TILED) == request_fingerprint(
            BASE.with_overrides(scale_tier="tiled",
                                scale_budget_bytes=1 << 20))

    def test_store_config_reflects_the_fields(self):
        config = TILED.store_config()
        assert config.tier == "tiled"
        assert config.budget_bytes == 1 << 20

    def test_json_round_trip_keeps_the_fields(self):
        clone = AnonymizationRequest.from_json(TILED.to_json())
        assert clone == TILED

    def test_every_registered_algorithm_accepts_the_knobs(self):
        from repro.api.registry import default_registry

        registry = default_registry()
        for name in registry.names():
            registry.create(name, theta=0.5, scale_tier="tiled",
                            scale_budget_bytes=1 << 20)


class TestExecutionCacheTiers:
    def test_dense_tier_serves_arrays(self):
        cache = ExecutionCache()
        served = cache.distances_for(BASE, 2)
        assert isinstance(served, np.ndarray)

    def test_tiled_tier_serves_stores(self):
        cache = ExecutionCache()
        served = cache.distances_for(TILED, 2)
        assert isinstance(served, DistanceStore)
        assert served.length_bound == TILED.length_threshold
        graph = cache.graph_for(TILED)
        np.testing.assert_array_equal(
            served.to_array(),
            bounded_distance_matrix(graph, TILED.length_threshold))

    def test_one_logical_compute_serves_both_thresholds(self):
        cache = ExecutionCache()
        cache.distances_for(TILED, 3)
        cache.distances_for(TILED.with_overrides(length_threshold=2), 3)
        assert cache.distance_computes == 1

    def test_config_change_rebuilds_the_cache(self):
        cache = ExecutionCache()
        dense = cache.distances_for(BASE, 2)
        tiled = cache.distances_for(TILED, 2)
        assert isinstance(dense, np.ndarray)
        assert isinstance(tiled, DistanceStore)
        # The retired dense compute stays counted alongside the new one.
        assert cache.distance_computes == 2

    def test_explicit_dense_over_budget_raises_the_guard(self):
        from repro.errors import DistanceMemoryError

        request = BASE.with_overrides(scale_tier="dense",
                                      scale_budget_bytes=64)
        cache = ExecutionCache()
        with pytest.raises(DistanceMemoryError, match="tiled"):
            cache.distances_for(request, 2)


class TestTiledGridAcceptance:
    """The satellite acceptance: tiled grids bit-identical to dense."""

    AXES = dict(algorithms=("rem", "rem-ins"), length_thresholds=(1, 2),
                thetas=(0.9, 0.7, 0.5))
    DENSE_GRID = GridRequest.from_axes(BASE, **AXES)
    TILED_GRID = GridRequest.from_axes(TILED, **AXES)

    def test_serial_tiled_matches_serial_dense(self):
        dense = run_grid(self.DENSE_GRID, max_workers=0)
        tiled = run_grid(self.TILED_GRID, max_workers=0)
        assert tiled.ok
        for ours, theirs in zip(tiled.responses, dense.responses):
            assert_response_parity(ours, theirs)
        # One logical distance computation (the shared L_max tile base)
        # serves the whole tiled grid, like the dense tier.
        assert tiled.num_sample_loads == 1
        assert tiled.num_distance_computes == 1

    def test_shm_tiled_matches_serial_dense(self):
        dense = run_grid(self.DENSE_GRID, max_workers=0)
        tiled = run_grid(self.TILED_GRID, max_workers=2)
        assert tiled.ok
        for ours, theirs in zip(tiled.responses, dense.responses):
            assert_response_parity(ours, theirs)
        # The parent never runs a distance engine on the tiled plane — it
        # publishes the CSR arrays and the workers expand tiles lazily.
        assert tiled.num_sample_loads == 1
        assert tiled.num_distance_computes == 0

    def test_explicit_dense_over_budget_is_isolated_per_group(self):
        # At L = 2: an L = 1 run holds no matrix for the guard to refuse.
        grid = GridRequest.from_axes(
            BASE.with_overrides(length_threshold=2, scale_tier="dense",
                                scale_budget_bytes=64),
            thetas=(0.8, 0.6))
        for workers in (0, 2):
            response = run_grid(grid, max_workers=workers)
            assert not response.ok
            for entry in response.responses:
                assert "DistanceMemoryError" in entry.error
                assert "tiled" in entry.error

    def test_gades_baseline_ignores_the_tier_knobs(self):
        # GADES runs at L = 1, which holds no distances: the registry drops
        # the tier fields and both grids run the same session.
        grid_axes = dict(algorithms=("gades",), thetas=(0.8,))
        dense = run_grid(GridRequest.from_axes(BASE, **grid_axes))
        tiled = run_grid(GridRequest.from_axes(TILED, **grid_axes))
        assert tiled.ok
        for ours, theirs in zip(tiled.responses, dense.responses):
            assert_response_parity(ours, theirs)


class TestShmTiledPlane:
    def test_publish_and_attach_tiled_descriptor(self):
        graph = small_graph()
        spec = TiledMatrixSpec(budget_bytes=1 << 16)
        arena = SharedSampleArena.publish(graph, spec, 3)
        try:
            descriptor = arena.descriptor
            assert descriptor.l_max == 3
            assert descriptor.matrix is None
            assert descriptor.tiled is not None
            attached = attach_arena(descriptor)
            assert attached.graph == graph
            cache = attached.cache
            assert cache.tier == "tiled"
            assert cache.compute_count == 0
            store = cache.store(2)
            np.testing.assert_array_equal(
                store.to_array(), bounded_distance_matrix(graph, 2))
        finally:
            arena.unlink()

    def test_tiled_arena_publishes_only_its_edges(self):
        import glob

        graph = small_graph()
        arena = SharedSampleArena.publish(
            graph, TiledMatrixSpec(budget_bytes=1 << 16), 3)
        try:
            assert glob.glob(f"/dev/shm/{arena.token}*") == \
                [f"/dev/shm/{arena.token}-edges"]
            assert arena.descriptor.tiled == 1 << 16
            # Workers derive the parent's CSR from the shared edges.
            csr = attach_arena(arena.descriptor).cache.base_store()._csr
            expected = CSRAdjacency.from_graph(graph)
            np.testing.assert_array_equal(csr.indptr, expected.indptr)
            np.testing.assert_array_equal(csr.indices, expected.indices)
        finally:
            arena.unlink()

    def test_dense_segments_keep_their_narrow_dtype(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 2)
        assert matrix.dtype == np.uint8  # the dtype satellite
        arena = SharedSampleArena.publish(graph, matrix, 2)
        try:
            _segment, dtype_str = arena.descriptor.matrix
            assert np.dtype(dtype_str) == np.uint8
            assert arena.descriptor.l_max == 2
            assert arena.descriptor.tiled is None
            attached = attach_arena(arena.descriptor)
            served = attached.cache.base_matrix()
            assert served.dtype == np.uint8
            np.testing.assert_array_equal(served, matrix)
        finally:
            arena.unlink()


class TestTiledSpillsOnlyDirtyTiles:
    """An L = 3 tiled run rewrites a spilled tile only after a write."""

    REQUEST = AnonymizationRequest(dataset="enron", sample_size=40, seed=0,
                                   algorithm="rem", theta=0.3,
                                   length_threshold=3, max_steps=4)

    def test_spills_are_first_evictions_plus_written_tiles(self, monkeypatch):
        from repro.api import anonymize

        stores, writes = [], []
        init, write = TiledStore.__init__, TiledStore.write_rows

        def spy_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        def spy_write(store, rows, new_rows):
            writes.append(store)
            return write(store, rows, new_rows)

        monkeypatch.setattr(TiledStore, "__init__", spy_init)
        monkeypatch.setattr(TiledStore, "write_rows", spy_write)
        # 40 rows of 16: three tiles of 640 bytes, one resident.
        tiled = anonymize(self.REQUEST.with_overrides(
            scale_tier="tiled", scale_budget_bytes=700))
        dense = anonymize(self.REQUEST.with_overrides(scale_tier="dense"))
        assert tiled.num_steps > 0
        assert_response_parity(tiled, dense)
        (store,) = stores
        written = writes.count(store)
        assert written > 0 and store.tile_loads > store.num_tiles  # premise
        # Each tile is spilled once when first evicted, and again at most
        # once per write (a write touches every tile); clean reloads never.
        assert store.tile_spills <= store.num_tiles * (1 + written)
        assert store.tile_spills < store.tile_evictions
