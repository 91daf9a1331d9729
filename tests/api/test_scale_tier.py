"""Acceptance tests for the scale-tier seam across the api layers.

The contract under test: a grid run with ``scale_tier="tiled"`` produces
responses bit-identical to the dense tier on every execution path (serial,
shm pool), while never materializing a dense L_max matrix — each tiled
session computes its own tiles at its own L — and an explicit ``dense``
request over budget fails up front with an error naming the tiled tier
instead of dying on an opaque ``MemoryError``.
"""

import os

import numpy as np
import pytest

from repro.api import AnonymizationRequest, ExecutionCache, GridRequest, run_grid
from repro.api.requests import request_fingerprint
from repro.api.shm import SharedSampleArena, attach_arena
from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_store import TiledStore
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

    def test_tiled_tier_serves_nothing(self):
        # A tiled session builds its own store at its own L.
        cache = ExecutionCache()
        assert cache.distances_for(TILED, 2) is None
        assert cache.base_for(TILED, 3) is None
        assert cache.distance_computes == 0

    def test_one_logical_compute_serves_both_thresholds(self):
        cache = ExecutionCache()
        graph = cache.graph_for(BASE)
        for length in (3, 2):
            np.testing.assert_array_equal(
                cache.distances_for(
                    BASE.with_overrides(length_threshold=length), 3),
                bounded_distance_matrix(graph, length))
        assert cache.distance_computes == 1

    def test_each_request_resolves_its_own_tier(self):
        cache = ExecutionCache()
        assert cache.distances_for(TILED, 2) is None
        assert isinstance(cache.distances_for(BASE, 2), np.ndarray)
        assert cache.distances_for(TILED, 2) is None
        # Another budget on the dense tier reuses the one base.
        assert isinstance(cache.distances_for(BASE.with_overrides(
            scale_budget_bytes=1 << 20), 2), np.ndarray)
        assert cache.distance_computes == 1

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
        # Each tiled session computes its own tiles: the grid computes
        # no L_max base.
        assert tiled.num_sample_loads == 1
        assert tiled.num_distance_computes == 0

    def test_shm_tiled_matches_serial_dense(self):
        dense = run_grid(self.DENSE_GRID, max_workers=0)
        tiled = run_grid(self.TILED_GRID, max_workers=2)
        assert tiled.ok
        for ours, theirs in zip(tiled.responses, dense.responses):
            assert_response_parity(ours, theirs)
        # The parent publishes the edges alone and each worker's session
        # computes its own tiles.
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


def record_constructions(monkeypatch, path):
    """Append ``kind pid L`` for each tiled store and distance session built.

    Records go to a file, so forked pool workers report theirs too.
    """
    from repro.graph.distance_delta import DistanceSession

    def spy(cls, kind):
        init = cls.__init__

        def spy_init(self, graph, length_bound, *args, **kwargs):
            with open(path, "a") as log:
                log.write(f"{kind} {os.getpid()} {length_bound}\n")
            init(self, graph, length_bound, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy_init)

    spy(TiledStore, "store")
    spy(DistanceSession, "session")


def read_constructions(path):
    if not path.exists():
        return []
    return [(kind, int(pid), int(length)) for kind, pid, length
            in (line.split() for line in path.read_text().splitlines())]


class TestTiledGridSessionsOwnTheirStores:
    """A tiled grid shares its sample, not a tile base: every tiled session
    builds one store at its own L, on every route."""

    AXES = dict(algorithms=("rem", "rem-ins"), length_thresholds=(2, 3),
                thetas=(0.5, 0.3))
    REQUEST = BASE.with_overrides(insertion_candidate_cap=20, max_steps=3)
    DENSE_GRID = GridRequest.from_axes(REQUEST, **AXES)
    TILED_GRID = GridRequest.from_axes(
        REQUEST.with_overrides(scale_tier="tiled", scale_budget_bytes=1024),
        **AXES)

    @pytest.mark.parametrize("max_workers,shared_memory",
                             ((0, None), (2, True), (2, False)),
                             ids=("serial", "pooled-shm", "pooled-own-sample"))
    def test_tiled_grid_matches_dense_with_no_base(
            self, max_workers, shared_memory, monkeypatch, tmp_path):
        import multiprocessing

        # The spies reach the pool workers only when they are forked.
        assert multiprocessing.get_context().get_start_method() == "fork"
        dense = run_grid(self.DENSE_GRID, max_workers=0)
        assert dense.ok
        assert any(response.num_steps for response in dense.responses)
        log = tmp_path / "constructions.log"
        record_constructions(monkeypatch, log)
        tiled = run_grid(self.TILED_GRID, max_workers=max_workers,
                         shared_memory=shared_memory)
        assert tiled.ok
        for ours, theirs in zip(tiled.responses, dense.responses):
            assert_response_parity(ours, theirs)
        assert 1 <= tiled.num_sample_loads <= max(1, max_workers)
        assert tiled.num_distance_computes == 0
        built = read_constructions(log)
        stores = sorted(length for kind, _, length in built if kind == "store")
        sessions = sorted(length for kind, _, length in built
                          if kind == "session")
        # One store per session, at the session's own L: no L_max base.
        assert set(sessions) == {2, 3}
        assert stores == sessions
        if max_workers:
            assert os.getpid() not in {pid for _, pid, _ in built}


class TestShmTiledPlane:
    def test_publish_and_attach_tiled_descriptor(self):
        # A tiled sample is published as its edges alone: the worker
        # rebuilds the graph and gets no distance cache to adopt.
        graph = small_graph()
        arena = SharedSampleArena.publish(graph)
        try:
            descriptor = arena.descriptor
            assert (descriptor.matrix, descriptor.l_max) == (None, None)
            attached = attach_arena(descriptor)
            assert attached.graph == graph
            assert attached.cache is None
            cache = ExecutionCache()
            cache.adopt_arena(TILED, descriptor)
            assert cache.distances_for(TILED, 3) is None
            assert cache.graph_for(TILED) == graph
            assert (cache.sample_loads, cache.distance_computes) == (0, 0)
        finally:
            arena.unlink()

    def test_tiled_arena_publishes_only_its_edges(self, monkeypatch):
        import glob

        published = []
        publish = SharedSampleArena.publish.__func__

        def record(cls, graph, base=None, l_max=None):
            arena = publish(cls, graph, base, l_max)
            published.append((arena.descriptor,
                              glob.glob(f"/dev/shm/{arena.token}*")))
            return arena

        monkeypatch.setattr(SharedSampleArena, "publish", classmethod(record))
        grid = GridRequest.from_axes(TILED, length_thresholds=(2, 3),
                                     thetas=(0.8, 0.6))
        assert run_grid(grid, max_workers=2).ok
        ((descriptor, segments),) = published
        assert (descriptor.matrix, descriptor.l_max) == (None, None)
        assert segments == [f"/dev/shm/{descriptor.token}-edges"]

    def test_dense_segments_keep_their_narrow_dtype(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 2)
        assert matrix.dtype == np.uint8  # the dtype satellite
        arena = SharedSampleArena.publish(graph, matrix, 2)
        try:
            _segment, dtype_str = arena.descriptor.matrix
            assert np.dtype(dtype_str) == np.uint8
            assert arena.descriptor.l_max == 2
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
