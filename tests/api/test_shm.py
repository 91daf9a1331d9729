"""Tests for the zero-copy shared-memory data plane (arena, adoption, grid)."""

import glob
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.api import AnonymizationRequest, ExecutionCache, GridRequest, run_grid
from repro.api.shm import (
    SHM_NAME_PREFIX,
    ArenaDescriptor,
    SharedSampleArena,
    attach_arena,
)
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.graph import Graph
from tests.oracles import independent_responses

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0,
                            include_utility=True)

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason", "metrics")


def assert_response_parity(response, reference):
    for field in PARITY_FIELDS:
        assert getattr(response, field) == getattr(reference, field), field


def leaked_segments():
    """Arena segments still registered in /dev/shm (Linux only)."""
    return glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")


def small_graph():
    return Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestArenaRoundTrip:
    def test_graph_and_matrix_survive_publish_attach(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 3)
        arena = SharedSampleArena.publish(graph, matrix, 3)
        try:
            attached = attach_arena(arena.descriptor)
            assert attached.graph == graph
            assert attached.graph is not graph  # rebuilt, not pickled
            served = attached.cache
            np.testing.assert_array_equal(served.base_matrix(), matrix)
            assert served.l_max == 3
            assert served.compute_count == 0
        finally:
            arena.unlink()

    def test_attached_views_are_read_only(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 2)
        arena = SharedSampleArena.publish(graph, matrix, 2)
        try:
            attached = attach_arena(arena.descriptor)
            with pytest.raises(ValueError):
                attached.cache.base_matrix()[0, 0] = 99
        finally:
            arena.unlink()

    def test_thresholded_matrices_are_private_copies(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 3)
        arena = SharedSampleArena.publish(graph, matrix, 3)
        try:
            attached = attach_arena(arena.descriptor)
            served = attached.cache.matrix(2)
            served[0, 0] = 99  # caller owns the copy — writable
            np.testing.assert_array_equal(
                attached.cache.matrix(2),
                LMaxDistanceCache(graph, 3).matrix(2))
        finally:
            arena.unlink()

    def test_attach_rebuilds_the_graph_without_per_edge_calls(
            self, monkeypatch):
        graph = BASE.resolve_graph()
        arena = SharedSampleArena.publish(graph)
        try:
            def refuse(*args, **kwargs):
                raise AssertionError("per-edge call during attach")

            monkeypatch.setattr(Graph, "add_edge", refuse)
            monkeypatch.setattr(Graph, "add_edge_if_absent", refuse)
            attached = attach_arena(arena.descriptor)
            monkeypatch.undo()
            rebuilt = attached.graph
            assert rebuilt == graph
            assert rebuilt.num_edges == graph.num_edges
            assert [rebuilt.neighbors(v) for v in range(graph.num_vertices)] \
                == [graph.neighbors(v) for v in range(graph.num_vertices)]
            # The rebuilt graph is an ordinary, editable graph.
            u, v = map(int, graph.edge_array()[0])
            rebuilt.remove_edge(u, v)
            assert not rebuilt.has_edge(u, v)
            assert graph.has_edge(u, v)
        finally:
            arena.unlink()

    def test_attach_adopts_the_published_snapshot_without_a_sort(
            self, monkeypatch):
        graph = BASE.resolve_graph()
        published = graph.edge_array()
        arena = SharedSampleArena.publish(graph)
        try:
            attached = attach_arena(arena.descriptor)
            sorts = []
            real_sort = np.sort

            def spy(*args, **kwargs):
                sorts.append(args)
                return real_sort(*args, **kwargs)

            monkeypatch.setattr(np, "sort", spy)
            adopted = attached.graph.edge_array()
            monkeypatch.undo()
            assert sorts == []
            np.testing.assert_array_equal(adopted, published)
            np.testing.assert_array_equal(attached.graph.edge_codes(),
                                          graph.edge_codes())
            assert not adopted.flags.writeable
            # A private copy: it outlives the arena's segments.
            assert not np.shares_memory(attached.graph.edge_codes(),
                                        attached.segments[0].buf)
        finally:
            arena.unlink()
        assert attached.graph.edge_codes().tolist() == graph.edge_codes().tolist()

    def test_edgeless_graph_publishes_without_segment(self):
        graph = Graph(4, edges=[])
        arena = SharedSampleArena.publish(graph)
        try:
            assert arena.descriptor.edges_segment is None
            assert arena.descriptor.l_max is None
            attached = attach_arena(arena.descriptor)
            assert attached.graph == graph
            assert attached.cache is None
        finally:
            arena.unlink()

    def test_descriptor_is_lightweight_and_picklable(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 2)
        arena = SharedSampleArena.publish(graph, matrix, 2)
        try:
            payload = pickle.dumps(arena.descriptor)
            assert len(payload) < 1024  # descriptors, not arrays, cross the pipe
            clone = pickle.loads(payload)
            assert clone == arena.descriptor
            assert clone.l_max == 2
            assert clone.matrix is not None
        finally:
            arena.unlink()

    def test_shape_mismatch_rejected_and_segments_cleaned(self):
        from repro.errors import ConfigurationError

        graph = small_graph()
        wrong = np.zeros((3, 3), dtype=np.int32)
        before = set(leaked_segments())
        with pytest.raises(ConfigurationError, match="shape"):
            SharedSampleArena.publish(graph, wrong, 2)
        assert set(leaked_segments()) == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/dev/shm scanning is Linux-specific")
    def test_unlink_removes_dev_shm_entries_and_is_idempotent(self):
        graph = small_graph()
        matrix = bounded_distance_matrix(graph, 2)
        before = set(leaked_segments())
        arena = SharedSampleArena.publish(graph, matrix, 2)
        assert len(set(leaked_segments()) - before) == 2  # edges + matrix
        arena.unlink()
        assert set(leaked_segments()) == before
        arena.unlink()  # second unlink is a no-op, never raises


class TestArenaAdoption:
    def test_adoption_moves_no_counters(self):
        graph = BASE.resolve_graph()
        matrix = bounded_distance_matrix(graph, 2)
        arena = SharedSampleArena.publish(graph, matrix, 2)
        try:
            cache = ExecutionCache()
            cache.adopt_arena(BASE, arena.descriptor)
            assert cache.sample_loads == 0
            assert cache.graph_for(BASE) == graph
            np.testing.assert_array_equal(
                cache.distances_for(BASE, 2),
                LMaxDistanceCache(graph, 2).matrix(BASE.length_threshold))
            assert cache.sample_loads == 0
            assert cache.distance_computes == 0
        finally:
            arena.unlink()

    def test_adopted_base_serves_each_request_its_own_tier(self):
        from repro.errors import DistanceMemoryError

        graph = BASE.resolve_graph()
        arena = SharedSampleArena.publish(
            graph, bounded_distance_matrix(graph, 2), 2)
        try:
            cache = ExecutionCache()
            cache.adopt_arena(BASE, arena.descriptor)
            # A tiled request builds its own store; an explicit dense one
            # over budget fires its own guard, whatever the arena holds.
            assert cache.distances_for(BASE.with_overrides(
                scale_tier="tiled", scale_budget_bytes=1024), 2) is None
            with pytest.raises(DistanceMemoryError, match="tiled"):
                cache.distances_for(BASE.with_overrides(
                    scale_tier="dense", scale_budget_bytes=64), 2)
            assert isinstance(cache.distances_for(BASE, 2), np.ndarray)
            assert cache.distance_computes == 0
        finally:
            arena.unlink()

    def test_same_token_re_adoption_is_a_no_op(self):
        graph = BASE.resolve_graph()
        arena = SharedSampleArena.publish(graph)
        try:
            cache = ExecutionCache()
            cache.adopt_arena(BASE, arena.descriptor)
            first = cache.graph_for(BASE)
            cache.adopt_arena(BASE, arena.descriptor)
            assert cache.graph_for(BASE) is first  # not re-attached
        finally:
            arena.unlink()

    def test_adoption_replaces_stale_private_entries(self):
        graph = BASE.resolve_graph()
        arena = SharedSampleArena.publish(graph)
        try:
            cache = ExecutionCache()
            cache.graph_for(BASE)  # private copy, counted
            assert cache.sample_loads == 1
            cache.adopt_arena(BASE, arena.descriptor)
            assert cache.graph_for(BASE) == graph
            assert cache.sample_loads == 1  # no second load
        finally:
            arena.unlink()


class TestShmGridPlane:
    """The tentpole acceptance: θ-group fan-out over parent-published arenas."""

    GRID = GridRequest.from_axes(
        BASE, algorithms=("rem", "rem-ins"), length_thresholds=(1, 2),
        thetas=(0.9, 0.7, 0.5))

    def test_single_sample_grid_loads_and_computes_once(self):
        response = run_grid(self.GRID, max_workers=4)
        assert response.ok
        # The whole grid — 4 θ-groups across 4 workers — performed exactly
        # one sample load and one L_max distance computation, both in the
        # parent; workers only attached views.
        assert response.num_sample_loads == 1
        assert response.num_distance_computes == 1

    def test_shm_responses_bit_identical_to_serial(self):
        serial = run_grid(self.GRID, max_workers=0)
        pooled = run_grid(self.GRID, max_workers=2)
        for ours, theirs in zip(pooled.responses, serial.responses):
            assert_response_parity(ours, theirs)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/dev/shm scanning is Linux-specific")
    def test_grid_leaves_no_segments_behind(self):
        before = set(leaked_segments())
        run_grid(self.GRID, max_workers=2)
        assert set(leaked_segments()) == before

    def test_multi_sample_grids_publish_one_arena_each(self):
        grid = GridRequest.from_axes(BASE, seeds=(0, 1),
                                     length_thresholds=(1, 2),
                                     thetas=(0.8, 0.6))
        serial = run_grid(grid, max_workers=0)
        pooled = run_grid(grid, max_workers=2)
        assert pooled.num_sample_loads == 2  # one per sample group
        assert pooled.num_distance_computes == 2
        for ours, theirs in zip(pooled.responses, serial.responses):
            assert_response_parity(ours, theirs)

    def test_serial_path_reports_the_same_counters(self):
        response = run_grid(self.GRID, max_workers=0)
        assert response.num_sample_loads == 1
        assert response.num_distance_computes == 1

    def test_off_plane_single_sample_reports_worker_counters(self):
        # Off the shm plane, a single sample's θ-groups fan out to workers
        # that derive their own artifacts: each worker reports its loads
        # and computes, at most one of each per worker (at L = 2: an L = 1
        # group computes no distances).
        grid = GridRequest.from_axes(BASE.with_overrides(length_threshold=2),
                                     algorithms=("rem", "rem-ins"),
                                     thetas=(0.8, 0.6))
        response = run_grid(grid, max_workers=2, shared_memory=False)
        assert 1 <= response.num_sample_loads <= 2
        assert 1 <= response.num_distance_computes <= 2
        for ours, theirs in zip(response.responses,
                                independent_responses(grid.requests)):
            assert_response_parity(ours, theirs)

    def test_shared_memory_off_falls_back_with_identical_responses(self):
        serial = run_grid(self.GRID, max_workers=0)
        legacy = run_grid(self.GRID, max_workers=2, shared_memory=False)
        for ours, theirs in zip(legacy.responses, serial.responses):
            assert_response_parity(ours, theirs)

    def test_theta_group_failure_is_isolated_on_the_shm_plane(self):
        bad = [BASE.with_overrides(algorithm="no-such-algo", theta=theta)
               for theta in (0.8, 0.6)]
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        response = run_grid(GridRequest(requests=(*bad, *good)), max_workers=2)
        assert all(entry.error is not None for entry in response.responses[:2])
        assert all(entry.ok for entry in response.responses[2:])

    def test_fail_fast_aborts_the_shm_plane(self):
        from repro.errors import GridAbortedError

        grid = GridRequest(requests=(
            BASE.with_overrides(theta=0.8),
            BASE.with_overrides(algorithm="no-such-algo", theta=0.8,
                                length_threshold=2)), on_error="fail_fast")
        with pytest.raises(GridAbortedError, match="fail_fast"):
            run_grid(grid, max_workers=2)

    def test_sample_load_failure_is_isolated_per_sample_group(self):
        bad = [AnonymizationRequest(dataset="no-such-dataset", sample_size=10,
                                    theta=theta) for theta in (0.8, 0.6)]
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        response = run_grid(GridRequest(requests=(*bad, *good)), max_workers=2)
        assert all(entry.error is not None for entry in response.responses[:2])
        assert all(entry.ok for entry in response.responses[2:])

    def test_json_round_trip_keeps_the_counters(self):
        from repro.api import GridResponse

        response = run_grid(GridRequest.from_axes(BASE, thetas=(0.8, 0.6)))
        clone = GridResponse.from_json(response.to_json())
        assert clone == response
        assert clone.num_sample_loads == response.num_sample_loads


CRASH_SCRIPT = textwrap.dedent("""
    import glob
    import os
    import signal

    import repro.api.batch as batch
    from repro.api import AnonymizationRequest, GridRequest, run_grid
    from repro.api.shm import SHM_NAME_PREFIX

    _real = batch._execute_task

    def _killer(task, data_dir, on_error):
        # First θ-group dies hard mid-task; the rest run normally.  Workers
        # inherit this patched module via fork, and the submitted callable
        # resolves back through __main__ in the child.
        assert task.arena is not None  # the shm plane's tasks
        if task.payloads[min(task.payloads)]["theta"] >= 0.85:
            os.kill(os.getpid(), signal.SIGKILL)
        return _real(task, data_dir, on_error)

    batch._execute_task = _killer

    base = AnonymizationRequest(dataset="gnutella", sample_size=25, seed=0)
    grid = GridRequest.from_axes(base, length_thresholds=(1, 2),
                                 thetas=(0.9, 0.6))
    before = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))
    response = run_grid(grid, max_workers=2)
    assert not response.ok  # the killed group surfaced as error responses
    assert any(entry.error is not None for entry in response.responses)
    leaked = set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")) - before
    assert not leaked, f"leaked segments: {leaked}"
    print("CRASH-SAFE")
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="SIGKILL + /dev/shm scanning are Linux-specific")
class TestCrashSafety:
    def test_sigkilled_worker_leaks_nothing(self, tmp_path):
        """A worker dying mid-group must not leak segments or tracker noise.

        The parent owns every arena and unlinks in a ``finally`` block, so
        even a hard SIGKILL (no atexit, no finally in the worker) leaves
        ``/dev/shm`` clean and the resource tracker silent.
        """
        script = tmp_path / "crash_shm.py"
        script.write_text(CRASH_SCRIPT, encoding="utf-8")
        result = subprocess.run([sys.executable, str(script)],
                                capture_output=True, text=True, timeout=560)
        assert result.returncode == 0, result.stderr
        assert "CRASH-SAFE" in result.stdout
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr
