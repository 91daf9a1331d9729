"""Tests for the intra-group parallel candidate scan (``scan_workers >= 2``).

The scan pool promises three things, and these tests pin all of them:

* **Bit-identity** — sharding a candidate scan across workers, each a
  forked copy of the session, returns exactly the evaluations
  (``Fraction`` maxima, tie counts, per-type counts) of the serial batched
  scan, so whole anonymization runs produce identical step sequences under
  a fixed seed, on the dense and the tiled tier alike — also while the
  parent keeps rewriting its tiled store's spill slots.
* **Crash safety** — the pool creates no ``/dev/shm`` segment and never
  touches the parent's spill file, so even ``SIGKILL``-ing workers mid-run
  leaks nothing; the session falls back to the serial scan permanently and
  keeps producing identical results.
* **No nested pools** — pool workers (θ-group or scan) never start scan
  pools of their own, and run BLAS on one thread, while the parent keeps
  its own thread count.

Every test that wants a pool passes an explicit ``scan_workers``: ``None``,
0 and 1 all mean a serial scan.
"""

from __future__ import annotations

import glob
import json
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    OpacityComputer,
    OpacitySession,
)
from repro.api import AnonymizationRequest, GridRequest, run_grid
from repro.api import theta_sweep as theta_sweep_module
from repro.core import scan_pool as scan_pool_module
from repro.core.anonymizer import AnonymizerConfig
from repro.core.scan_pool import (
    blas_threads,
    in_pool_worker,
    mark_pool_worker,
    resolve_scan_workers,
)
from repro.errors import ConfigurationError
from repro.graph import erdos_renyi_graph
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_store import StoreConfig
from tests.oracles import PerCandidateSession, outcomes, run_on
from tests.property.strategies import graphs, length_bounds

#: Explicit pool size used throughout.
WORKERS = 2


def leaked_arenas():
    return glob.glob("/dev/shm/repro-arena*")


def make_candidates(graph, insertions=4):
    """Every single-edge removal plus a few insertions — a greedy-style scan."""
    pairs = [((edge,), ()) for edge in graph.edges()]
    pairs += [((), (edge,)) for edge in sorted(graph.non_edges())[:insertions]]
    return pairs


def first_candidate(endpoints, members, gained):
    """A scan shard's first row as a ``(removals, insertions)`` pair."""
    edits = [(tuple(endpoints[cell].tolist()), flag)
             for cell, flag in zip(members[0].tolist(), gained[0].tolist())
             if cell >= 0]
    return (tuple(edge for edge, flag in edits if not flag),
            tuple(edge for edge, flag in edits if flag))


class TestResolveScanWorkers:
    def test_serial_counts_never_start_pools(self):
        assert resolve_scan_workers(None) == 0
        assert resolve_scan_workers(0) == 0
        graph = erdos_renyi_graph(20, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        session = OpacitySession(computer, graph.copy(),
                                 scan_workers=resolve_scan_workers(1))
        try:
            assert session.scan_parallelism == 1
            session.evaluate_edits(make_candidates(graph))
            assert session.parallel_scans == 0
            assert session._scan_pool is None
        finally:
            session.close()

    def test_explicit_request_wins(self):
        assert resolve_scan_workers(3) == 3
        assert resolve_scan_workers(0) == 0

    def test_none_is_serial_on_any_core_count(self, monkeypatch):
        for cores in (8, 2, 1):
            monkeypatch.setattr(scan_pool_module.os, "cpu_count",
                                lambda: cores)
            assert resolve_scan_workers(None) == 0

    def test_pool_workers_refuse_nested_pools(self, monkeypatch):
        monkeypatch.setattr(scan_pool_module, "_IN_POOL_WORKER", False)
        # Marking this process must not pin the whole test session's BLAS.
        pinned = []
        monkeypatch.setattr(scan_pool_module, "_set_blas_threads",
                            pinned.append)
        assert not in_pool_worker()
        assert resolve_scan_workers(3) == 3
        mark_pool_worker()
        assert in_pool_worker()
        assert pinned == [1]
        assert resolve_scan_workers(3) == 0
        assert resolve_scan_workers(None) == 0

    def test_parallel_scratch_config_rejected(self):
        # Scratch evaluation is retired, so the combination can no longer
        # be configured, neither directly nor from a stored request.
        with pytest.raises(TypeError, match="evaluation_mode"):
            AnonymizerConfig(scan_workers=WORKERS, evaluation_mode="scratch")
        with pytest.raises(ConfigurationError, match="evaluation_mode"):
            AnonymizationRequest.from_dict(
                {"algorithm": "rem", "dataset": "gnutella",
                 "scan_workers": WORKERS, "evaluation_mode": "scratch"})

    def test_negative_scan_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="scan_workers"):
            AnonymizerConfig(scan_workers=-1).validate()


@pytest.fixture
def parent_blas_threads():
    """This process's OpenBLAS thread count, raised to at least 2 for the
    test, so that a worker's pin to one thread shows on any core count."""
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS loaded in this process")
    scan_pool_module._set_blas_threads(max(before, 2))
    try:
        yield blas_threads()
    finally:
        scan_pool_module._set_blas_threads(before)


def record_blas_threads(directory):
    """Write ``pid -> BLAS threads`` of every call into ``directory``."""
    (directory / str(os.getpid())).write_text(str(blas_threads()))


def recorded_blas_threads(directory):
    return {int(path.name): int(path.read_text())
            for path in directory.iterdir()}


class TestBlasThreadRule:
    """Pool workers run BLAS on one thread; the parent keeps its count."""

    def test_theta_group_workers_run_one_blas_thread(
            self, parent_blas_threads, monkeypatch, tmp_path):
        execute = theta_sweep_module.execute_sweep_group

        def recording(*args, **kwargs):
            record_blas_threads(tmp_path)
            return execute(*args, **kwargs)

        # Pool workers are forked, so they inherit the patched module.
        monkeypatch.setattr(theta_sweep_module, "execute_sweep_group",
                            recording)
        base = AnonymizationRequest(dataset="gnutella", sample_size=24,
                                    seed=0)
        grid = GridRequest.from_axes(base, length_thresholds=(1, 2),
                                     thetas=(0.8, 0.6))
        response = run_grid(grid, max_workers=2)
        assert response.ok
        recorded = recorded_blas_threads(tmp_path)
        assert recorded and os.getpid() not in recorded
        assert set(recorded.values()) == {1}
        assert blas_threads() == parent_blas_threads

    def test_scan_workers_run_one_blas_thread(
            self, parent_blas_threads, monkeypatch, tmp_path):
        collect = OpacitySession.collect_edit_changes

        def recording(session, *args, **kwargs):
            record_blas_threads(tmp_path)
            return collect(session, *args, **kwargs)

        monkeypatch.setattr(OpacitySession, "collect_edit_changes",
                            recording)
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        result = EdgeRemovalAnonymizer(
            length_threshold=3, theta=0.5, seed=0, max_steps=2,
            scan_workers=WORKERS).anonymize(graph)
        assert result.debug_info["parallel_scans"] > 0
        recorded = recorded_blas_threads(tmp_path)
        assert len(recorded) == WORKERS and os.getpid() not in recorded
        assert set(recorded.values()) == {1}
        assert blas_threads() == parent_blas_threads
        assert leaked_arenas() == []

    def test_missing_openblas_makes_the_pin_a_no_op(self, monkeypatch):
        monkeypatch.setattr(scan_pool_module, "_IN_POOL_WORKER", False)
        monkeypatch.setattr(scan_pool_module, "_find_openblas", lambda: None)
        mark_pool_worker()
        assert in_pool_worker()
        assert blas_threads() is None

    def test_openblas_without_thread_symbols_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(scan_pool_module, "_find_openblas",
                            lambda: object())
        scan_pool_module._set_blas_threads(1)
        assert blas_threads() is None


class TestParallelScanEquivalence:
    """Differential suite: pooled scan ≡ serial scan ≡ per-candidate oracle."""

    @given(graphs(min_vertices=6, max_vertices=12), length_bounds)
    @settings(max_examples=10, deadline=None)
    def test_parallel_evaluate_edits_matches_serial(self, graph, length):
        computer = OpacityComputer(DegreePairTyping(graph), length)
        serial = OpacitySession(computer, graph.copy())
        parallel = OpacitySession(computer, graph.copy(),
                                  scan_workers=WORKERS)
        try:
            pairs = make_candidates(graph)
            expected = outcomes(serial.evaluate_edits(pairs))
            assert outcomes(parallel.evaluate_edits(pairs)) == expected
            assert [parallel.evaluate_edit(removals, insertions)
                    for removals, insertions in pairs] == expected
            assert parallel.graph == serial.graph
        finally:
            serial.close()
            parallel.close()
        assert leaked_arenas() == []

    @given(graphs(min_vertices=6, max_vertices=12), length_bounds,
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_scan_survives_applied_edits(self, graph, length, seed):
        """Apply a few edits between scans — pool stays in sync with parent."""
        computer = OpacityComputer(DegreePairTyping(graph), length)
        serial = OpacitySession(computer, graph.copy())
        parallel = OpacitySession(computer, graph.copy(),
                                  scan_workers=WORKERS)
        try:
            for _ in range(3):
                pairs = make_candidates(parallel.graph)
                if not pairs:
                    break
                assert outcomes(parallel.evaluate_edits(pairs)) == \
                    outcomes(serial.evaluate_edits(pairs))
                removals, insertions = pairs[seed % len(pairs)]
                serial.apply_edit(removals=removals, insertions=insertions)
                parallel.apply_edit(removals=removals, insertions=insertions)
                assert parallel.current() == serial.current()
        finally:
            serial.close()
            parallel.close()
        assert leaked_arenas() == []

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=5, deadline=None)
    def test_rem_runs_identically(self, seed):
        graph = erdos_renyi_graph(18, 0.25, seed=seed % 97)
        self._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=3, theta=0.5, seed=seed, max_steps=4),
            graph)

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=3, deadline=None)
    def test_rem_ins_with_lookahead_runs_identically(self, seed):
        graph = erdos_renyi_graph(14, 0.3, seed=seed % 89)
        observed = self._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=3, theta=0.4, seed=seed, max_steps=2,
                 lookahead=2, max_combinations=40,
                 insertion_candidate_cap=20),
            graph)
        assert observed.debug_info["parallel_scans"] > 0

    @pytest.mark.parametrize("engine", sorted(available_engines()))
    def test_engines_run_identically(self, engine):
        # Engines are result-neutral: a run seeded with any engine's
        # matrix equals the default run, on the serial and pooled scans,
        # and the default run equals the per-candidate oracle at L=3.
        graph = erdos_renyi_graph(20, 0.2, seed=11)
        params = dict(length_threshold=3, theta=0.5, seed=0, max_steps=3)
        self._assert_identical(EdgeRemovalAnonymizer, params, graph)
        reference = EdgeRemovalAnonymizer(**params).anonymize(graph)
        for scan_workers in (0, WORKERS):
            seeded = EdgeRemovalAnonymizer(
                scan_workers=scan_workers, **params).anonymize(
                graph, initial_distances=bounded_distance_matrix(
                    graph, 3, engine=engine))
            self._assert_results_equal(seeded, reference)
        assert seeded.debug_info["scan_workers"] == WORKERS
        assert leaked_arenas() == []

    def test_tiled_tier_matches_dense_serial(self):
        """Parallel scan over streamed tiles ≡ serial scan over the dense
        matrix — the strongest cross-tier differential."""
        graph = erdos_renyi_graph(24, 0.18, seed=5)
        params = dict(length_threshold=3, theta=0.5, seed=0, max_steps=4)
        reference = EdgeRemovalAnonymizer(
            scan_workers=0,
            scale_tier="dense", **params).anonymize(graph)
        observed = EdgeRemovalAnonymizer(
            scan_workers=WORKERS, scale_tier="tiled",
            scale_budget_bytes=4096, **params).anonymize(graph)
        self._assert_results_equal(observed, reference)
        assert observed.debug_info["scan_workers"] == WORKERS
        assert observed.debug_info["parallel_scans"] > 0
        assert leaked_arenas() == []

    def test_l2_runs_never_start_a_pool(self):
        """L = 2 scans score from common-neighbour counts, serially: a
        requested pool never starts and the run equals the serial one."""
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        params = dict(length_threshold=2, theta=0.5, seed=0, max_steps=4)
        reference = EdgeRemovalAnonymizer(scan_workers=0,
                                          **params).anonymize(graph)
        observed = EdgeRemovalAnonymizer(scan_workers=WORKERS,
                                         **params).anonymize(graph)
        assert reference.num_steps > 0
        self._assert_results_equal(observed, reference)
        assert observed.debug_info["scan_workers"] == WORKERS
        assert observed.debug_info["parallel_scans"] == 0
        assert leaked_arenas() == []

    @staticmethod
    def _assert_results_equal(observed, reference):
        assert [(step.operation, step.edges) for step in observed.steps] == \
               [(step.operation, step.edges) for step in reference.steps]
        assert observed.final_opacity == reference.final_opacity
        assert observed.evaluations == reference.evaluations
        assert observed.distortion == reference.distortion
        assert observed.anonymized_graph == reference.anonymized_graph

    @classmethod
    def _assert_identical(cls, algorithm, params, graph):
        reference = algorithm(scan_workers=0, **params).anonymize(graph)
        serial, evaluations = run_on(PerCandidateSession, algorithm(**params),
                                     graph)
        assert evaluations == serial.evaluations > 0
        observed = algorithm(scan_workers=WORKERS, **params).anonymize(graph)
        cls._assert_results_equal(serial, reference)
        cls._assert_results_equal(observed, reference)
        assert observed.debug_info["scan_workers"] == WORKERS
        assert leaked_arenas() == []
        return observed


class TestForkedSessions:
    """Workers scan with the session they inherit; nothing is published."""

    @staticmethod
    def _tiled(spill_dir):
        """16-row tiles of a 40-vertex L = 3 graph are 640 bytes, so 1300
        bytes hold two tiles of three."""
        return StoreConfig(tier="tiled", budget_bytes=1300,
                           spill_dir=str(spill_dir))

    @staticmethod
    def _session(graph, **kwargs):
        computer = OpacityComputer(DegreePairTyping(graph), 3)
        return OpacitySession(computer, graph.copy(), **kwargs)

    def test_scans_match_while_the_parent_rewrites_spill_slots(self,
                                                               tmp_path):
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        serial = self._session(graph, store_config=StoreConfig(tier="dense"))
        parallel = self._session(graph, store_config=self._tiled(tmp_path),
                                 scan_workers=WORKERS)
        try:
            parent_store = parallel._distance.store
            assert parent_store.num_tiles == 3  # premise: the budget holds 2
            spills_at_start = None
            for step in range(4):
                pairs = make_candidates(parallel.graph)
                assert outcomes(parallel.evaluate_edits(pairs)) == \
                    outcomes(serial.evaluate_edits(pairs))
                if spills_at_start is None:
                    spills_at_start = parent_store.tile_spills
                removals, insertions = pairs[(7 * step) % len(pairs)]
                serial.apply_edit(removals, insertions)
                parallel.apply_edit(removals, insertions)
                assert parallel.current() == serial.current()
            assert parallel._scan_pool is not None
            assert parallel.parallel_scans == 4
            # The parent rewrote spill slots while the workers lived.
            assert parent_store.tile_spills > spills_at_start
        finally:
            serial.close()
            parallel.close()

    @pytest.mark.parametrize("algorithm", [EdgeRemovalAnonymizer,
                                           EdgeRemovalInsertionAnonymizer])
    def test_tiled_runs_match_serial_with_a_two_tile_budget(self, algorithm):
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        params = dict(length_threshold=3, theta=0.3, seed=0, max_steps=4,
                      insertion_candidate_cap=30)
        if algorithm is EdgeRemovalAnonymizer:
            del params["insertion_candidate_cap"]
        reference = algorithm(scan_workers=0, scale_tier="dense",
                              **params).anonymize(graph)
        observed = algorithm(scan_workers=WORKERS, scale_tier="tiled",
                             scale_budget_bytes=1300,
                             **params).anonymize(graph)
        assert reference.num_steps >= 3
        TestParallelScanEquivalence._assert_results_equal(observed, reference)
        assert observed.debug_info["parallel_scans"] > 0

    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    def test_pooled_scan_creates_no_shm_segment(self, tier, monkeypatch,
                                                tmp_path):
        from multiprocessing import shared_memory

        created = []
        init = shared_memory.SharedMemory.__init__

        def recording(segment, *args, **kwargs):
            created.append((args, kwargs))
            init(segment, *args, **kwargs)

        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", recording)
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        config = (self._tiled(tmp_path) if tier == "tiled"
                  else StoreConfig(tier="dense"))
        session = self._session(graph, store_config=config,
                                scan_workers=WORKERS)
        try:
            pairs = make_candidates(graph)
            session.evaluate_edits(pairs)
            session.apply_edit(*pairs[0])
            session.evaluate_edits(make_candidates(session.graph))
            assert session.parallel_scans == 2
            assert session._scan_pool is not None
            assert leaked_arenas() == []
        finally:
            session.close()
        assert created == []
        assert leaked_arenas() == []

    def test_workers_scan_a_private_store_of_the_same_geometry(
            self, monkeypatch, tmp_path):
        collect = OpacitySession.collect_edit_changes

        def recording(session, *shard):
            changes = collect(session, *shard)
            store = session._distance.store
            (tmp_path / str(os.getpid())).write_text(json.dumps(
                [type(store).__name__, store.tile_rows, store.budget_bytes,
                 store.tile_computes > 0, id(store)]))
            return changes

        monkeypatch.setattr(OpacitySession, "collect_edit_changes",
                            recording)
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        (tmp_path / "spills").mkdir()
        session = self._session(graph,
                                store_config=self._tiled(tmp_path / "spills"),
                                scan_workers=WORKERS)
        try:
            parent_store = session._distance.store
            session.evaluate_edits(make_candidates(graph))
            assert session.parallel_scans == 1
        finally:
            session.close()
        seen = {path.name: json.loads(path.read_text())
                for path in tmp_path.iterdir() if path.is_file()}
        assert len(seen) == WORKERS and str(os.getpid()) not in seen
        for name, tile_rows, budget, computed, identity in seen.values():
            assert (name, tile_rows, budget) == (
                "TiledStore", parent_store.tile_rows,
                parent_store.budget_bytes)
            assert computed  # the worker computed its own tiles
            assert identity != id(parent_store)

    @pytest.mark.parametrize("ending", ["close", "sigkill"])
    def test_parent_spill_file_survives_the_pool(self, ending, tmp_path):
        # No spill file has a name, so however the pool ends tmp_path stays
        # empty, and the parent's file still holds its bytes.
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        session = self._session(graph, store_config=self._tiled(tmp_path),
                                scan_workers=WORKERS)
        try:
            pairs = make_candidates(graph)
            session.apply_edit(*pairs[3])  # every tile materialized
            fd = session._distance.store._spill_fd
            assert fd is not None  # premise: the parent spilled tiles
            before = os.pread(fd, os.fstat(fd).st_size, 0)
            # The session holds the only reference to its store as the
            # workers fork, so each worker's copy dies when it swaps in its
            # own store, and the inherited finalizer must do nothing.
            session.evaluate_edits(make_candidates(session.graph))
            assert session.parallel_scans == 1
            pool = session._scan_pool
            if ending == "sigkill":
                for pid in pool.worker_pids:
                    os.kill(pid, signal.SIGKILL)
                for process in pool._processes:
                    process.join(timeout=10)
            session._teardown_scan_pool(failed=False)
            assert list(tmp_path.iterdir()) == []
            assert session._distance.store._spill_fd == fd
            assert os.pread(fd, os.fstat(fd).st_size, 0) == before
            np.testing.assert_array_equal(
                session._distance.store.to_array(),
                bounded_distance_matrix(session.graph, 3))
        finally:
            session.close()
        with pytest.raises(OSError):
            os.fstat(fd)

    @pytest.mark.parametrize("lookahead", [1, 2])
    def test_scan_messages_carry_arrays(self, lookahead, monkeypatch):
        from multiprocessing.connection import Connection

        sent = []
        send = Connection.send

        def recording(conn, message):
            if message[0] == "scan":
                sent.append(message)
            return send(conn, message)

        monkeypatch.setattr(Connection, "send", recording)
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=3, theta=0.3, seed=0, max_steps=1,
            lookahead=lookahead, scan_workers=WORKERS).anonymize(graph)
        assert result.debug_info["parallel_scans"] > 0 and sent
        for _, endpoints, members, gained in sent:
            assert all(isinstance(part, np.ndarray)
                       for part in (endpoints, members, gained))
            # A shard carries no more cells than it names, and one flag
            # per member.
            assert endpoints.shape[1] == 2
            assert len(endpoints) <= members.size
            assert gained.shape == members.shape
        assert {message[2].shape[1] for message in sent} == \
            set(range(1, lookahead + 1))

    def test_scan_pool_imports_nothing_from_the_api_layer(self):
        import ast

        tree = ast.parse(open(scan_pool_module.__file__).read())
        modules = [node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        assert not [name for name in modules if name.startswith("repro.api")]


class TestCrashSafety:
    def test_sigkilled_worker_falls_back_serially(self):
        graph = erdos_renyi_graph(20, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 3)
        serial = OpacitySession(computer, graph.copy())
        parallel = OpacitySession(computer, graph.copy(),
                                  scan_workers=WORKERS)
        try:
            pairs = make_candidates(graph)
            expected = outcomes(serial.evaluate_edits(pairs))
            assert outcomes(parallel.evaluate_edits(pairs)) == expected
            pool = parallel._scan_pool
            assert pool is not None and pool.num_workers == WORKERS
            for pid in pool.worker_pids:
                os.kill(pid, signal.SIGKILL)
            # The next scan notices the dead pool, tears it down, and
            # falls back to the serial path — bit-identically, for good.
            assert outcomes(parallel.evaluate_edits(pairs)) == expected
            assert parallel._scan_pool is None
            assert parallel.scan_parallelism == 1
            assert outcomes(parallel.evaluate_edits(pairs)) == expected
        finally:
            serial.close()
            parallel.close()
        assert leaked_arenas() == []

    @pytest.mark.parametrize("failure", ["beyond", "error"])
    def test_bad_shard_reply_falls_back_serially(self, monkeypatch, failure):
        """A shard answered with a candidate index at or past its size, or
        with an error reply, fails the whole scan: the session drops the
        pool and rescans serially."""
        graph = erdos_renyi_graph(20, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 3)
        pairs = make_candidates(graph)
        # Workers fork with the patch in place; only a shard that starts
        # with the trigger misbehaves, and forward scans never start one.
        trigger = pairs[-1]
        collect = OpacitySession.collect_edit_changes

        def misbehaving(session, endpoints, members, gained):
            if first_candidate(endpoints, members, gained) != trigger:
                return collect(session, endpoints, members, gained)
            if failure == "error":
                raise RuntimeError("injected shard failure")
            candidate, types, deltas = collect(session, endpoints, members,
                                               gained)
            return (np.append(candidate, len(members)), np.append(types, 0),
                    np.append(deltas, 1))

        monkeypatch.setattr(OpacitySession, "collect_edit_changes",
                            misbehaving)
        serial = OpacitySession(computer, graph.copy())
        parallel = OpacitySession(computer, graph.copy(),
                                  scan_workers=WORKERS)
        try:
            assert outcomes(parallel.evaluate_edits(pairs)) == \
                outcomes(serial.evaluate_edits(pairs))
            assert parallel.parallel_scans == 1
            reversed_pairs = pairs[::-1]
            expected = outcomes(serial.evaluate_edits(reversed_pairs))
            assert outcomes(parallel.evaluate_edits(reversed_pairs)) == expected
            assert parallel.parallel_scans == 1
            assert parallel._scan_pool is None
            assert parallel.scan_parallelism == 1
            assert outcomes(parallel.evaluate_edits(reversed_pairs)) == expected
            assert parallel.parallel_scans == 1
        finally:
            serial.close()
            parallel.close()
        assert leaked_arenas() == []

    def test_sigkill_mid_greedy_run_keeps_results_identical(self):
        graph = erdos_renyi_graph(18, 0.25, seed=7)
        params = dict(length_threshold=3, theta=0.5, seed=0, max_steps=4)
        reference = EdgeRemovalAnonymizer(
            scan_workers=0,
            **params).anonymize(graph)

        killed = []

        class KillAfterFirstStep(EdgeRemovalAnonymizer):
            """SIGKILL every pool worker right after the first greedy step."""

            def _perform_step(self, session, current, rng, result):
                outcome = super()._perform_step(session, current, rng, result)
                pool = session._scan_pool
                if pool is not None and not killed:
                    killed.extend(pool.worker_pids)
                    for pid in pool.worker_pids:
                        os.kill(pid, signal.SIGKILL)
                return outcome

        observed = KillAfterFirstStep(
            scan_workers=WORKERS, **params).anonymize(graph)
        assert killed, "the run never started a scan pool"
        TestParallelScanEquivalence._assert_results_equal(observed, reference)
        assert observed.debug_info["parallel_scans"] >= 1
        assert leaked_arenas() == []


class TestDebugInfo:
    def test_debug_info_reports_the_scan_configuration(self):
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        params = dict(length_threshold=3, theta=0.5, seed=0, max_steps=3)
        serial = EdgeRemovalAnonymizer(
            scan_workers=0,
            **params).anonymize(graph)
        assert serial.debug_info == {"scan_workers": 0, "parallel_scans": 0}
        parallel = EdgeRemovalAnonymizer(
            scan_workers=WORKERS, **params).anonymize(graph)
        assert parallel.debug_info["scan_workers"] == WORKERS
        assert parallel.debug_info["parallel_scans"] > 0

    def test_debug_info_does_not_affect_result_equality(self):
        graph = erdos_renyi_graph(14, 0.3, seed=4)
        params = dict(length_threshold=1, theta=0.5, seed=0, max_steps=2)
        first = EdgeRemovalAnonymizer(**params).anonymize(graph)
        second = EdgeRemovalAnonymizer(**params).anonymize(graph)
        second.runtime_seconds = first.runtime_seconds
        second.debug_info["scan_workers"] = 99
        assert first == second


class TestChunkScaling:
    def test_scan_parallelism_reflects_the_pool(self):
        graph = erdos_renyi_graph(16, 0.3, seed=1)
        computer = OpacityComputer(DegreePairTyping(graph), 3)
        session = OpacitySession(computer, graph.copy(),
                                 scan_workers=4)
        assert session.scan_parallelism == 4
        session.close()
        serial = OpacitySession(computer, graph.copy())
        assert serial.scan_parallelism == 1
        serial.close()

    def test_l1_sessions_stay_serial(self):
        self._assert_stays_serial(1)

    def test_l2_sessions_stay_serial(self):
        self._assert_stays_serial(2)

    @staticmethod
    def _assert_stays_serial(length):
        graph = erdos_renyi_graph(16, 0.3, seed=1)
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph.copy(),
                                 scan_workers=4)
        assert session.scan_parallelism == 1
        session.evaluate_edits(make_candidates(graph))
        assert session.parallel_scans == 0
        assert session._scan_pool is None
        session.close()
