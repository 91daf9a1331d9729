"""Tests for the background job manager (execution, dedup, cancel, resume)."""

import json
import threading
import time

import pytest

from repro.api import (
    AnonymizationRequest,
    AnonymizationResponse,
    CheckpointBuffer,
    GridRequest,
    GridResponse,
    anonymize,
    checkpoint_to_json,
    execute_sample_group,
    request_fingerprint,
    run_grid,
)
from repro.errors import ConfigurationError
from repro.service.jobs import JobManager, parse_request, wrap_result
from repro.service.store import RunStore

BASE = AnonymizationRequest(dataset="gnutella", sample_size=24, seed=0)
THETAS = (0.9, 0.6, 0.4)

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason", "metrics")


def small_grid(**overrides):
    return GridRequest.from_axes(BASE.with_overrides(**overrides),
                                 thetas=THETAS)


def assert_grid_parity(result, reference):
    assert len(result.responses) == len(reference.responses)
    for response, expected in zip(result.responses, reference.responses):
        for field in PARITY_FIELDS:
            assert getattr(response, field) == getattr(expected, field), field


@pytest.fixture
def store(tmp_path):
    run_store = RunStore(str(tmp_path / "runs.db"))
    yield run_store
    run_store.close()


@pytest.fixture
def manager(store):
    job_manager = JobManager(store)
    job_manager.start()
    yield job_manager
    job_manager.stop()


class TestParseRequest:
    def test_each_kind_parses(self):
        assert parse_request("anonymize", BASE.to_dict()) == BASE
        grid = small_grid()
        assert parse_request("grid", grid.to_dict()) == grid

    def test_retired_sweep_kind_rejected(self):
        # θ sweeps are grid jobs; the retired kind names the known ones.
        payload = {"requests": [BASE.to_dict()]}
        with pytest.raises(ConfigurationError,
                           match=r"unknown job kind 'sweep'; "
                                 r"known: \['anonymize', 'grid'\]"):
            parse_request("sweep", payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            parse_request("banana", {})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="object"):
            parse_request("grid", [1, 2, 3])


class TestExecution:
    def test_grid_job_matches_direct_run(self, manager, store):
        grid = small_grid()
        submitted = manager.submit("grid", grid)
        assert submitted["deduped"] is False
        job = manager.wait_for(submitted["job_id"], timeout=120)
        assert job["status"] == "done"
        result = GridResponse.from_json(store.get_result(job["id"]))
        assert_grid_parity(result, run_grid(grid, max_workers=1))

    def test_single_request_job(self, manager, store):
        request = BASE.with_overrides(theta=0.7)
        submitted = manager.submit("anonymize", request)
        job = manager.wait_for(submitted["job_id"], timeout=120)
        assert job["status"] == "done"
        result = AnonymizationResponse.from_json(store.get_result(job["id"]))
        assert result.success is not None
        assert result.request == request

    def test_checkpoints_stream_during_the_run(self, manager, store):
        submitted = manager.submit("grid", small_grid())
        job_id = submitted["job_id"]
        manager.wait_for(job_id, timeout=120)
        assert store.num_checkpoints(job_id) == len(THETAS)
        assert store.num_responses(job_id) == len(THETAS)
        latest = store.latest_checkpoint(job_id)
        assert latest["theta"] == pytest.approx(min(THETAS))

    def test_status_exposes_progress_counters(self, manager, store):
        submitted = manager.submit("grid", small_grid())
        job_id = submitted["job_id"]
        manager.wait_for(job_id, timeout=120)
        status = manager.status(job_id)
        assert status["num_responses"] == len(THETAS)
        assert status["num_checkpoints"] == len(THETAS)
        assert status["latest_checkpoint"] is not None
        assert manager.status("nope") is None

    def test_error_status_job(self, manager, store):
        grid = GridRequest(requests=(
            BASE.with_overrides(theta=0.8),
            BASE.with_overrides(algorithm="no-such-algorithm"),
        ), on_error="fail_fast")
        submitted = manager.submit("grid", grid)
        job = manager.wait_for(submitted["job_id"], timeout=120)
        assert job["status"] == "error"
        assert "no-such-algorithm" in job["error"]
        assert store.get_result(job["id"]) is None

    def test_pooled_grid_job_runs_on_the_shm_plane(self, store):
        # A pooled manager executes grids over the shared-memory data
        # plane; the persisted result is bit-identical to serial execution.
        grid = GridRequest.from_axes(BASE, length_thresholds=(1, 2),
                                     thetas=THETAS)
        manager = JobManager(store, max_workers=2)
        manager.start()
        try:
            submitted = manager.submit("grid", grid)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job["id"]))
            assert_grid_parity(result, run_grid(grid, max_workers=0))
            assert result.num_sample_loads == 1
            assert result.num_distance_computes == 1
        finally:
            manager.stop()

    def test_pooled_manager_honours_the_shared_memory_escape_hatch(self, store):
        grid = GridRequest.from_axes(BASE, length_thresholds=(1, 2),
                                     thetas=THETAS)
        manager = JobManager(store, max_workers=2, shared_memory=False)
        manager.start()
        try:
            submitted = manager.submit("grid", grid)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job["id"]))
            assert_grid_parity(result, run_grid(grid, max_workers=0))
        finally:
            manager.stop()

    def test_isolate_mode_finishes_with_error_responses(self, manager, store):
        grid = GridRequest(requests=(
            BASE.with_overrides(theta=0.8),
            BASE.with_overrides(algorithm="no-such-algorithm"),
        ))
        submitted = manager.submit("grid", grid)
        job = manager.wait_for(submitted["job_id"], timeout=120)
        assert job["status"] == "done"
        result = GridResponse.from_json(store.get_result(job["id"]))
        assert result.responses[0].success
        assert not result.responses[1].success
        assert result.responses[1].error is not None


class TestDedup:
    def test_finished_job_is_reused(self, manager):
        grid = small_grid()
        first = manager.submit("grid", grid)
        manager.wait_for(first["job_id"], timeout=120)
        again = manager.submit("grid", grid)
        assert again == {"job_id": first["job_id"], "status": "done",
                         "deduped": True}

    def test_resubmission_does_zero_new_work(self, manager, store,
                                             monkeypatch):
        grid = small_grid()
        first = manager.submit("grid", grid)
        manager.wait_for(first["job_id"], timeout=120)

        import repro.api.theta_sweep as theta_sweep_module

        def explode(*_args, **_kwargs):
            raise AssertionError("a deduped resubmission must not execute")

        monkeypatch.setattr(theta_sweep_module, "execute_sweep_group", explode)
        again = manager.submit("grid", grid)
        assert again["deduped"] is True
        assert GridResponse.from_json(store.get_result(again["job_id"])) \
            is not None

    def test_in_flight_twin_coalesces(self, store):
        # Not started: the job stays queued, so the twin must coalesce.
        manager = JobManager(store)
        grid = small_grid()
        first = manager.submit("grid", grid)
        second = manager.submit("grid", grid)
        assert second == {"job_id": first["job_id"], "status": "queued",
                          "deduped": True}

    def test_different_requests_do_not_collide(self, store):
        manager = JobManager(store)
        first = manager.submit("grid", small_grid())
        second = manager.submit("grid", small_grid(seed=1))
        assert first["job_id"] != second["job_id"]


class TestCancel:
    def test_cancel_queued_job(self, store):
        manager = JobManager(store)  # no worker: stays queued
        submitted = manager.submit("grid", small_grid())
        assert manager.cancel(submitted["job_id"])
        assert store.get_job(submitted["job_id"])["status"] == "cancelled"

    def test_cancel_unknown_or_finished(self, manager, store):
        assert not manager.cancel("nope")
        submitted = manager.submit("grid", small_grid())
        manager.wait_for(submitted["job_id"], timeout=120)
        assert not manager.cancel(submitted["job_id"])

    def test_cancel_running_job(self, store):
        # A slow grid (larger sample, several θs) gives the cancel a
        # window; the token stops the pass at the next observer callback.
        manager = JobManager(store)
        manager.start()
        try:
            grid = GridRequest.from_axes(
                BASE.with_overrides(sample_size=60),
                thetas=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3))
            submitted = manager.submit("grid", grid)
            job_id = submitted["job_id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = store.get_job(job_id)["status"]
                if status == "running":
                    break
                if status in ("done", "error", "cancelled"):
                    break
                time.sleep(0.005)
            if store.get_job(job_id)["status"] == "running":
                assert manager.cancel(job_id)
            job = manager.wait_for(job_id, timeout=120)
            # Either the cancel landed in time or the tiny job finished
            # first; both are legitimate terminal states.
            assert job["status"] in ("cancelled", "done")
        finally:
            manager.stop()

    def test_orphaned_running_job_can_be_cancelled(self, store):
        manager = JobManager(store)  # worker never started
        submitted = manager.submit("grid", small_grid())
        store.set_status(submitted["job_id"], "running")
        assert manager.cancel(submitted["job_id"])
        assert store.get_job(submitted["job_id"])["status"] == "cancelled"


class TestResume:
    """A dead process's half-finished grid continues bit-identically."""

    def _interrupt(self, store, grid, crossed):
        """Persist the state a process killed after ``crossed`` θs leaves."""
        job_id = store.create_job("grid", request_fingerprint(grid),
                                  grid.to_json(), len(grid.requests))
        store.set_status(job_id, "running")
        buffer = CheckpointBuffer()
        execute_sample_group(list(grid.requests[:crossed]), observer=buffer)
        for index, (_indices, checkpoint) in enumerate(buffer.records):
            store.record_checkpoint(job_id, index, checkpoint.theta,
                                    checkpoint_to_json(checkpoint))
        return job_id

    @pytest.mark.parametrize("crossed", [1, 2])
    def test_resumed_grid_matches_uninterrupted_run(self, store, crossed):
        grid = small_grid()
        job_id = self._interrupt(store, grid, crossed)
        manager = JobManager(store)
        resumed = manager.start()
        try:
            assert resumed == [job_id]
            job = manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job_id))
            assert_grid_parity(result, run_grid(grid, max_workers=1))
        finally:
            manager.stop()

    def test_fully_checkpointed_job_does_no_anonymization(self, store,
                                                          monkeypatch):
        grid = small_grid()
        job_id = self._interrupt(store, grid, len(grid.requests))
        reference = run_grid(grid, max_workers=1)

        import repro.api.theta_sweep as theta_sweep_module

        def explode(*_args, **_kwargs):
            raise AssertionError(
                "every θ is checkpointed; nothing may re-run")

        monkeypatch.setattr(theta_sweep_module, "execute_sweep_group", explode)
        manager = JobManager(store)
        manager.start()
        try:
            job = manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job_id))
            assert_grid_parity(result, reference)
        finally:
            manager.stop()

    def test_stored_responses_short_circuit_whole_groups(self, store,
                                                         monkeypatch):
        grid = small_grid()
        reference = run_grid(grid, max_workers=1)
        job_id = store.create_job("grid", request_fingerprint(grid),
                                  grid.to_json(), len(grid.requests))
        store.set_status(job_id, "running")
        for index, response in enumerate(reference.responses):
            store.record_response(job_id, index, response.to_json())

        import repro.api.theta_sweep as theta_sweep_module

        monkeypatch.setattr(
            theta_sweep_module, "execute_sweep_group",
            lambda *a, **k: pytest.fail("all responses are stored"))
        manager = JobManager(store)
        manager.start()
        try:
            job = manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job_id))
            assert_grid_parity(result, reference)
        finally:
            manager.stop()

    def test_queued_job_from_a_dead_process_just_runs(self, store):
        grid = small_grid()
        job_id = store.create_job("grid", request_fingerprint(grid),
                                  grid.to_json(), len(grid.requests))
        manager = JobManager(store)
        resumed = manager.start()
        try:
            assert resumed == [job_id]
            job = manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
        finally:
            manager.stop()

    def test_pooled_job_resumes_at_sample_group_granularity(self, store):
        # A pooled job killed after its first sample group finished: the
        # resumed run serves that group from the store and loads only the
        # second sample.
        grid = GridRequest.from_axes(BASE, seeds=(0, 1),
                                     length_thresholds=(1, 2),
                                     thetas=THETAS)
        reference = run_grid(grid, max_workers=0)
        job_id = store.create_job("grid", request_fingerprint(grid),
                                  grid.to_json(), len(grid.requests))
        store.set_status(job_id, "running")
        for index in grid.sample_groups()[0]:
            store.record_response(job_id, index,
                                  reference.responses[index].to_json())
        manager = JobManager(store, max_workers=2)
        resumed = manager.start()
        try:
            assert resumed == [job_id]
            job = manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job_id))
            assert_grid_parity(result, reference)
            assert result.num_sample_loads == 1
            assert result.num_distance_computes == 1
        finally:
            manager.stop()

    def test_serial_and_pooled_jobs_store_the_same_counters(self, tmp_path):
        grid = GridRequest.from_axes(BASE, seeds=(0, 1),
                                     length_thresholds=(1, 2),
                                     thetas=THETAS)
        results = []
        for max_workers in (0, 2):
            run_store = RunStore(str(tmp_path / f"runs-{max_workers}.db"))
            manager = JobManager(run_store, max_workers=max_workers)
            manager.start()
            try:
                submitted = manager.submit("grid", grid)
                job = manager.wait_for(submitted["job_id"], timeout=120)
                assert job["status"] == "done"
                results.append(GridResponse.from_json(
                    run_store.get_result(job["id"])))
            finally:
                manager.stop()
                run_store.close()
        serial, pooled = results
        assert_grid_parity(pooled, serial)
        assert serial.num_sample_loads == pooled.num_sample_loads == 2
        assert serial.num_distance_computes \
            == pooled.num_distance_computes == 2

    def test_stored_request_with_retired_field_errors_and_worker_moves_on(
            self, store):
        """A job stored before ``evaluation_mode`` was retired ends ``error``
        with a typed message naming the field; the next job still runs."""
        payload = BASE.to_dict()
        payload["evaluation_mode"] = "scratch"
        stale = store.create_job("anonymize", "stale-fingerprint",
                                 json.dumps(payload), 1)
        store.set_status(stale, "running")
        time.sleep(0.01)  # resume order follows creation time
        fresh = store.create_job("anonymize", request_fingerprint(BASE),
                                 BASE.to_json(), 1)
        manager = JobManager(store)
        resumed = manager.start()
        try:
            assert resumed == [stale, fresh]
            job = manager.wait_for(stale, timeout=120)
            assert job["status"] == "error"
            assert job["error"].startswith("ConfigurationError: ")
            assert "['evaluation_mode']" in job["error"]
            assert manager.wait_for(fresh, timeout=120)["status"] == "done"
        finally:
            manager.stop()

    def test_stored_rows_of_the_retired_sweep_mode_error_on_resume(
            self, store):
        """Rows stored before ``sweep_mode`` and the ``sweep`` kind were
        retired end ``error`` with a typed message; the worker survives."""
        payload = BASE.to_dict()
        payload["sweep_mode"] = "independent"
        stale_request = store.create_job("anonymize", "stale-request",
                                         json.dumps(payload), 1)
        time.sleep(0.01)  # resume order follows creation time
        stale_grid = store.create_job(
            "grid", "stale-grid",
            json.dumps({"requests": [BASE.to_dict()],
                        "sweep_mode": "checkpointed"}), 1)
        time.sleep(0.01)
        stale_kind = store.create_job(
            "sweep", "stale-kind",
            json.dumps({"requests": [BASE.to_dict()]}), 1)
        store.set_status(stale_kind, "running")
        time.sleep(0.01)
        fresh = store.create_job("anonymize", request_fingerprint(BASE),
                                 BASE.to_json(), 1)
        manager = JobManager(store)
        resumed = manager.start()
        try:
            assert resumed == [stale_request, stale_grid, stale_kind, fresh]
            expected = {stale_request: "unknown request field(s) "
                                       "['sweep_mode']",
                        stale_grid: "unknown grid field(s) ['sweep_mode']",
                        stale_kind: "unknown job kind 'sweep'; "
                                    "known: ['anonymize', 'grid']"}
            for job_id, message in expected.items():
                job = manager.wait_for(job_id, timeout=120)
                assert job["status"] == "error"
                assert job["error"].startswith("ConfigurationError: ")
                assert message in job["error"]
            assert manager.wait_for(fresh, timeout=120)["status"] == "done"
        finally:
            manager.stop()

    @pytest.mark.parametrize("field,value", (("engine", "numpy"),
                                             ("scan_mode", "parallel")))
    def test_stored_rows_naming_a_retired_field_error_on_resume(
            self, store, field, value):
        """Interrupted rows stored before a field was retired — in the
        request or in a stored response — end ``error`` with a typed
        message naming the field; the worker runs the next job."""
        payload = dict(BASE.to_dict(), **{field: value})
        stale_request = store.create_job("anonymize", "stale-request",
                                         json.dumps(payload), 1)
        time.sleep(0.01)  # resume order follows creation time
        grid = GridRequest.from_axes(BASE, thetas=(0.9, 0.6))
        stale_response = store.create_job("grid", "stale-response",
                                          grid.to_json(), 1)
        stored = anonymize(grid.requests[0]).to_dict()
        stored["request"][field] = value
        store.record_response(stale_response, 0, json.dumps(stored))
        store.set_status(stale_response, "running")
        time.sleep(0.01)
        fresh = store.create_job("anonymize", request_fingerprint(BASE),
                                 BASE.to_json(), 1)
        manager = JobManager(store)
        resumed = manager.start()
        try:
            assert resumed == [stale_request, stale_response, fresh]
            for job_id in (stale_request, stale_response):
                job = manager.wait_for(job_id, timeout=120)
                assert job["status"] == "error"
                assert job["error"].startswith("ConfigurationError: ")
                assert f"unknown request field(s) ['{field}']" in job["error"]
            assert manager.wait_for(fresh, timeout=120)["status"] == "done"
        finally:
            manager.stop()


class TestWrapResult:
    def test_sweep_and_grid_wrapping(self):
        single = [AnonymizationResponse(request=BASE)]
        assert wrap_result("anonymize", BASE, single) is single[0]
        sweep = GridRequest(requests=(BASE.with_overrides(theta=0.8),))
        responses = [AnonymizationResponse(request=sweep.requests[0])]
        wrapped = wrap_result("grid", sweep, responses)
        assert isinstance(wrapped, GridResponse)
        assert wrapped.num_groups == 1
        grid = small_grid()
        grid_responses = [AnonymizationResponse(request=request)
                          for request in grid.requests]
        wrapped = wrap_result("grid", grid, grid_responses)
        assert wrapped.num_sample_groups == 1
        assert len(wrapped.responses) == len(THETAS)


class TestScaleDefaults:
    def test_bad_server_defaults_rejected_up_front(self, store):
        with pytest.raises(ConfigurationError, match="scale_tier"):
            JobManager(store, scale_tier="huge")

    def test_defaults_patch_auto_requests_at_execution(self, store):
        manager = JobManager(store, scale_tier="tiled",
                             scale_budget_bytes=1 << 20)
        patched = manager._apply_scale_defaults("anonymize", BASE)
        assert patched.scale_tier == "tiled"
        assert patched.scale_budget_bytes == 1 << 20
        patched_grid = manager._apply_scale_defaults("grid", small_grid())
        assert all(request.scale_tier == "tiled"
                   and request.scale_budget_bytes == 1 << 20
                   for request in patched_grid.requests)

    def test_explicit_request_values_beat_the_defaults(self, store):
        manager = JobManager(store, scale_tier="tiled",
                             scale_budget_bytes=1 << 20)
        explicit = BASE.with_overrides(scale_tier="dense",
                                       scale_budget_bytes=2 << 20)
        assert manager._apply_scale_defaults("anonymize", explicit) == explicit

    def test_tiled_default_job_matches_a_dense_run(self, store):
        grid = small_grid()
        manager = JobManager(store, scale_tier="tiled",
                             scale_budget_bytes=1 << 20)
        manager.start()
        try:
            submitted = manager.submit("grid", grid)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job["id"]))
            assert_grid_parity(result, run_grid(grid, max_workers=0))
            # The stored request (and so the dedup fingerprint) keeps the
            # submitted "auto" values; only execution saw the defaults.
            row = store.get_job(job["id"])
            stored = json.loads(row["request_json"])
            assert all(req["scale_tier"] == "auto"
                       for req in stored["requests"])
        finally:
            manager.stop()


class TestScanDefaults:
    """Service-wide ``--scan-workers``: fingerprint-neutral execution default."""

    def test_negative_scan_workers_rejected_up_front(self, store):
        with pytest.raises(ConfigurationError, match="scan_workers"):
            JobManager(store, scan_workers=-1)

    def test_negative_max_workers_rejected_up_front(self, store):
        # A negative pool size used to start fine and then fail every job.
        with pytest.raises(ConfigurationError,
                           match=r"max_workers must be >= 0, got -1"):
            JobManager(store, max_workers=-1)

    def test_default_promotes_serial_requests_at_execution(self, store):
        manager = JobManager(store, scan_workers=2)
        patched = manager._apply_scale_defaults("anonymize", BASE)
        assert patched == BASE.with_overrides(scan_workers=2)
        patched_grid = manager._apply_scale_defaults("grid", small_grid())
        assert all(request.scan_workers == 2
                   for request in patched_grid.requests)

    def test_explicit_scan_choices_beat_the_default(self, store):
        manager = JobManager(store, scan_workers=2)
        serial = BASE.with_overrides(scan_workers=0)
        assert manager._apply_scale_defaults("anonymize", serial) == serial
        chosen = BASE.with_overrides(scan_workers=1)
        assert manager._apply_scale_defaults("anonymize", chosen) == chosen
        # Size left open: only the size is filled in.
        open_size = BASE.with_overrides(scan_workers=None)
        assert manager._apply_scale_defaults(
            "anonymize", open_size) == BASE.with_overrides(scan_workers=2)

    def test_parallel_default_job_matches_a_serial_run(self, store):
        grid = small_grid()
        manager = JobManager(store, scan_workers=2)
        manager.start()
        try:
            submitted = manager.submit("grid", grid)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "done"
            result = GridResponse.from_json(store.get_result(job["id"]))
            assert_grid_parity(result, run_grid(grid, max_workers=0))
            # The stored request (and the dedup fingerprint) keeps the
            # client's serial scan configuration.
            row = store.get_job(job["id"])
            stored = json.loads(row["request_json"])
            assert all(req.get("scan_workers") is None
                       for req in stored["requests"])
        finally:
            manager.stop()


class TestTiledJobsLeaveNoSpills:
    """A tiled job's spill files are private to their stores: none outlives
    the job, however it ends."""

    #: L = 3 keeps each run's store for the whole pass, and 400 bytes hold
    #: one 16-row tile of this 24-vertex sample, so tiles spill.
    GRID = small_grid(length_threshold=3, scale_tier="tiled",
                      scale_budget_bytes=400)
    DENSE = small_grid(length_threshold=3, scale_tier="dense")

    @pytest.fixture
    def spills(self, tmp_path, monkeypatch):
        """One entry per spill file created during the test, all under
        ``tmp_path``."""
        import tempfile

        from repro.graph.distance_store import TiledStore

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        created = []
        ensure = TiledStore._ensure_spill_file

        def recording(store):
            new = store._spill_fd is None
            fd = ensure(store)
            if new:
                created.append(fd)
            return fd

        monkeypatch.setattr(TiledStore, "_ensure_spill_file", recording)
        yield created

    @staticmethod
    def _left_over(tmp_path):
        return sorted(path.name for path in tmp_path.glob("repro-tiles-*"))

    def test_finished_job_leaves_no_spill(self, store, spills, tmp_path):
        manager = JobManager(store)
        manager.start()
        try:
            submitted = manager.submit("grid", self.GRID)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "done"
            assert_grid_parity(
                GridResponse.from_json(store.get_result(job["id"])),
                run_grid(self.DENSE, max_workers=0))
        finally:
            manager.stop()
        assert spills  # premise: the job spilled tiles
        assert self._left_over(tmp_path) == []

    def test_failed_job_leaves_no_spill(self, store, spills, tmp_path,
                                        monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("injected store failure")

        monkeypatch.setattr(store, "record_response", failing)
        manager = JobManager(store)
        manager.start()
        try:
            submitted = manager.submit("grid", self.GRID)
            job = manager.wait_for(submitted["job_id"], timeout=120)
            assert job["status"] == "error"
            assert "injected store failure" in job["error"]
        finally:
            manager.stop()
        assert spills  # premise: the job spilled tiles before it failed
        assert self._left_over(tmp_path) == []

    def test_interrupted_then_resumed_job_leaves_no_spill(
            self, store, spills, tmp_path, monkeypatch):
        """The first pass dies mid-grid the way a killed process does —
        the job row still says ``running`` — and a fresh manager resumes it
        from the crossed θ's checkpoint."""
        import repro.service.jobs as jobs_module

        class Killed(BaseException):
            """Escapes the worker's ``except Exception``, like a SIGKILL."""

        record = jobs_module._StorePersister.__call__

        def die_after_first_checkpoint(persister, indices, checkpoint):
            record(persister, indices, checkpoint)
            raise Killed()

        monkeypatch.setattr(jobs_module._StorePersister, "__call__",
                            die_after_first_checkpoint)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        manager = JobManager(store)
        manager.start()
        submitted = manager.submit("grid", self.GRID)
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 120
        while not store.checkpoints(job_id) and time.monotonic() < deadline:
            time.sleep(0.02)
        manager.stop()
        assert store.get_job(job_id)["status"] == "running"
        assert spills  # premise: the interrupted pass spilled tiles
        assert self._left_over(tmp_path) == []
        monkeypatch.setattr(jobs_module._StorePersister, "__call__", record)

        resumed_manager = JobManager(store)
        assert resumed_manager.start() == [job_id]
        try:
            job = resumed_manager.wait_for(job_id, timeout=120)
            assert job["status"] == "done"
            assert_grid_parity(
                GridResponse.from_json(store.get_result(job_id)),
                run_grid(self.DENSE, max_workers=0))
        finally:
            resumed_manager.stop()
        assert self._left_over(tmp_path) == []
