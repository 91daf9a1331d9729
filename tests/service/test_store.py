"""Tests for the SQLite run store (schema, backups, round-trips, dedup)."""

import json
import os
import threading

import pytest

from repro.api import (
    AnonymizationRequest,
    AnonymizationResponse,
    CheckpointBuffer,
    GridRequest,
    GridResponse,
    checkpoint_from_json,
    checkpoint_to_json,
    execute_sample_group,
    request_fingerprint,
)
from repro.errors import ConfigurationError
from repro.service.store import BACKUP_KEEP, RunStore

BASE = AnonymizationRequest(dataset="gnutella", sample_size=24, seed=0)


@pytest.fixture
def store(tmp_path):
    run_store = RunStore(str(tmp_path / "runs.db"))
    yield run_store
    run_store.close()


class TestInit:
    def test_fresh_init_reports_empty_tables(self, store):
        summary = store.init_db()
        assert summary["ok"] and not summary["did_reset"]
        assert summary["stats"] == {"jobs": 0, "checkpoints": 0,
                                    "responses": 0, "results": 0}

    def test_reset_archives_and_empties(self, store):
        job_id = store.create_job("anonymize", "fp", BASE.to_json(), 1)
        assert store.get_job(job_id) is not None
        summary = store.init_db(reset=True)
        assert summary["did_reset"]
        assert summary["stats"]["jobs"] == 0
        assert store.get_job(job_id) is None
        assert len(summary["backups"]) == 1
        backup_dir = os.path.join(os.path.dirname(store.db_path), "backups")
        assert sorted(os.listdir(backup_dir)) == sorted(summary["backups"])

    def test_backups_keep_a_rolling_window(self, store):
        for _ in range(BACKUP_KEEP + 2):
            summary = store.init_db(reset=True)
        assert len(summary["backups"]) == BACKUP_KEEP
        backup_dir = os.path.join(os.path.dirname(store.db_path), "backups")
        assert len(os.listdir(backup_dir)) == BACKUP_KEEP

    def test_backup_is_a_readable_snapshot(self, store, tmp_path):
        import sqlite3

        store.create_job("anonymize", "fp", BASE.to_json(), 1)
        summary = store.init_db(reset=True)
        backup = os.path.join(str(tmp_path), "backups", summary["backups"][0])
        conn = sqlite3.connect(backup)
        try:
            rows = conn.execute("SELECT COUNT(*) FROM jobs").fetchone()
        finally:
            conn.close()
        assert rows[0] == 1  # the pre-reset job survived in the archive


class TestJobLifecycle:
    def test_create_sets_queued(self, store):
        job_id = store.create_job("grid", "fp", "{}", 3)
        job = store.get_job(job_id)
        assert job["status"] == "queued"
        assert job["kind"] == "grid"
        assert job["num_requests"] == 3
        assert job["created_at"] > 0

    def test_status_transitions_stamp_times(self, store):
        job_id = store.create_job("grid", "fp", "{}", 1)
        store.set_status(job_id, "running")
        assert store.get_job(job_id)["started_at"] is not None
        store.set_status(job_id, "done")
        job = store.get_job(job_id)
        assert job["status"] == "done"
        assert job["finished_at"] is not None

    def test_error_status_carries_the_message(self, store):
        job_id = store.create_job("grid", "fp", "{}", 1)
        store.set_status(job_id, "error", "ValueError: boom")
        job = store.get_job(job_id)
        assert job["status"] == "error"
        assert job["error"] == "ValueError: boom"

    def test_unknown_status_rejected(self, store):
        job_id = store.create_job("grid", "fp", "{}", 1)
        with pytest.raises(ConfigurationError, match="status"):
            store.set_status(job_id, "finished")

    def test_interrupted_jobs_are_in_flight_only(self, store):
        queued = store.create_job("grid", "a", "{}", 1)
        running = store.create_job("grid", "b", "{}", 1)
        done = store.create_job("grid", "c", "{}", 1)
        cancelled = store.create_job("grid", "d", "{}", 1)
        store.set_status(running, "running")
        store.set_status(done, "done")
        store.set_status(cancelled, "cancelled")
        assert [job["id"] for job in store.interrupted_jobs()] \
            == [queued, running]

    def test_find_job_by_fingerprint_and_status(self, store):
        job_id = store.create_job("grid", "fp-x", "{}", 1)
        assert store.find_job("fp-x", ("queued",))["id"] == job_id
        assert store.find_job("fp-x", ("done",)) is None
        assert store.find_job("fp-other", ("queued",)) is None


class TestSqliteRoundTrips:
    """Every request/response/checkpoint type through a real write/read."""

    def test_anonymization_request_and_response(self, store):
        request = BASE.with_overrides(theta=0.7)
        job_id = store.create_job("anonymize", request_fingerprint(request),
                                  request.to_json(), 1)
        restored = AnonymizationRequest.from_json(
            store.get_job(job_id)["request_json"])
        assert restored == request
        response = AnonymizationResponse(request=request, success=True,
                                         final_opacity=0.5,
                                         anonymized_edges=((0, 1),),
                                         num_vertices=2)
        store.record_response(job_id, 0, response.to_json())
        assert AnonymizationResponse.from_json(
            store.responses(job_id)[0]) == response

    def test_error_response_round_trips(self, store):
        request = BASE.with_overrides(algorithm="no-such-algo")
        response = AnonymizationResponse.failure(request, KeyError("nope"))
        job_id = store.create_job("anonymize", "fp", request.to_json(), 1)
        store.record_response(job_id, 0, response.to_json())
        restored = AnonymizationResponse.from_json(store.responses(job_id)[0])
        assert restored == response
        assert restored.error is not None

    def test_sweep_types_round_trip(self, store):
        # A θ sweep is a grid job whose requests differ only in θ.
        sweep = GridRequest(requests=(BASE, BASE.with_overrides(theta=0.7)))
        job_id = store.create_job("grid", request_fingerprint(sweep),
                                  sweep.to_json(), 2)
        assert GridRequest.from_json(
            store.get_job(job_id)["request_json"]) == sweep
        result = GridResponse(
            responses=tuple(AnonymizationResponse(request=request)
                            for request in sweep.requests),
            num_groups=1, num_sample_groups=1)
        store.record_result(job_id, result.to_json())
        assert GridResponse.from_json(store.get_result(job_id)) == result

    def test_grid_types_round_trip(self, store):
        grid = GridRequest(requests=(BASE,), on_error="fail_fast")
        job_id = store.create_job("grid", request_fingerprint(grid),
                                  grid.to_json(), 1)
        assert GridRequest.from_json(
            store.get_job(job_id)["request_json"]) == grid
        result = GridResponse(responses=(AnonymizationResponse(request=BASE),),
                              num_groups=1, num_sample_groups=1)
        store.record_result(job_id, result.to_json())
        assert GridResponse.from_json(store.get_result(job_id)) == result

    def test_checkpoint_round_trips_through_sqlite(self, store):
        buffer = CheckpointBuffer()
        execute_sample_group([BASE.with_overrides(theta=0.8)],
                             observer=buffer)
        checkpoint = buffer.records[-1][1]
        job_id = store.create_job("grid", "fp", "{}", 1)
        store.record_checkpoint(job_id, 0, checkpoint.theta,
                                checkpoint_to_json(checkpoint))
        restored = checkpoint_from_json(store.checkpoints(job_id)[0])
        assert restored == checkpoint
        assert restored.rng_state == checkpoint.rng_state
        latest = store.latest_checkpoint(job_id)
        assert latest["request_index"] == 0
        assert latest["theta"] == pytest.approx(checkpoint.theta)
        assert latest["num_steps"] == checkpoint.num_steps

    def test_counters(self, store):
        job_id = store.create_job("grid", "fp", "{}", 2)
        assert store.num_responses(job_id) == 0
        assert store.num_checkpoints(job_id) == 0
        store.record_response(job_id, 0, "{}")
        store.record_checkpoint(job_id, 1, 0.5, json.dumps({"steps": []}))
        assert store.num_responses(job_id) == 1
        assert store.num_checkpoints(job_id) == 1


class TestThreadSafety:
    def test_concurrent_writers(self, store):
        job_id = store.create_job("grid", "fp", "{}", 64)
        errors = []

        def write(start):
            try:
                for index in range(start, start + 16):
                    store.record_response(job_id, index, "{}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(start,))
                   for start in (0, 16, 32, 48)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.num_responses(job_id) == 64
