"""HTTP API tests: an in-thread server exercised through ServiceClient."""

import json
import socket
import threading

import pytest

from repro.api import (
    AnonymizationRequest,
    GridRequest,
    GridResponse,
    run_grid,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import _MAX_BODY, create_server
from repro.service.jobs import JobManager
from repro.service.store import RunStore

BASE = AnonymizationRequest(dataset="gnutella", sample_size=24, seed=0)
THETAS = (0.9, 0.6)

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason", "metrics")


def small_grid(**overrides):
    return GridRequest.from_axes(BASE.with_overrides(**overrides),
                                 thetas=THETAS)


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port + a client pointed at it."""
    store = RunStore(str(tmp_path / "runs.db"))
    manager = JobManager(store)
    manager.start()
    server = create_server("127.0.0.1", 0, manager, store)
    # A short poll interval keeps each teardown's shutdown() wait brief.
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client, store, manager
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    manager.stop()
    store.close()


class TestRoutes:
    def test_health(self, service):
        client, _store, _manager = service
        assert client.health() == {"ok": True}

    def test_submit_poll_result_round_trip(self, service):
        client, _store, _manager = service
        grid = small_grid()
        submitted = client.submit(grid)
        assert submitted["deduped"] is False
        job_id = submitted["job_id"]
        status = client.wait(job_id)
        assert status["status"] == "done"
        assert status["num_responses"] == len(THETAS)
        result = client.result(job_id)
        assert isinstance(result, GridResponse)
        reference = run_grid(grid, max_workers=1)
        for response, expected in zip(result.responses, reference.responses):
            for field in PARITY_FIELDS:
                assert getattr(response, field) == getattr(expected, field)

    def test_jobs_listing(self, service):
        client, _store, _manager = service
        assert client.jobs() == []
        submitted = client.submit(small_grid())
        client.wait(submitted["job_id"])
        listing = client.jobs()
        assert len(listing) == 1
        assert listing[0]["id"] == submitted["job_id"]

    def test_kind_is_inferred_from_the_record(self, service):
        client, _store, _manager = service
        submitted = client.submit(BASE.with_overrides(theta=0.7))
        status = client.wait(submitted["job_id"])
        assert status["kind"] == "anonymize"

    def test_cancel_route(self, service):
        client, store, manager = service
        submitted = client.submit(small_grid())
        client.wait(submitted["job_id"])
        answer = client.cancel(submitted["job_id"])
        assert answer["cancelled"] is False  # already done
        assert answer["status"] == "done"


class TestDedupOverHttp:
    def test_resubmission_returns_200_with_the_same_job(self, service):
        client, _store, _manager = service
        grid = small_grid()
        first = client.submit(grid)
        client.wait(first["job_id"])
        again = client.submit(grid)
        assert again == {"job_id": first["job_id"], "status": "done",
                         "deduped": True}


class TestErrorPaths:
    def test_unknown_job_status_404(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client.status("nope")
        assert caught.value.status == 404

    def test_unknown_job_result_404(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client.result("nope")
        assert caught.value.status == 404

    def test_result_before_done_is_409(self, service):
        client, _store, manager = service
        # Submit without a consumer racing us: stop the worker first so
        # the job stays queued.
        manager.stop()
        submitted = client.submit(small_grid())
        with pytest.raises(ServiceError) as caught:
            client.result(submitted["job_id"])
        assert caught.value.status == 409
        assert caught.value.payload["status"] == "queued"

    def test_malformed_kind_is_400(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client._call("POST", "/jobs", {"kind": "banana", "request": {}})
        assert caught.value.status == 400
        assert "banana" in caught.value.payload["error"]

    def test_retired_sweep_kind_is_400_listing_known_kinds(self, service):
        client, store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client._call("POST", "/jobs",
                         {"kind": "sweep",
                          "request": {"requests": [BASE.to_dict()]}})
        assert caught.value.status == 400
        assert caught.value.payload["error"] == (
            "ConfigurationError: unknown job kind 'sweep'; "
            "known: ['anonymize', 'grid']")
        assert store.list_jobs() == []

    @pytest.mark.parametrize("field,value", (("sweep_mode", "checkpointed"),
                                             ("engine", "numpy"),
                                             ("scan_mode", "parallel")))
    def test_retired_field_is_400_naming_it(self, service, field, value):
        client, store, _manager = service
        payload = dict(BASE.to_dict(), **{field: value})
        for kind, request in (("anonymize", payload),
                              ("grid", {"requests": [payload]})):
            with pytest.raises(ServiceError) as caught:
                client._call("POST", "/jobs", {"kind": kind, "request": request})
            assert caught.value.status == 400
            assert f"unknown request field(s) ['{field}']" in \
                caught.value.payload["error"]
        assert store.list_jobs() == []

    @pytest.mark.parametrize("field,value", (("engine", "numpy"),
                                             ("scan_mode", "parallel")))
    def test_result_stored_before_a_field_retirement_is_served_verbatim(
            self, service, field, value):
        # A finished job's result is served as stored: its request still
        # names the retired field, and nothing re-parses it.
        client, store, _manager = service
        request = dict(BASE.to_dict(), **{field: value})
        result = run_grid(small_grid()).to_dict()
        for response in result["responses"]:
            response["request"][field] = value
        job_id = store.create_job("grid", "pre-retirement",
                                  json.dumps({"requests": [request]}), 1)
        store.record_result(job_id, json.dumps(result))
        store.set_status(job_id, "done")
        answer = client.result(job_id, parse=False)
        assert answer == {"job_id": job_id, "kind": "grid", "result": result}
        assert client.status(job_id)["status"] == "done"

    def test_malformed_request_payload_is_400(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client._call("POST", "/jobs",
                         {"kind": "grid", "request": {"requests": []}})
        assert caught.value.status == 400

    def test_non_object_payload_is_400(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client._call("POST", "/jobs", {"kind": "grid", "request": 7})
        assert caught.value.status == 400

    def test_invalid_parameter_is_400(self, service):
        client, _store, _manager = service
        payload = BASE.to_dict()
        payload["theta"] = -3.0
        with pytest.raises(ServiceError) as caught:
            client._call("POST", "/jobs",
                         {"kind": "anonymize", "request": payload})
        assert caught.value.status == 400

    def test_unknown_path_404(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client._call("GET", "/frobnicate")
        assert caught.value.status == 404

    def test_cancel_unknown_job_404(self, service):
        client, _store, _manager = service
        with pytest.raises(ServiceError) as caught:
            client.cancel("nope")
        assert caught.value.status == 404


def raw_post(client, path, content_length, body=b""):
    """POST with a verbatim ``Content-Length``; the reply's status and JSON.

    A socket timeout bounds the wait, so a handler that blocks reading a
    body that never comes fails the test instead of hanging it.
    """
    host, port = client._base_url.rsplit("//", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {content_length}\r\n\r\n"
                     .encode("ascii") + body)
        reply = b""
        while True:
            chunk = sock.recv(65536)  # the server closes after replying
            if not chunk:
                break
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    assert b"connection: close" in head.lower()
    return status, json.loads(payload)


class TestContentLength:
    @pytest.mark.parametrize("path", ["/jobs", "/admin/init"])
    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_invalid_length_is_400_at_once(self, service, path, value):
        client, store, _manager = service
        status, payload = raw_post(client, path, value, b"{}")
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert store.list_jobs() == []

    def test_body_over_the_cap_is_413_naming_the_limit(self, service):
        client, _store, _manager = service
        status, payload = raw_post(client, "/jobs", _MAX_BODY + 1, b"{")
        assert status == 413
        assert str(_MAX_BODY) in payload["error"]

    def test_server_keeps_serving_after_rejections(self, service):
        client, _store, _manager = service
        raw_post(client, "/jobs", -1)
        raw_post(client, "/jobs", _MAX_BODY + 1)
        assert client.health() == {"ok": True}


class TestAdminInit:
    def test_init_reports_stats(self, service):
        client, _store, _manager = service
        submitted = client.submit(small_grid())
        client.wait(submitted["job_id"])
        summary = client.init()
        assert summary["ok"] and not summary["did_reset"]
        assert summary["stats"]["jobs"] == 1

    def test_reset_empties_and_archives(self, service):
        client, _store, _manager = service
        submitted = client.submit(small_grid())
        client.wait(submitted["job_id"])
        summary = client.init(reset=True)
        assert summary["did_reset"]
        assert summary["stats"]["jobs"] == 0
        assert len(summary["backups"]) == 1
        assert client.jobs() == []

    def test_init_refused_while_jobs_in_flight(self, service):
        client, _store, manager = service
        manager.stop()  # keep the submission queued
        client.submit(small_grid())
        with pytest.raises(ServiceError) as caught:
            client.init(reset=True)
        assert caught.value.status == 409
