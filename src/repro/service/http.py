"""The stdlib HTTP front door of the anonymization service.

Routes (JSON in, JSON out; no dependencies beyond ``http.server``):

========  =======================  ==========================================
Method    Path                     Meaning
========  =======================  ==========================================
POST      ``/jobs``                Submit ``{"kind", "request"}``; 201 on a
                                   new job, 200 when deduped onto an
                                   existing one.
GET       ``/jobs``                List all jobs (newest first).
GET       ``/jobs/{id}``           Live status: job row, progress counters,
                                   latest persisted checkpoint.
GET       ``/jobs/{id}/result``    The final result; 409 until the job is
                                   done, 404 for unknown ids.
DELETE    ``/jobs/{id}``           Cancel a queued/running job.
POST      ``/admin/init``          ``{"reset": bool}`` — re-init the store
                                   (reset archives a rolling backup); 409
                                   while jobs are in flight.
GET       ``/healthz``             Liveness probe.
========  =======================  ==========================================

Malformed JSON, unknown job kinds, invalid request payloads
(:class:`~repro.errors.ReproError`) and a ``Content-Length`` that is not a
non-negative integer all map to HTTP 400 with ``{"error": ...}``; a body
over the 64 MiB cap gets 413.  One bad client never takes the server
down.  The server is a ``ThreadingHTTPServer`` (one thread per
connection, daemon threads); all state lives in the shared
:class:`~repro.service.jobs.JobManager` /
:class:`~repro.service.store.RunStore` pair, which are thread-safe.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.service.jobs import JobManager, parse_request
from repro.service.store import RunStore

__all__ = ["create_server", "make_handler"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd request bodies outright


class _RejectedBody(Exception):
    """A request body refused before it is read (its HTTP status attached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def make_handler(manager: JobManager, store: RunStore) -> type:
    """Build the request-handler class bound to one manager/store pair."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # --------------------------------------------------------------
        # plumbing
        # --------------------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass  # keep test/CI output clean; errors surface as responses

        def _send(self, status: int, payload: Dict[str, Any], *,
                  close: bool = False) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self) -> Any:
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                raise _RejectedBody(400, f"invalid Content-Length {header!r}")
            if length > _MAX_BODY:
                raise _RejectedBody(413, f"request body of {length} bytes "
                                         f"exceeds the {_MAX_BODY}-byte limit")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ValueError("request body must be JSON")
            return json.loads(raw)

        def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
            """Split the path into (collection, id, action)."""
            parts = [part for part in self.path.split("?", 1)[0].split("/")
                     if part]
            collection = parts[0] if parts else ""
            item = parts[1] if len(parts) > 1 else None
            action = parts[2] if len(parts) > 2 else None
            return collection, item, action

        # --------------------------------------------------------------
        # methods
        # --------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — http.server API
            collection, item, action = self._route()
            if collection == "healthz" and item is None:
                self._send(200, {"ok": True})
                return
            if collection != "jobs":
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            if item is None:
                self._send(200, {"jobs": store.list_jobs()})
                return
            if action is None:
                status = manager.status(item)
                if status is None:
                    self._send(404, {"error": f"unknown job {item!r}"})
                    return
                self._send(200, status)
                return
            if action == "result":
                job = store.get_job(item)
                if job is None:
                    self._send(404, {"error": f"unknown job {item!r}"})
                    return
                if job["status"] != "done":
                    self._send(409, {"error": f"job {item} is "
                                              f"{job['status']}, not done",
                                     "status": job["status"]})
                    return
                result = store.get_result(item)
                if result is None:
                    self._send(409, {"error": f"job {item} has no stored "
                                              f"result"})
                    return
                self._send(200, {"job_id": item, "kind": job["kind"],
                                 "result": json.loads(result)})
                return
            self._send(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            collection, item, action = self._route()
            try:
                if collection == "jobs" and item is None:
                    payload = self._read_json()
                    if not isinstance(payload, dict):
                        raise ValueError("submission must be a JSON object")
                    kind = payload.get("kind", "anonymize")
                    request = parse_request(kind, payload.get("request"))
                    outcome = manager.submit(kind, request)
                    self._send(200 if outcome["deduped"] else 201, outcome)
                    return
                if collection == "admin" and item == "init" and action is None:
                    try:
                        payload = self._read_json()
                    except ValueError:
                        payload = {}
                    if not isinstance(payload, dict):
                        raise ValueError("init options must be a JSON object")
                    in_flight = [job for job in store.list_jobs()
                                 if job["status"] in ("queued", "running")]
                    if in_flight:
                        self._send(409, {"error": f"{len(in_flight)} job(s) "
                                                  f"in flight; cancel them "
                                                  f"before re-initializing"})
                        return
                    self._send(200, store.init_db(
                        reset=bool(payload.get("reset", False))))
                    return
                self._send(404, {"error": f"unknown path {self.path!r}"})
            except _RejectedBody as exc:
                # Closing: the unread body would parse as the next request.
                self._send(exc.status, {"error": str(exc)}, close=True)
            except (ReproError, ValueError, KeyError, TypeError,
                    json.JSONDecodeError) as exc:
                self._send(400, {"error": f"{type(exc).__name__}: {exc}"})

        def do_DELETE(self) -> None:  # noqa: N802 — http.server API
            collection, item, action = self._route()
            if collection != "jobs" or item is None or action is not None:
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            job = store.get_job(item)
            if job is None:
                self._send(404, {"error": f"unknown job {item!r}"})
                return
            cancelled = manager.cancel(item)
            self._send(200, {"job_id": item, "cancelled": cancelled,
                             "status": (store.get_job(item) or job)["status"]})

    return Handler


def create_server(host: str, port: int, manager: JobManager,
                  store: RunStore) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), make_handler(manager, store))
    server.daemon_threads = True
    return server
