"""Thin urllib client for the anonymization service HTTP API.

:class:`ServiceClient` wraps the routes of :mod:`repro.service.http` in
typed helpers — submit a request record, poll status, fetch the parsed
result record — raising :class:`ServiceError` (with the HTTP status and
decoded payload) on any non-2xx answer.  It is what the tests, the CI
smoke job, and scripts use to talk to ``repro-lopacity serve``; it has no
dependencies beyond the standard library.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.api.sweeps import GridRequest, GridResponse
from repro.errors import ReproError

__all__ = ["ServiceClient", "ServiceError"]

#: Request record type -> job kind, mirrored by the response parsers.
_KIND_OF = {
    AnonymizationRequest: "anonymize",
    GridRequest: "grid",
}

_RESPONSE_OF = {
    "anonymize": AnonymizationResponse,
    "grid": GridResponse,
}


class ServiceError(ReproError):
    """A non-2xx answer from the service, carrying status and payload."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(message or f"service returned HTTP {status}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talk to one running service instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self._base_url = base_url.rstrip("/")
        self._timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _call(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None) -> Any:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self._base_url + path, data=body, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self._timeout) as answer:
                return json.loads(answer.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                decoded = json.loads(exc.read().decode("utf-8"))
            except Exception:  # noqa: BLE001 — body may not be JSON
                decoded = None
            raise ServiceError(exc.code, decoded) from exc

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._call("GET", "/healthz")

    def submit(self, request: Any, kind: Optional[str] = None) -> Dict[str, Any]:
        """``POST /jobs`` — kind inferred from the record type by default."""
        if kind is None:
            kind = _KIND_OF.get(type(request))
            if kind is None:
                raise ReproError(
                    f"cannot infer job kind from {type(request).__name__}; "
                    f"pass kind= explicitly")
        return self._call("POST", "/jobs",
                          {"kind": kind, "request": request.to_dict()})

    def jobs(self) -> list:
        """``GET /jobs``."""
        return self._call("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}``."""
        return self._call("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, parse: bool = True) -> Any:
        """``GET /jobs/{id}/result`` — parsed into the response record."""
        answer = self._call("GET", f"/jobs/{job_id}/result")
        if not parse:
            return answer
        record = _RESPONSE_OF[answer["kind"]]
        return record.from_dict(answer["result"])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /jobs/{id}``."""
        return self._call("DELETE", f"/jobs/{job_id}")

    def init(self, reset: bool = False) -> Dict[str, Any]:
        """``POST /admin/init``."""
        return self._call("POST", "/admin/init", {"reset": reset})

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_seconds: float = 0.05) -> Dict[str, Any]:
        """Poll until the job reaches a terminal status; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] in ("done", "error", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['status']} after {timeout}s")
            time.sleep(poll_seconds)
