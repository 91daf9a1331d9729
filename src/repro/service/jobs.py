"""Background job execution over the run store.

A :class:`JobManager` owns one worker thread and one
:class:`~repro.service.store.RunStore`.  Submitted jobs — single
:class:`~repro.api.requests.AnonymizationRequest` records or
:class:`~repro.api.sweeps.GridRequest` grids — are persisted first and
executed in submission order through the one grid executor
(:meth:`~repro.api.batch.BatchRunner.iter_grid`; a single request is a
one-point grid), in-process or across a process pool.  Each finished
sample group's responses land in the store as the group completes, and
in-process execution additionally streams every crossed θ's checkpoint.
The payoff is the restart path: :meth:`JobManager.start` re-enqueues
every job a dead process left ``queued``/``running``, and
:meth:`_execute` serves finished requests from their stored responses,
materializes already-crossed grid points from their checkpoints, and
*continues* each interrupted checkpointed pass from its lowest-θ
checkpoint — bit-identical to the uninterrupted run (DESIGN.md §11).

Dedup rides on the canonical fingerprint: re-submitting a semantically
identical request returns the finished (or in-flight) job instead of
recomputing anything.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.cache import ExecutionCache, GridStats
from repro.api.checkpoints import checkpoint_from_json, checkpoint_to_json
from repro.api.progress import (
    CancellationToken,
    CheckpointBuffer,
    combine_observers,
)
from repro.api.requests import (
    AnonymizationRequest,
    AnonymizationResponse,
    request_fingerprint,
)
from repro.api.sweeps import GridRequest, GridResponse
from repro.errors import ConfigurationError, ReproError
from repro.service.store import RunStore

__all__ = ["JOB_KINDS", "JobManager", "parse_request", "wrap_result"]

#: Submittable job kinds and their request record types.
JOB_KINDS: Dict[str, type] = {
    "anonymize": AnonymizationRequest,
    "grid": GridRequest,
}

_STOP = object()  # worker-queue sentinel


def parse_request(kind: str, payload: Any) -> Any:
    """Build the request record for a job ``kind`` from its JSON payload."""
    record = JOB_KINDS.get(kind)
    if record is None:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}")
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"request payload must be a JSON object, got {type(payload).__name__}")
    return record.from_dict(payload)


def wrap_result(kind: str, request: Any,
                responses: List[AnonymizationResponse],
                stats: Optional[GridStats] = None) -> Any:
    """Wrap per-request responses into the job kind's response record
    (``stats`` fills a grid response's work counters)."""
    if kind == "anonymize":
        return responses[0]
    counters = {} if stats is None else dict(
        num_sample_loads=stats.sample_loads,
        num_distance_computes=stats.distance_computes)
    return GridResponse(responses=tuple(responses),
                        num_groups=len(request.groups()),
                        num_sample_groups=len(request.sample_groups()),
                        **counters)


class _StorePersister:
    """Observer streaming a job's checkpoints into the store.

    The grid executor announces each θ-group's global todo indices via
    ``on_group``; this sink records each subsequent checkpoint under every
    announced request whose θ matches.  Checkpoints emitted because the
    observer stopped the pass (``stop_reason="observer"``, i.e.
    cancellation) are skipped: a fresh run would have kept going, so they
    must not be materialized as final state on resume.
    """

    def __init__(self, store: RunStore, job_id: str,
                 requests: Sequence[AnonymizationRequest]) -> None:
        self._store = store
        self._job_id = job_id
        self._requests = requests

    def __call__(self, indices: Tuple[int, ...], checkpoint: Any) -> None:
        if checkpoint.stop_reason == "observer":
            return
        payload = checkpoint_to_json(checkpoint)
        for index in indices:
            if abs(self._requests[index].theta - checkpoint.theta) <= 1e-12:
                self._store.record_checkpoint(self._job_id, index,
                                              checkpoint.theta, payload)


class JobManager:
    """Execute service jobs in a background thread, durably.

    Parameters
    ----------
    store:
        The :class:`RunStore` everything is persisted to.
    data_dir:
        Optional directory with real SNAP dataset files (forwarded to the
        engine's dataset loaders).
    max_workers:
        ``0`` (default) executes jobs in the worker thread with
        checkpoint streaming, so an interrupted job resumes at θ
        granularity.  ``n > 0`` fans each job's θ-groups across a
        :class:`~repro.api.batch.BatchRunner` process pool of at most
        ``n`` workers instead (negative values are rejected); responses
        are still persisted per sample group as each completes, but
        checkpoints do not stream across process boundaries, so an
        interrupted pooled job resumes from its last finished *sample
        group* rather than θ.
    shared_memory:
        Forwarded to the :class:`~repro.api.batch.BatchRunner` —
        ``None``/``True`` executes pooled grids on the zero-copy
        shared-memory data plane (θ-sweep groups fan out over
        parent-published arenas), ``False`` lets workers prepare their
        own samples.  Irrelevant with ``max_workers=0``.
    scale_tier:
        Service-wide default of the distance-plane scale tier (the
        ``--scale-tier`` flag of ``repro-lopacity serve``).  Applied at
        execution time to every request that left its own ``scale_tier``
        on ``"auto"``; requests naming an explicit tier always win.
    scale_budget_bytes:
        Service-wide default of the scale-tier byte budget, applied to
        every request that set none.
    scan_workers:
        Service-wide default of the parallel-scan pool size (the
        ``--scan-workers`` flag of ``repro-lopacity serve``).  Applied at
        execution time — like the scale defaults, the stored request and
        its dedup fingerprint stay untouched — to every request that chose
        no ``scan_workers`` of its own.  A request naming a worker count
        (0 for a serial scan) always wins.
    """

    def __init__(self, store: RunStore, *, data_dir: Optional[str] = None,
                 max_workers: int = 0,
                 shared_memory: Optional[bool] = None,
                 scale_tier: str = "auto",
                 scale_budget_bytes: Optional[int] = None,
                 scan_workers: Optional[int] = None) -> None:
        from repro.graph.distance_store import validate_scale_tier

        validate_scale_tier(scale_tier)
        if max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be >= 0, got {max_workers}")
        if scan_workers is not None and scan_workers < 0:
            raise ConfigurationError(
                f"scan_workers must be >= 0, got {scan_workers}")
        self._store = store
        self._data_dir = data_dir
        self._max_workers = max_workers
        self._shared_memory = shared_memory
        self._scale_tier = scale_tier
        self._scale_budget_bytes = scale_budget_bytes
        self._scan_workers = scan_workers
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._tokens: Dict[str, CancellationToken] = {}
        self._tokens_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> List[str]:
        """Start the worker thread, re-enqueueing interrupted jobs first.

        Returns the ids of the resumed jobs (oldest first), already queued
        ahead of anything submitted afterwards.
        """
        resumed = [job["id"] for job in self._store.interrupted_jobs()]
        for job_id in resumed:
            self._queue.put(job_id)
        self._thread = threading.Thread(target=self._worker,
                                        name="repro-service-worker",
                                        daemon=True)
        self._thread.start()
        return resumed

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after the current job and join it."""
        self._queue.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # ------------------------------------------------------------------
    # submission / control
    # ------------------------------------------------------------------
    def submit(self, kind: str, request: Any) -> Dict[str, Any]:
        """Persist and enqueue a job; identical requests dedup to one.

        Returns ``{"job_id", "status", "deduped"}``.  A finished job with
        the same canonical fingerprint (and a stored result) is returned
        as-is — the resubmission performs zero new work; a queued/running
        twin coalesces onto the in-flight job.
        """
        fingerprint = request_fingerprint(request)
        done = self._store.find_job(fingerprint, ("done",))
        if done is not None and \
                self._store.get_result(done["id"]) is not None:
            return {"job_id": done["id"], "status": "done", "deduped": True}
        in_flight = self._store.find_job(fingerprint, ("queued", "running"))
        if in_flight is not None:
            return {"job_id": in_flight["id"],
                    "status": in_flight["status"], "deduped": True}
        num_requests = 1 if kind == "anonymize" else len(request.requests)
        job_id = self._store.create_job(kind, fingerprint,
                                        request.to_json(), num_requests)
        self._queue.put(job_id)
        return {"job_id": job_id, "status": "queued", "deduped": False}

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; returns whether it applied."""
        job = self._store.get_job(job_id)
        if job is None or job["status"] not in ("queued", "running"):
            return False
        if job["status"] == "queued":
            self._store.set_status(job_id, "cancelled")
            return True
        with self._tokens_lock:
            token = self._tokens.get(job_id)
        if token is not None:
            token.cancel()
            return True
        # Running in the store but not on this worker (dead process's
        # leftover that has not been resumed yet): mark it directly.
        self._store.set_status(job_id, "cancelled")
        return True

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Job row + live progress counters, or ``None`` if unknown."""
        job = self._store.get_job(job_id)
        if job is None:
            return None
        job["num_responses"] = self._store.num_responses(job_id)
        job["num_checkpoints"] = self._store.num_checkpoints(job_id)
        job["latest_checkpoint"] = self._store.latest_checkpoint(job_id)
        return job

    def wait_for(self, job_id: str,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job reaches a terminal status (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self._store.get_job(job_id)
            if job is None:
                raise ConfigurationError(f"unknown job {job_id!r}")
            if job["status"] in ("done", "error", "cancelled"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s")
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                self._run_job(item)
            except Exception as exc:  # noqa: BLE001 — the worker must survive
                try:
                    self._store.set_status(item, "error",
                                           f"{type(exc).__name__}: {exc}")
                except Exception:  # noqa: BLE001 — e.g. store closed mid-stop
                    return

    def _run_job(self, job_id: str) -> None:
        job = self._store.get_job(job_id)
        if job is None or job["status"] not in ("queued", "running"):
            return  # cancelled while queued, or already finished
        token = CancellationToken()
        with self._tokens_lock:
            self._tokens[job_id] = token
        try:
            self._execute(job, token)
        finally:
            with self._tokens_lock:
                self._tokens.pop(job_id, None)

    def _execute(self, job: Dict[str, Any], token: CancellationToken) -> None:
        from repro.api.batch import BatchRunner

        job_id = job["id"]
        kind = job["kind"]
        request = parse_request(kind, json.loads(job["request_json"]))
        request = self._apply_scale_defaults(kind, request)
        self._store.set_status(job_id, "running")
        grid = request if kind == "grid" else GridRequest(requests=(request,))
        stored = {index: AnonymizationResponse.from_json(text)
                  for index, text in self._store.responses(job_id).items()}
        checkpoints = {index: checkpoint_from_json(text)
                       for index, text
                       in self._store.checkpoints(job_id).items()}
        ordered = [stored.get(index) for index in range(len(grid.requests))]
        persister = _StorePersister(self._store, job_id, grid.requests)
        runner = BatchRunner(max_workers=self._max_workers,
                             data_dir=self._data_dir,
                             shared_memory=self._shared_memory)
        stats = GridStats()
        for indices, responses in runner.iter_grid(
                grid, observer=combine_observers(
                    token, CheckpointBuffer(sink=persister)),
                cache=ExecutionCache(data_dir=self._data_dir),
                resume_from=checkpoints, skip=stored, stats=stats):
            if token.cancelled:
                # Best-effort responses of an interrupted pass must not be
                # served as final on resume; the persisted checkpoints
                # already carry everything worth keeping.
                self._store.set_status(job_id, "cancelled")
                return
            for index, response in zip(indices, responses):
                ordered[index] = response
                self._store.record_response(job_id, index, response.to_json())
        result = wrap_result(kind, request, ordered,  # type: ignore[arg-type]
                             stats=stats)
        self._store.record_result(job_id, result.to_json())
        self._store.set_status(job_id, "done")

    def _apply_scale_defaults(self, kind: str, request: Any) -> Any:
        """Fill the service-wide scale/scan defaults into ``request``.

        Only requests that did not choose for themselves are touched
        (``scale_tier == "auto"`` / ``scale_budget_bytes is None`` /
        ``scan_workers is None``), so a job spec naming an explicit tier,
        budget, or scan-pool size keeps it.
        Applied at execution time — the stored ``request_json`` (and with
        it the dedup fingerprint) stays exactly what the client submitted.
        """
        if (self._scale_tier == "auto" and self._scale_budget_bytes is None
                and self._scan_workers is None):
            return request

        def patch(req: AnonymizationRequest) -> AnonymizationRequest:
            overrides: Dict[str, Any] = {}
            if self._scale_tier != "auto" and req.scale_tier == "auto":
                overrides["scale_tier"] = self._scale_tier
            if (self._scale_budget_bytes is not None
                    and req.scale_budget_bytes is None):
                overrides["scale_budget_bytes"] = self._scale_budget_bytes
            if self._scan_workers is not None and req.scan_workers is None:
                overrides["scan_workers"] = self._scan_workers
            return dataclasses.replace(req, **overrides) if overrides else req

        if kind == "anonymize":
            return patch(request)
        return dataclasses.replace(
            request, requests=tuple(patch(req) for req in request.requests))
