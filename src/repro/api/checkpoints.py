"""JSON serialization + materialization of ``AnonymizationCheckpoint``.

Checkpoints are the unit of durability for the service layer: a
checkpointed θ-schedule pass streams one per crossed grid point, the run
store persists them as JSON blobs, and on restart the job manager either
*materializes* them straight into responses (grid points the interrupted
pass already crossed) or *resumes* the pass from the lowest-θ one.  That
requires a faithful plain-data form of everything a checkpoint carries —
steps, edit sets, the graph snapshot, and the tie-breaking RNG state —
which the core record deliberately does not define (it stays
process-local); this module owns that wire format.

The format is version-stamped (:data:`CHECKPOINT_VERSION`); loading a blob
with an unknown version or unknown keys raises
:class:`~repro.errors.ConfigurationError` rather than guessing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.core.anonymizer import (
    AnonymizationCheckpoint,
    AnonymizationStep,
    AnonymizerConfig,
    materialize_checkpoints,
)
from repro.api.progress import NULL_OBSERVER
from repro.api.requests import (AnonymizationRequest, AnonymizationResponse,
                                response_metrics)
from repro.errors import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "CHECKPOINT_VERSION",
    "checkpoint_from_dict",
    "checkpoint_from_json",
    "checkpoint_to_dict",
    "checkpoint_to_json",
    "materialize_response",
]

CHECKPOINT_VERSION = 1
"""Wire-format version; bump on any incompatible change to the layout."""

_CHECKPOINT_KEYS = frozenset({
    "version", "theta", "steps", "removed_edges", "inserted_edges",
    "evaluations", "max_opacity", "runtime_seconds", "success",
    "stop_reason", "num_vertices", "edges", "rng_state",
})

_STEP_KEYS = frozenset({
    "index", "operation", "edges", "max_opacity_after",
    "removals", "insertions",
})


def _edges_out(edges: Any) -> list:
    return [[int(u), int(v)] for u, v in edges]


def _edges_in(edges: Any) -> tuple:
    return tuple((int(u), int(v)) for u, v in edges)


def _step_to_dict(step: AnonymizationStep) -> Dict[str, Any]:
    return {
        "index": step.index,
        "operation": step.operation,
        "edges": _edges_out(step.edges),
        "max_opacity_after": step.max_opacity_after,
        "removals": _edges_out(step.removals),
        "insertions": _edges_out(step.insertions),
    }


def _step_from_dict(payload: Mapping[str, Any]) -> AnonymizationStep:
    unknown = sorted(set(payload) - _STEP_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown step field(s) {unknown}; known: {sorted(_STEP_KEYS)}")
    return AnonymizationStep(
        index=int(payload["index"]),
        operation=str(payload["operation"]),
        edges=_edges_in(payload["edges"]),
        max_opacity_after=float(payload["max_opacity_after"]),
        removals=_edges_in(payload.get("removals", ())),
        insertions=_edges_in(payload.get("insertions", ())),
    )


def checkpoint_to_dict(checkpoint: AnonymizationCheckpoint) -> Dict[str, Any]:
    """Plain-data (JSON-safe) form of a checkpoint.

    The graph snapshot flattens to ``num_vertices`` + sorted edge list and
    the RNG state (a nested tuple from ``random.Random.getstate()``) to
    nested lists; :func:`checkpoint_from_dict` restores both exactly.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "theta": checkpoint.theta,
        "steps": [_step_to_dict(step) for step in checkpoint.steps],
        "removed_edges": _edges_out(checkpoint.removed_edges),
        "inserted_edges": _edges_out(checkpoint.inserted_edges),
        "evaluations": checkpoint.evaluations,
        "max_opacity": checkpoint.max_opacity,
        "runtime_seconds": checkpoint.runtime_seconds,
        "success": checkpoint.success,
        "stop_reason": checkpoint.stop_reason,
        "num_vertices": checkpoint.graph.num_vertices,
        "edges": checkpoint.graph.edge_array().tolist(),
        "rng_state": (None if checkpoint.rng_state is None
                      else [checkpoint.rng_state[0],
                            list(checkpoint.rng_state[1]),
                            checkpoint.rng_state[2]]),
    }


def checkpoint_from_dict(payload: Mapping[str, Any]) -> AnonymizationCheckpoint:
    """Inverse of :func:`checkpoint_to_dict`; unknown keys/versions raise."""
    unknown = sorted(set(payload) - _CHECKPOINT_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown checkpoint field(s) {unknown}; "
            f"known: {sorted(_CHECKPOINT_KEYS)}")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})")
    rng_state = payload.get("rng_state")
    if rng_state is not None:
        # random.Random.setstate wants the exact tuple shape getstate
        # produced: (version, tuple-of-ints, gauss_next).
        rng_state = (rng_state[0], tuple(rng_state[1]), rng_state[2])
    graph = Graph(int(payload["num_vertices"]), edges=_edges_in(payload["edges"]))
    return AnonymizationCheckpoint(
        theta=float(payload["theta"]),
        steps=tuple(_step_from_dict(step) for step in payload["steps"]),
        removed_edges=_edges_in(payload["removed_edges"]),
        inserted_edges=_edges_in(payload["inserted_edges"]),
        evaluations=int(payload["evaluations"]),
        max_opacity=float(payload["max_opacity"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        success=bool(payload["success"]),
        stop_reason=payload["stop_reason"],
        graph=graph,
        rng_state=rng_state,
    )


def checkpoint_to_json(checkpoint: AnonymizationCheckpoint,
                       **dumps_kwargs: Any) -> str:
    """JSON form of :func:`checkpoint_to_dict`."""
    return json.dumps(checkpoint_to_dict(checkpoint), **dumps_kwargs)


def checkpoint_from_json(text: str) -> AnonymizationCheckpoint:
    """Inverse of :func:`checkpoint_to_json`."""
    return checkpoint_from_dict(json.loads(text))


def materialize_response(request: AnonymizationRequest,
                         checkpoint: AnonymizationCheckpoint, *,
                         original_graph: Optional[Graph] = None,
                         baseline=None,
                         data_dir: Optional[str] = None) -> AnonymizationResponse:
    """Turn a stored checkpoint into the response its request would return.

    The checkpoint must come from a schedule pass over ``request``'s
    configuration with ``checkpoint.theta == request.theta``; the result —
    including the utility metrics computed when ``request.include_utility``
    is set — is then identical to what :func:`~repro.api.theta_sweep.execute_sweep_group`
    builds for that grid point, so resumed jobs can serve already-crossed
    θs straight from the store.  ``original_graph`` (the pristine input
    sample) is resolved from the request when not supplied; ``baseline``
    short-circuits the utility baseline like the grid engine's shared one.
    """
    if abs(checkpoint.theta - request.theta) > 1e-12:
        raise ConfigurationError(
            f"checkpoint theta={checkpoint.theta} does not match "
            f"request theta={request.theta}")
    if original_graph is None:
        original_graph = request.resolve_graph(data_dir=data_dir)
    [result] = materialize_checkpoints(
        [checkpoint], original_graph,
        AnonymizerConfig(length_threshold=request.length_threshold),
        NULL_OBSERVER)
    metrics = (response_metrics(original_graph, checkpoint.graph, baseline)
               if request.include_utility else None)
    return AnonymizationResponse.from_result(request, result, metrics=metrics)
