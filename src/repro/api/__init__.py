"""Service-layer API: the one true entry point for anonymization work.

Layers (see DESIGN.md §8):

* :mod:`repro.api.registry` — pluggable algorithm registry; all built-in
  algorithms self-register with :func:`register_anonymizer`.
* :mod:`repro.api.requests` — :class:`AnonymizationRequest` /
  :class:`AnonymizationResponse`, frozen records with full JSON round-trip.
* :mod:`repro.api.progress` — :class:`ProgressObserver` protocol plus
  timeout/cancellation/console observers threaded through every
  anonymizer's greedy loop.
* :mod:`repro.api.facade` — :func:`anonymize`, :func:`compute_opacity`,
  :func:`sweep`.
* :mod:`repro.api.theta_sweep` — the θ-sweep group executor: requests
  identical in everything but θ run as one checkpointed pass
  (DESIGN.md §9).
* :mod:`repro.api.sweeps` — :class:`GridRequest` / :class:`GridResponse`
  and the multi-axis grid engine behind :func:`sweep` and
  ``repro-lopacity sweep``: dataset × size × seed × L × θ × algorithm
  grids that share each sample's graph, baseline and L_max distances
  (DESIGN.md §10).
* :mod:`repro.api.cache` — :class:`ExecutionCache`, the per-process
  sample/baseline/L_max-distance cache behind the grid engine and the
  batch workers.
* :mod:`repro.api.batch` — :class:`BatchRunner` fan-out over worker
  processes, powering ``repro-lopacity batch`` and parallel experiment
  grids; grids fan θ-sweep groups (or, off the shared-memory plane,
  sample groups) instead of single requests, and every worker holds a
  process-level :class:`ExecutionCache`.

Quickstart::

    from repro.api import AnonymizationRequest, anonymize

    response = anonymize(AnonymizationRequest(
        algorithm="rem", dataset="gnutella", sample_size=60, theta=0.5))
    print(response.summary())

Only the registry and progress modules are imported eagerly (they are
dependency-light and imported by :mod:`repro.core`); the request/facade/
batch layers load lazily on first attribute access to keep the
``core -> api.registry`` edge cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.progress import (
    AnonymizationStopped,
    CallbackObserver,
    CancellationToken,
    CheckpointBuffer,
    CompositeObserver,
    ConsoleProgressObserver,
    NULL_OBSERVER,
    NullObserver,
    ProgressObserver,
    StepLimitObserver,
    TimeoutObserver,
    combine_observers,
    notify_checkpoint,
    notify_group,
)
from repro.api.registry import (
    AnonymizerRegistry,
    AnonymizerSpec,
    available_algorithms,
    create_anonymizer,
    default_registry,
    register_anonymizer,
)

if TYPE_CHECKING:  # pragma: no cover — lazy at runtime, eager for type checkers
    from repro.api.batch import BatchRunner, execute_request
    from repro.api.cache import ExecutionCache
    from repro.api.facade import (
        OpacityReport,
        anonymize,
        compute_opacity,
        run_requests,
        sweep,
    )
    from repro.api.requests import AnonymizationRequest, AnonymizationResponse
    from repro.api.sweeps import (
        GridRequest,
        GridResponse,
        execute_sample_group,
        expand_grid,
        run_grid,
    )
    from repro.api.theta_sweep import execute_sweep_group

#: Lazily resolved attribute -> defining submodule (PEP 562).
_LAZY = {
    "AnonymizationRequest": "repro.api.requests",
    "AnonymizationResponse": "repro.api.requests",
    "FINGERPRINT_VERSION": "repro.api.requests",
    "request_fingerprint": "repro.api.requests",
    "CHECKPOINT_VERSION": "repro.api.checkpoints",
    "checkpoint_from_dict": "repro.api.checkpoints",
    "checkpoint_from_json": "repro.api.checkpoints",
    "checkpoint_to_dict": "repro.api.checkpoints",
    "checkpoint_to_json": "repro.api.checkpoints",
    "materialize_response": "repro.api.checkpoints",
    "OpacityReport": "repro.api.facade",
    "anonymize": "repro.api.facade",
    "compute_opacity": "repro.api.facade",
    "run_requests": "repro.api.facade",
    "sweep": "repro.api.facade",
    "BatchRunner": "repro.api.batch",
    "execute_request": "repro.api.batch",
    "ExecutionCache": "repro.api.cache",
    "ERROR_POLICIES": "repro.api.sweeps",
    "GridRequest": "repro.api.sweeps",
    "GridResponse": "repro.api.sweeps",
    "execute_sample_group": "repro.api.sweeps",
    "expand_grid": "repro.api.sweeps",
    "run_grid": "repro.api.sweeps",
    "validate_error_policy": "repro.api.sweeps",
    "execute_sweep_group": "repro.api.theta_sweep",
}

__all__ = [
    "AnonymizationRequest",
    "AnonymizationResponse",
    "AnonymizationStopped",
    "AnonymizerRegistry",
    "AnonymizerSpec",
    "BatchRunner",
    "CHECKPOINT_VERSION",
    "CallbackObserver",
    "CancellationToken",
    "CheckpointBuffer",
    "CompositeObserver",
    "ConsoleProgressObserver",
    "ERROR_POLICIES",
    "ExecutionCache",
    "FINGERPRINT_VERSION",
    "GridRequest",
    "GridResponse",
    "NULL_OBSERVER",
    "NullObserver",
    "OpacityReport",
    "ProgressObserver",
    "StepLimitObserver",
    "TimeoutObserver",
    "anonymize",
    "available_algorithms",
    "checkpoint_from_dict",
    "checkpoint_from_json",
    "checkpoint_to_dict",
    "checkpoint_to_json",
    "combine_observers",
    "compute_opacity",
    "create_anonymizer",
    "default_registry",
    "execute_request",
    "execute_sample_group",
    "execute_sweep_group",
    "expand_grid",
    "materialize_response",
    "notify_checkpoint",
    "notify_group",
    "register_anonymizer",
    "request_fingerprint",
    "run_grid",
    "run_requests",
    "sweep",
    "validate_error_policy",
]


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
