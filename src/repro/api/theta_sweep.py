"""Checkpointed θ-sweep execution at the service layer.

Every figure of the paper's evaluation sweeps the confidence threshold θ
for an otherwise fixed configuration.  θ only gates the greedy loops'
termination, so all grid points of such a sweep can be served by *one*
anonymization pass with per-θ checkpoints (DESIGN.md §9).  This module
holds the grouping/execution machinery the grid engine
(:mod:`repro.api.sweeps`) runs every θ axis through:

* :func:`group_requests` — partition a grid into θ-sweep groups (requests
  identical in everything but θ and ``request_id``);
* :func:`execute_sweep_group` — run one group as a single checkpointed
  pass and materialize per-θ responses identical to independent
  execution.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.anonymizer import validate_theta_schedule
from repro.api.progress import ProgressObserver, TimeoutObserver, combine_observers
from repro.api.registry import AnonymizerRegistry, default_registry
from repro.api.requests import (AnonymizationRequest, AnonymizationResponse,
                                response_metrics)

__all__ = [
    "accepts_kwarg",
    "execute_sweep_group",
    "group_requests",
]


def _group_key(request: AnonymizationRequest) -> AnonymizationRequest:
    """The grouping key: everything but θ (and the per-job request id)."""
    return replace(request, theta=0.0, request_id=None)


def group_requests(requests: Sequence[AnonymizationRequest]) -> List[List[int]]:
    """Partition request indices into θ-sweep groups.

    Requests that agree on every field except ``theta`` and ``request_id``
    — same graph source, algorithm, L, look-ahead, seed, tuning knobs, and
    execution options — form one group and can be served by a single
    checkpointed pass.  Group order follows first appearance; indices
    within a group keep their input order.
    """
    groups: Dict[AnonymizationRequest, List[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(_group_key(request), []).append(index)
    return list(groups.values())


def execute_sweep_group(requests: Sequence[AnonymizationRequest], *,
                        registry: Optional[AnonymizerRegistry] = None,
                        observer: Optional[ProgressObserver] = None,
                        data_dir: Optional[str] = None,
                        graph=None, initial_distances=None,
                        baseline=None, resume_from=None) -> List[AnonymizationResponse]:
    """Execute one θ-sweep group, responses in request order.

    All requests must share a group key (everything but θ/request id); the
    group's graph is loaded once, the algorithm is built once, and the θ
    grid runs through :meth:`anonymize_schedule` — a single checkpointed
    pass.  Per-θ responses are identical to independently executed
    requests.  Failures are isolated at group granularity: an exception
    anywhere in the shared pass yields error responses for every request
    of the group (one bad group never poisons the rest of a grid).
    ``timeout_seconds``, when set, bounds the whole shared pass with the
    largest timeout of the group.

    The grid engine (:mod:`repro.api.sweeps`) amortizes work *across*
    groups that share a sample through the optional keywords: ``graph`` (a
    preloaded pristine sample — runs copy it, it is never mutated),
    ``initial_distances`` (the group's precomputed L-bounded matrix, e.g. a
    :class:`~repro.graph.distance_cache.LMaxDistanceCache` slice; the run
    consumes it), and ``baseline`` (the sample's shared utility baseline).
    All three default to the per-group cold path.

    ``resume_from`` (an ``AnonymizationCheckpoint`` from an interrupted
    pass over the *same* configuration, at a θ strictly above every θ of
    ``requests``) continues that pass instead of starting cold — the
    service layer's restart path.  Algorithms whose ``anonymize_schedule``
    takes no such keyword (GADED, whose θ shapes its candidate pool, and
    third-party ones) run the requested θs cold, which produces identical
    responses (each checkpoint equals an independent run at its θ), just
    without the saved work.  A resumed
    group never receives ``initial_distances``: the matrix describes the
    original graph, not the checkpoint's.
    """
    requests = list(requests)
    if not requests:
        return []
    try:
        return _run_group(requests, registry, observer, data_dir,
                          graph, initial_distances, baseline, resume_from)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return [AnonymizationResponse.failure(request, exc)
                for request in requests]


def accepts_kwarg(func, name: str) -> bool:
    """Whether a (possibly third-party) callable takes keyword ``name``.

    The optional-capability probe used when handing extras to
    registry-resolved algorithms: callables with an older signature run
    without the extra instead of crashing on an unexpected keyword.
    """
    import inspect

    try:
        parameters = inspect.signature(func).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    return name in parameters


def _run_group(requests: List[AnonymizationRequest],
               registry: Optional[AnonymizerRegistry],
               observer: Optional[ProgressObserver],
               data_dir: Optional[str],
               graph=None, initial_distances=None,
               baseline=None, resume_from=None) -> List[AnonymizationResponse]:
    from repro.api.batch import execute_request
    from repro.metrics import graph_baseline

    registry = registry if registry is not None else default_registry()
    first = requests[0]
    schedule = validate_theta_schedule([request.theta for request in requests])
    params = dict(first.algorithm_params())
    params["theta"] = schedule[-1]
    algorithm = registry.create(first.algorithm, **params)
    if not hasattr(algorithm, "anonymize_schedule"):
        # Third-party algorithm without schedule support: independent runs.
        return [execute_request(request, registry=registry, observer=observer,
                                data_dir=data_dir)
                for request in requests]
    if graph is None:
        graph = first.resolve_graph(data_dir=data_dir)
    timeouts = [request.timeout_seconds for request in requests
                if request.timeout_seconds is not None]
    if timeouts:
        observer = combine_observers(observer, TimeoutObserver(max(timeouts)))
    kwargs = {}
    if observer is not None:
        kwargs["observer"] = observer
    if resume_from is not None and \
            accepts_kwarg(algorithm.anonymize_schedule, "resume_from"):
        # Continue the interrupted pass; its distances must be recomputed
        # from the checkpoint graph, never seeded from the original's.
        kwargs["resume_from"] = resume_from
    elif initial_distances is not None and \
            accepts_kwarg(algorithm.anonymize_schedule, "initial_distances"):
        kwargs["initial_distances"] = initial_distances
    results = algorithm.anonymize_schedule(graph, schedule, **kwargs)
    by_theta = {result.config.theta: result for result in results}
    responses = []
    for request in requests:
        result = by_theta[float(request.theta)]
        metrics = None
        if request.include_utility:
            if baseline is None:
                baseline = graph_baseline(result.original_graph)
            metrics = response_metrics(result.original_graph,
                                       result.anonymized_graph, baseline)
        responses.append(AnonymizationResponse.from_result(request, result,
                                                           metrics=metrics))
    return responses

