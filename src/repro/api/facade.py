"""High-level entry points of the service layer.

Four facade functions cover the workloads every front end (CLI, experiment
runner, batch workers, library users) needs:

* :func:`anonymize` — execute one :class:`AnonymizationRequest` end to end
  and return an :class:`AnonymizationResponse`;
* :func:`compute_opacity` — measure the L-opacity of a request's input
  graph without modifying it;
* :func:`sweep` — expand a base request over parameter axes (algorithms,
  thetas, ...) and execute the grid, optionally across worker processes;
* :func:`run_requests` — execute an explicit request list one run per
  request, optionally across worker processes.

All of them resolve algorithms exclusively through the registry, so any
anonymizer registered with :func:`repro.api.register_anonymizer` — built-in
or third-party — is reachable by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.progress import ProgressObserver, TimeoutObserver, combine_observers
from repro.api.registry import AnonymizerRegistry, default_registry
from repro.api.requests import (AnonymizationRequest, AnonymizationResponse,
                                response_metrics)
from repro.errors import ConfigurationError


def anonymize(request: AnonymizationRequest, *,
              registry: Optional[AnonymizerRegistry] = None,
              observer: Optional[ProgressObserver] = None,
              data_dir: Optional[str] = None) -> AnonymizationResponse:
    """Execute one anonymization request and return its response.

    A ``timeout_seconds`` on the request is honoured with a
    :class:`TimeoutObserver` (combined with any explicit ``observer``);
    ``include_utility=True`` attaches the utility metrics of the paper's
    figures to ``response.metrics``.  Exceptions propagate — use
    :func:`repro.api.batch.execute_request` for the error-isolating variant.
    """
    registry = registry if registry is not None else default_registry()
    graph = request.resolve_graph(data_dir=data_dir)
    algorithm = registry.create(request.algorithm, **request.algorithm_params())
    if request.timeout_seconds is not None:
        observer = combine_observers(observer, TimeoutObserver(request.timeout_seconds))
    if observer is not None:
        result = algorithm.anonymize(graph, observer=observer)
    else:
        result = algorithm.anonymize(graph)
    metrics = (response_metrics(result.original_graph, result.anonymized_graph)
               if request.include_utility else None)
    return AnonymizationResponse.from_result(request, result, metrics=metrics)


@dataclass(frozen=True)
class OpacityReport:
    """L-opacity measurement of one graph (no anonymization performed)."""

    length_threshold: int
    num_vertices: int
    num_edges: int
    max_opacity: float
    types_at_max: int
    worst_types: Tuple[Tuple[str, int, int, float], ...]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data (JSON-safe) form of the report."""
        return {
            "length_threshold": self.length_threshold,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_opacity": self.max_opacity,
            "types_at_max": self.types_at_max,
            "worst_types": [list(row) for row in self.worst_types],
        }


def compute_opacity(request: AnonymizationRequest, *,
                    top: int = 10,
                    data_dir: Optional[str] = None) -> OpacityReport:
    """Measure the L-opacity of the request's input graph.

    Only the graph source and ``length_threshold`` fields of the request
    are used; the algorithm name is ignored.  ``worst_types``
    lists the ``top`` most exposed pair types as
    ``(type_key, within_threshold, total_pairs, opacity)`` rows; ``top``
    must be non-negative.
    """
    from repro.core.opacity import OpacityComputer
    from repro.core.pair_types import DegreePairTyping

    if top < 0:
        raise ConfigurationError(f"top must be >= 0, got {top}")
    graph = request.resolve_graph(data_dir=data_dir)
    computer = OpacityComputer(DegreePairTyping(graph), request.length_threshold)
    outcome = computer.evaluate(graph)
    worst = sorted(outcome.per_type.values(), key=lambda entry: -entry.opacity)[:top]
    return OpacityReport(
        length_threshold=request.length_threshold,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_opacity=outcome.max_opacity,
        types_at_max=outcome.types_at_max,
        worst_types=tuple((str(entry.type_key), entry.within_threshold,
                           entry.total_pairs, entry.opacity) for entry in worst),
    )


def sweep(base: AnonymizationRequest, *,
          datasets: Optional[Sequence[str]] = None,
          sample_sizes: Optional[Sequence[int]] = None,
          algorithms: Optional[Sequence[str]] = None,
          thetas: Optional[Sequence[float]] = None,
          length_thresholds: Optional[Sequence[int]] = None,
          lookaheads: Optional[Sequence[int]] = None,
          seeds: Optional[Sequence[int]] = None,
          max_workers: Optional[int] = 0,
          data_dir: Optional[str] = None,
          shared_memory: Optional[bool] = None) -> List[AnonymizationResponse]:
    """Expand ``base`` over the given axes and execute the grid.

    The grid is partitioned into sample groups (requests sharing a
    dataset/size/seed, which share one loaded sample and one L_max
    bounded-distance computation) and, within them, into θ-sweep groups
    (requests identical in everything but θ); each θ-sweep group runs as
    *one* anonymization pass with per-θ checkpoints — a k-point θ grid
    costs roughly one run instead of k — with responses identical to one
    run per request.  ``max_workers=0`` (the default) runs in-process;
    any other value fans the *θ-sweep groups* across a
    :class:`repro.api.batch.BatchRunner` process pool over the zero-copy
    shared-memory data plane (``None`` = one worker per CPU).
    ``shared_memory=False`` lets every worker prepare its own sample: it
    fans whole sample groups when the grid has several samples and
    θ-groups when it has one.  Responses come back in expansion order (θ
    fastest), with failures isolated into error responses at group
    granularity.
    """
    from repro.api.sweeps import GridRequest, run_grid

    request = GridRequest.from_axes(
        base, datasets=datasets, sample_sizes=sample_sizes,
        algorithms=algorithms, thetas=thetas,
        length_thresholds=length_thresholds, lookaheads=lookaheads,
        seeds=seeds)
    return list(run_grid(request, max_workers=max_workers,
                         data_dir=data_dir,
                         shared_memory=shared_memory).responses)


def run_requests(requests: Iterable[AnonymizationRequest], *,
                 max_workers: Optional[int] = 0,
                 data_dir: Optional[str] = None) -> List[AnonymizationResponse]:
    """Execute an explicit list of requests, one run per request.

    Unlike :func:`sweep`, nothing is grouped: every request runs on its
    own (with its own ``timeout_seconds``), and a failing request becomes
    an error response without aborting the rest.  Responses come back in
    input order.  ``max_workers=0`` (the default) runs in-process; any
    other value fans the requests across a
    :class:`repro.api.batch.BatchRunner` process pool (``None`` = one
    worker per CPU).
    """
    from repro.api.batch import BatchRunner

    return BatchRunner(max_workers=max_workers, data_dir=data_dir).run(list(requests))
