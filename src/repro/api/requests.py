"""Request/response records of the service-layer API.

An :class:`AnonymizationRequest` fixes everything about one anonymization
job — the input graph (either a named dataset sample or an explicit edge
list), the algorithm name resolved through the registry, and the algorithm
parameters.  An :class:`AnonymizationResponse` carries the outcome,
including the full anonymized edge list, so both records can cross process
boundaries: every field survives a JSON round-trip
(``from_json(to_json(x)) == x``), which is what the batch workers and the
``repro-lopacity batch`` job specs rely on.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.graph.graph import Edge, Graph, normalize_edge

EdgeTuple = Tuple[Edge, ...]


def _normalize_edges(edges: Any) -> EdgeTuple:
    """Coerce any iterable of 2-sequences into a sorted tuple of edges."""
    return tuple(sorted(normalize_edge(int(u), int(v)) for u, v in edges))


def _edge_lists(edges: EdgeTuple) -> list:
    """``[u, v]`` lists of canonical edge tuples, for a JSON payload."""
    return list(map(list, edges))


def _edge_tuples(graph: Graph) -> EdgeTuple:
    """The graph's edges as canonical ``(u, v)`` tuples, in sorted order.

    Read from the cached :meth:`~repro.graph.graph.Graph.edge_array`.  The
    cyclic collector is held off while the m tuples are made: each one
    counts as an allocation towards a young-generation pass, so a large
    graph would otherwise set off a dozen passes (and, now and then, a
    full collection of the whole heap) inside this one call.  The tuples
    hold only ints, so the first pass after it untracks them all at once.
    """
    edges = graph.edge_array()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return tuple(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))
    finally:
        if collecting:
            gc.enable()


def _shallow_fields(record: Any) -> Dict[str, Any]:
    """A dataclass's fields by name, in declaration order, uncopied.

    The ``to_dict`` methods replace the non-scalar fields themselves, so
    the deep copy of ``dataclasses.asdict`` would only be thrown away.
    """
    return {field.name: getattr(record, field.name) for field in fields(record)}


@dataclass(frozen=True)
class AnonymizationRequest:
    """One anonymization job, fully described by plain data.

    The input graph comes either from a built-in dataset
    (``dataset`` + ``sample_size``) or from an explicit ``edges`` tuple
    (with an optional ``num_vertices`` for trailing isolated vertices);
    exactly one of the two sources must be given.  Algorithm parameters
    set to ``None`` fall back to the algorithm's own defaults.
    """

    algorithm: str = "rem"
    # --- graph source -------------------------------------------------
    dataset: Optional[str] = None
    sample_size: Optional[int] = None
    edges: Optional[EdgeTuple] = None
    num_vertices: Optional[int] = None
    # --- algorithm parameters ----------------------------------------
    theta: float = 0.5
    length_threshold: int = 1
    lookahead: int = 1
    seed: Optional[int] = 0
    scan_workers: Optional[int] = None
    max_steps: Optional[int] = None
    insertion_candidate_cap: Optional[int] = None
    swap_sample_size: Optional[int] = None
    scale_tier: str = "auto"
    scale_budget_bytes: Optional[int] = None
    # --- execution options -------------------------------------------
    timeout_seconds: Optional[float] = None
    include_utility: bool = False
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.edges is not None:
            object.__setattr__(self, "edges", _normalize_edges(self.edges))
        has_dataset = self.dataset is not None
        has_edges = self.edges is not None
        if has_dataset == has_edges:
            raise ConfigurationError(
                "exactly one graph source required: either dataset/sample_size "
                "or an explicit edges list")
        if has_dataset and self.sample_size is None:
            raise ConfigurationError("sample_size is required with a dataset source")
        if not self.algorithm or not isinstance(self.algorithm, str):
            raise ConfigurationError(f"algorithm must be a non-empty string, got {self.algorithm!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if self.length_threshold < 1:
            raise ConfigurationError("length_threshold must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be > 0")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigurationError(
                f"max_steps must be >= 0, got {self.max_steps}")
        if self.scan_workers is not None and self.scan_workers < 0:
            raise ConfigurationError(
                f"scan_workers must be >= 0, got {self.scan_workers}")
        from repro.graph.distance_store import validate_scale_tier
        validate_scale_tier(self.scale_tier)
        if self.scale_budget_bytes is not None and self.scale_budget_bytes < 1:
            raise ConfigurationError(
                f"scale_budget_bytes must be >= 1, got {self.scale_budget_bytes}")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def algorithm_params(self) -> Dict[str, Any]:
        """The parameter mapping handed to ``AnonymizerSpec.create``."""
        return {
            "theta": self.theta,
            "length_threshold": self.length_threshold,
            "lookahead": self.lookahead,
            "seed": self.seed,
            "scan_workers": self.scan_workers,
            "max_steps": self.max_steps,
            "insertion_candidate_cap": self.insertion_candidate_cap,
            "swap_sample_size": self.swap_sample_size,
            "scale_tier": self.scale_tier,
            "scale_budget_bytes": self.scale_budget_bytes,
        }

    def store_config(self):
        """The :class:`~repro.graph.distance_store.StoreConfig` this request asks for."""
        from repro.graph.distance_store import (
            DEFAULT_SCALE_BUDGET_BYTES, StoreConfig)
        budget = (self.scale_budget_bytes if self.scale_budget_bytes is not None
                  else DEFAULT_SCALE_BUDGET_BYTES)
        return StoreConfig(tier=self.scale_tier, budget_bytes=budget)

    def resolve_graph(self, data_dir: Optional[str] = None) -> Graph:
        """Materialize the input graph described by this request."""
        if self.edges is not None:
            implied = 1 + max((max(u, v) for u, v in self.edges), default=-1)
            num_vertices = self.num_vertices if self.num_vertices is not None else implied
            if num_vertices < implied:
                raise ConfigurationError(
                    f"num_vertices={num_vertices} is smaller than the largest "
                    f"endpoint implies ({implied})")
            return Graph(num_vertices, edges=self.edges)
        from repro.datasets import load_sample
        return load_sample(self.dataset, self.sample_size,
                           data_dir=data_dir, seed=self.seed)

    def with_overrides(self, **overrides: Any) -> "AnonymizationRequest":
        """Copy of this request with some fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (edges become ``[u, v]`` lists), JSON-safe."""
        payload = _shallow_fields(self)
        if self.edges is not None:
            payload["edges"] = _edge_lists(self.edges)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnonymizationRequest":
        """Inverse of :meth:`to_dict`; unknown keys raise (typo protection)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s) {unknown}; known: {sorted(known)}")
        data = dict(payload)
        if data.get("edges") is not None:
            data["edges"] = _normalize_edges(data["edges"])
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "AnonymizationRequest":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def response_metrics(original: Graph, anonymized: Graph,
                     baseline: Any = None) -> Dict[str, float]:
    """The utility metrics a response carries when ``include_utility`` is set.

    :func:`~repro.metrics.report.utility_report` without its spectral
    terms, which no response reports; ``baseline`` is the original graph's
    precomputed side, shared by every response of a sample.
    """
    from repro.metrics import utility_report

    report = utility_report(original, anonymized, include_spectral=False,
                            baseline=baseline)
    return {key: value for key, value in report.as_dict().items()
            if key not in ("eigenvalue_shift", "connectivity_shift")}


@dataclass(frozen=True)
class AnonymizationResponse:
    """Outcome of one request, self-contained and JSON-serializable.

    ``error`` is ``None`` for runs that completed (successfully or
    best-effort); a failed run carries the exception rendered as
    ``"ExceptionType: message"`` and zeroed result fields, so one bad job
    never poisons a batch.
    """

    request: AnonymizationRequest
    success: bool = False
    final_opacity: float = 0.0
    distortion: float = 0.0
    num_steps: int = 0
    evaluations: int = 0
    runtime_seconds: float = 0.0
    num_vertices: int = 0
    removed_edges: EdgeTuple = ()
    inserted_edges: EdgeTuple = ()
    anonymized_edges: EdgeTuple = ()
    stop_reason: Optional[str] = None
    metrics: Optional[Mapping[str, float]] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("removed_edges", "inserted_edges", "anonymized_edges"):
            object.__setattr__(self, name, _normalize_edges(getattr(self, name)))
        if self.metrics is not None:
            object.__setattr__(self, "metrics",
                               {str(k): float(v) for k, v in self.metrics.items()})

    @property
    def ok(self) -> bool:
        """Whether the run completed without raising."""
        return self.error is None

    def anonymized_graph(self) -> Graph:
        """Rebuild the anonymized graph carried by this response."""
        return Graph(self.num_vertices, edges=self.anonymized_edges)

    def summary(self) -> str:
        """One-line human-readable summary (mirrors the result record)."""
        if self.error is not None:
            return f"{self.request.algorithm} [failed] {self.error}"
        status = "ok" if self.success else "best-effort"
        line = (f"{self.request.algorithm} L={self.request.length_threshold} "
                f"theta={self.request.theta:.2f} [{status}] "
                f"opacity={self.final_opacity:.3f} distortion={self.distortion:.3f} "
                f"steps={self.num_steps} removed={len(self.removed_edges)} "
                f"inserted={len(self.inserted_edges)} "
                f"time={self.runtime_seconds:.2f}s")
        if self.stop_reason:
            line += f" stopped={self.stop_reason}"
        return line

    # ------------------------------------------------------------------
    # construction from a core result
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, request: AnonymizationRequest, result: Any,
                    metrics: Optional[Mapping[str, float]] = None) -> "AnonymizationResponse":
        """Build a response from a core ``AnonymizationResult``.

        The anonymized edges come from the graph's cached
        :meth:`~repro.graph.graph.Graph.edge_array` (which the distortion
        has just read), already sorted and canonical, so they are adopted
        without the normalization :meth:`from_dict` gives outside input.
        """
        response = cls(
            request=request,
            success=result.success,
            final_opacity=float(result.final_opacity),
            distortion=float(result.distortion),
            num_steps=result.num_steps,
            evaluations=result.evaluations,
            runtime_seconds=float(result.runtime_seconds),
            num_vertices=result.anonymized_graph.num_vertices,
            removed_edges=tuple(result.removed_edges),
            inserted_edges=tuple(result.inserted_edges),
            stop_reason=result.stop_reason,
            metrics=metrics,
        )
        object.__setattr__(response, "anonymized_edges",
                           _edge_tuples(result.anonymized_graph))
        return response

    @classmethod
    def failure(cls, request: AnonymizationRequest, exc: BaseException) -> "AnonymizationResponse":
        """Build the error response for a request that raised ``exc``."""
        return cls(request=request, success=False,
                   error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (edges become ``[u, v]`` lists), JSON-safe."""
        payload = _shallow_fields(self)
        payload["request"] = self.request.to_dict()
        for name in ("removed_edges", "inserted_edges", "anonymized_edges"):
            payload[name] = _edge_lists(payload[name])
        if self.metrics is not None:
            payload["metrics"] = dict(self.metrics)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnonymizationResponse":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown response field(s) {unknown}; known: {sorted(known)}")
        data = dict(payload)
        data["request"] = AnonymizationRequest.from_dict(data["request"])
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "AnonymizationResponse":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# canonical request fingerprints
# ----------------------------------------------------------------------
FINGERPRINT_VERSION = 4
"""Version stamp mixed into every fingerprint.

Bump it whenever the hashed input changes — a field added to or removed
from ``to_dict()``, a changed canonicalization — or request semantics
change in a way that should invalidate stored results keyed by
fingerprint.  ``tests/api/test_fingerprint.py`` pins one golden
fingerprint, so a change to the hashed input fails there until it is
bumped.
"""


def _strip_request_ids(value: Any) -> Any:
    """Drop ``request_id`` keys recursively; they label, not parameterize."""
    if isinstance(value, Mapping):
        return {k: _strip_request_ids(v) for k, v in value.items()
                if k != "request_id"}
    if isinstance(value, (list, tuple)):
        return [_strip_request_ids(v) for v in value]
    return value


def request_fingerprint(request: Any) -> str:
    """Canonical content hash of a request (hex SHA-256).

    Two requests that are semantically identical — same type, same field
    values after normalization, regardless of construction order or the
    client-chosen ``request_id`` label — fingerprint identically, because
    the hash is taken over version-stamped, sorted-key, minimal-separator
    JSON of the request's ``to_dict()`` form.  Works for any record with a
    ``to_dict`` method (:class:`AnonymizationRequest`, ``GridRequest``).
    """
    to_dict = getattr(request, "to_dict", None)
    if to_dict is None:
        raise ConfigurationError(
            f"cannot fingerprint {type(request).__name__}: no to_dict() method")
    canonical = {
        "v": FINGERPRINT_VERSION,
        "kind": type(request).__name__,
        "request": _strip_request_ids(to_dict()),
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
