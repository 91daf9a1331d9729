"""Series builders for every figure of the paper's evaluation (Figures 6-12).

Each function returns plain Python data (label -> list of (x, y) points) so
the benchmark harness and the examples can print the same series the paper
plots.  Default parameters are scaled to laptop-size inputs; the paper's own
settings (sample sizes up to 1000 nodes, θ down to 0) can be requested
explicitly when more time is available.

Every series sweeps θ for one otherwise-fixed configuration, so a builder
declares its series as labelled
:class:`~repro.api.requests.AnonymizationRequest` s with
``include_utility=True``, expands each over θ with
:meth:`~repro.api.sweeps.GridRequest.from_axes`, and runs them all as
**one** fail-fast grid through :func:`repro.api.sweeps.run_grid` in this
process.  Each θ series costs roughly one checkpointed anonymization pass
(DESIGN.md §9), and series sharing a sample — the L sweeps of Figures
6g/6h/8c especially — share one loaded graph and one L_max
bounded-distance computation (DESIGN.md §10).  Every point is read
straight off its :class:`~repro.api.requests.AnonymizationResponse`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.api.sweeps import GridRequest, run_grid

Series = List[Tuple[float, float]]
SeriesMap = Dict[str, Series]
LabelT = TypeVar("LabelT", bound=Hashable)

#: θ grid used by default (the paper sweeps 100% down to 0% in steps of 10).
DEFAULT_THETAS: Tuple[float, ...] = (0.9, 0.8, 0.7, 0.6, 0.5)

#: The Zhang & Zhang baselines, compared at L = 1 only (they cannot handle
#: multi-edge linkage).
BASELINES: Tuple[str, ...] = ("gaded-rand", "gaded-max", "gades")


def _base(dataset: str, sample_size: int, seed: int,
          insertion_cap: Optional[int], max_steps: Optional[int],
          **fields) -> AnonymizationRequest:
    """A figure request: one sample and its tuning, with utility metrics."""
    return AnonymizationRequest(
        dataset=dataset, sample_size=sample_size, seed=seed,
        insertion_candidate_cap=insertion_cap, max_steps=max_steps,
        include_utility=True, **fields)


def _comparison(base: AnonymizationRequest, lookaheads: Sequence[int],
                include_baselines: bool) -> List[Tuple[str, AnonymizationRequest]]:
    """Figures 6-9's series: Rem and Rem-Ins per look-ahead, then the baselines."""
    labelled = [(f"{algorithm} la={lookahead}",
                 base.with_overrides(algorithm=algorithm, lookahead=lookahead))
                for lookahead in lookaheads
                for algorithm in ("rem", "rem-ins")]
    if include_baselines:
        labelled += [(name, base.with_overrides(algorithm=name,
                                                length_threshold=1))
                     for name in BASELINES]
    return labelled


def _length_sweep(base: AnonymizationRequest, lengths: Sequence[int]
                  ) -> List[Tuple[str, AnonymizationRequest]]:
    """The L-sweep series (Figures 6g, 6h, 8c): Rem and Rem-Ins per L."""
    return [(f"{algorithm} L={length}",
             base.with_overrides(algorithm=algorithm, length_threshold=length))
            for length in lengths
            for algorithm in ("rem", "rem-ins")]


def _run(labelled: Sequence[Tuple[LabelT, AnonymizationRequest]],
         thetas: Sequence[float], data_dir: Optional[str]
         ) -> List[Tuple[LabelT, List[AnonymizationResponse]]]:
    """Run every labelled series over ``thetas`` as one fail-fast grid.

    Returns each label with its series' responses, in θ order.
    """
    requests = tuple(request for _, base in labelled
                     for request in GridRequest.from_axes(base, thetas=thetas).requests)
    responses = iter(run_grid(GridRequest(requests=requests, on_error="fail_fast"),
                              max_workers=0, data_dir=data_dir).responses)
    return [(label, [next(responses) for _ in thetas]) for label, _ in labelled]


def _theta_series(responses: Sequence[AnonymizationResponse], metric: str) -> Series:
    """One utility metric of a θ series, as ``(θ, value)`` points."""
    return [(response.request.theta, response.metrics[metric])
            for response in responses]


# ----------------------------------------------------------------------
# Figure 6: distortion vs θ
# ----------------------------------------------------------------------
def figure6_series(dataset: str, length_threshold: int = 1, sample_size: int = 60,
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2),
                   include_baselines: Optional[bool] = None, seed: int = 0,
                   insertion_cap: Optional[int] = 150,
                   max_steps: Optional[int] = None,
                   data_dir: Optional[str] = None) -> SeriesMap:
    """Distortion as a function of θ (Figures 6a-6f).

    Baselines are included only for L = 1, mirroring the paper (they cannot
    handle multi-edge linkage).
    """
    if include_baselines is None:
        include_baselines = length_threshold == 1
    base = _base(dataset, sample_size, seed, insertion_cap, max_steps,
                 length_threshold=length_threshold)
    return {label: _theta_series(responses, "distortion")
            for label, responses in _run(
                _comparison(base, lookaheads, include_baselines), thetas,
                data_dir)}


def figure6_lsweep_series(dataset: str, lengths: Sequence[int] = (1, 2, 3, 4),
                          sample_size: int = 60,
                          thetas: Sequence[float] = DEFAULT_THETAS, seed: int = 0,
                          insertion_cap: Optional[int] = 150,
                          max_steps: Optional[int] = None,
                          data_dir: Optional[str] = None) -> SeriesMap:
    """Distortion vs θ while varying L at fixed look-ahead 1 (Figures 6g, 6h).

    The whole L × θ grid is one grid job over a single sample, so every
    series shares one loaded graph and one bounded-distance computation at
    ``max(lengths)`` (smaller-L matrices are thresholded slices).
    """
    base = _base(dataset, sample_size, seed, insertion_cap, max_steps)
    return {label: _theta_series(responses, "distortion")
            for label, responses in _run(_length_sweep(base, lengths), thetas,
                                         data_dir)}


# ----------------------------------------------------------------------
# Figure 7: EMD of degree / geodesic distributions vs θ
# ----------------------------------------------------------------------
def figure7_series(dataset: str = "enron", sample_size: int = 60,
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2), seed: int = 0,
                   insertion_cap: Optional[int] = 150,
                   max_steps: Optional[int] = None,
                   include_baselines: bool = True,
                   data_dir: Optional[str] = None) -> Dict[str, SeriesMap]:
    """EMD of the degree (7a) and geodesic (7b) distributions vs θ, L = 1."""
    base = _base(dataset, sample_size, seed, insertion_cap, max_steps)
    degree: SeriesMap = {}
    geodesic: SeriesMap = {}
    for label, responses in _run(_comparison(base, lookaheads, include_baselines),
                                 thetas, data_dir):
        degree[label] = _theta_series(responses, "degree_emd")
        geodesic[label] = _theta_series(responses, "geodesic_emd")
    return {"degree_emd": degree, "geodesic_emd": geodesic}


# ----------------------------------------------------------------------
# Figure 8: mean clustering-coefficient difference vs θ
# ----------------------------------------------------------------------
def figure8_series(dataset: str = "wikipedia", length_threshold: int = 1,
                   sample_size: int = 60, thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2), seed: int = 0,
                   insertion_cap: Optional[int] = 150,
                   max_steps: Optional[int] = None,
                   include_baselines: Optional[bool] = None,
                   data_dir: Optional[str] = None) -> SeriesMap:
    """Mean of per-vertex |ΔCC| vs θ (Figures 8a-8b)."""
    if include_baselines is None:
        include_baselines = length_threshold == 1
    base = _base(dataset, sample_size, seed, insertion_cap, max_steps,
                 length_threshold=length_threshold)
    return {label: _theta_series(responses, "mean_cc_diff")
            for label, responses in _run(
                _comparison(base, lookaheads, include_baselines), thetas,
                data_dir)}


def figure8_lsweep_series(dataset: str = "epinions", lengths: Sequence[int] = (1, 2, 3, 4),
                          sample_size: int = 60,
                          thetas: Sequence[float] = DEFAULT_THETAS, seed: int = 0,
                          insertion_cap: Optional[int] = 150,
                          max_steps: Optional[int] = None,
                          data_dir: Optional[str] = None) -> SeriesMap:
    """Mean |ΔCC| vs θ while varying L at look-ahead 1 (Figure 8c).

    Like :func:`figure6_lsweep_series`, the L × θ grid runs as one grid
    job sharing a single L_max distance computation.
    """
    base = _base(dataset, sample_size, seed, insertion_cap, max_steps)
    return {label: _theta_series(responses, "mean_cc_diff")
            for label, responses in _run(_length_sweep(base, lengths), thetas,
                                         data_dir)}


# ----------------------------------------------------------------------
# Figure 9: runtime vs θ for growing sample sizes
# ----------------------------------------------------------------------
def figure9_series(dataset: str = "google", sample_sizes: Sequence[int] = (40, 60, 80),
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2), seed: int = 0,
                   insertion_cap: Optional[int] = 100,
                   max_steps: Optional[int] = None,
                   include_baselines: bool = True,
                   data_dir: Optional[str] = None) -> Dict[int, SeriesMap]:
    """Runtime vs θ for each sample size (Figures 9a-9c).

    The paper uses 100/500/1000-node Google samples; the default sizes here
    are scaled down so the full sweep stays laptop-friendly, preserving the
    growth *shape* across sizes.  Each point's runtime is the elapsed
    time of the shared checkpointed pass when it crossed that θ.  All
    sizes run as one grid job (one sample group per size).
    """
    labelled = [((size, label), request)
                for size in sample_sizes
                for label, request in _comparison(
                    _base(dataset, size, seed, insertion_cap, max_steps),
                    lookaheads, include_baselines)]
    results: Dict[int, SeriesMap] = {size: {} for size in sample_sizes}
    for (size, label), responses in _run(labelled, thetas, data_dir):
        results[size][label] = [(response.request.theta, response.runtime_seconds)
                                for response in responses]
    return results


# ----------------------------------------------------------------------
# Figure 10: runtime vs size, per algorithm and L
# ----------------------------------------------------------------------
def figure10_series(dataset: str = "gnutella", sample_sizes: Sequence[int] = (40, 60, 80),
                    lengths: Sequence[int] = (1, 2), theta: float = 0.5, seed: int = 0,
                    insertion_cap: Optional[int] = 100,
                    max_steps: Optional[int] = None,
                    data_dir: Optional[str] = None) -> Dict[str, List[Tuple[int, float]]]:
    """Runtime for growing graph sizes, Rem and Rem-Ins, L ∈ {1, 2} (Figure 10).

    One grid job covers the whole algorithm × L × size grid; per size, the
    L ∈ {1, 2} series share one distance computation at L = 2.
    """
    labelled = [(f"{algorithm} L={length}",
                 _base(dataset, size, seed, insertion_cap, max_steps,
                       algorithm=algorithm, length_threshold=length))
                for algorithm in ("rem", "rem-ins")
                for length in lengths
                for size in sample_sizes]
    series: Dict[str, List[Tuple[int, float]]] = {}
    for label, (response,) in _run(labelled, (theta,), data_dir):
        series.setdefault(label, []).append((response.request.sample_size,
                                             response.runtime_seconds))
    return series


# ----------------------------------------------------------------------
# Figures 11 and 12: ACM scaling experiment (runtime / distortion vs size)
# ----------------------------------------------------------------------
def _acm_scaling(sample_sizes: Sequence[int], thetas: Sequence[float],
                 seed: int, max_steps: Optional[int], data_dir: Optional[str]
                 ) -> Dict[float, List[AnonymizationResponse]]:
    """Per-θ response rows of the ACM sweep, one checkpointed pass per size."""
    labelled = [(size, _base("acm", size, seed, None, max_steps))
                for size in sample_sizes]
    rows: Dict[float, List[AnonymizationResponse]] = {theta: [] for theta in thetas}
    for _size, responses in _run(labelled, thetas, data_dir):
        for response in responses:
            rows[response.request.theta].append(response)
    return rows


def figure11_series(sample_sizes: Sequence[int] = (50, 100, 150, 200),
                    thetas: Sequence[float] = (0.9, 0.8, 0.7, 0.6, 0.5), seed: int = 0,
                    max_steps: Optional[int] = None,
                    data_dir: Optional[str] = None) -> Dict[float, List[Tuple[int, float]]]:
    """Runtime vs graph size for several θ, Edge Removal, L = 1 (Figure 11).

    The paper scales the ACM co-authorship graph from 1000 to 10000 nodes
    (multi-day runtimes); the default grid here is laptop-scale but exercises
    the same sweep so the growth trend can be inspected.  One checkpointed
    pass per sample size serves every θ series at once.
    """
    rows = _acm_scaling(sample_sizes, thetas, seed, max_steps, data_dir)
    return {theta: [(response.request.sample_size, response.runtime_seconds)
                    for response in responses]
            for theta, responses in rows.items()}


def figure12_series(sample_sizes: Sequence[int] = (50, 100, 150, 200),
                    thetas: Sequence[float] = (0.9, 0.8, 0.7, 0.6, 0.5), seed: int = 0,
                    max_steps: Optional[int] = None,
                    data_dir: Optional[str] = None) -> Dict[float, List[Tuple[int, float]]]:
    """Distortion vs graph size for several θ, Edge Removal, L = 1 (Figure 12)."""
    rows = _acm_scaling(sample_sizes, thetas, seed, max_steps, data_dir)
    return {theta: [(response.request.sample_size, response.metrics["distortion"])
                    for response in responses]
            for theta, responses in rows.items()}
