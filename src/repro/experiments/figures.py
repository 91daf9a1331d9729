"""Series builders for every figure of the paper's evaluation (Figures 6-12).

Each function returns plain Python data (label -> list of (x, y) points) so
the benchmark harness and the examples can print the same series the paper
plots.  Default parameters are scaled to laptop-size inputs; the paper's own
settings (sample sizes up to 1000 nodes, θ down to 0) can be requested
explicitly when more time is available.

Every figure is declared as a list of
:class:`~repro.experiments.config.SweepPlan` series and executed as **one
grid job** through
:meth:`~repro.experiments.runner.ExperimentRunner.run_grid`, which hands
it to the service layer's grid executor
(:meth:`repro.api.BatchRunner.run_grid`): each θ grid costs roughly one
anonymization pass (with series identical to one run per θ), and series
sharing a sample — the L sweeps of Figures 6g/6h/8c especially —
additionally share one loaded graph and one L_max bounded-distance
computation (DESIGN.md §10).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.experiments.config import SweepPlan
from repro.experiments.runner import ExperimentRunner, RunRecord

Series = List[Tuple[float, float]]
SeriesMap = Dict[str, Series]
LabelT = TypeVar("LabelT", bound=Hashable)

#: θ grid used by default (the paper sweeps 100% down to 0% in steps of 10).
DEFAULT_THETAS: Tuple[float, ...] = (0.9, 0.8, 0.7, 0.6, 0.5)

#: Default algorithms compared in the L = 1 figures.
L1_ALGORITHMS: Tuple[str, ...] = ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades")


def _plan(dataset: str, sample_size: int, algorithm: str, length_threshold: int,
          lookahead: int, thetas: Sequence[float], seed: int,
          insertion_cap: Optional[int], max_steps: Optional[int]) -> SweepPlan:
    """One figure series: a θ sweep of one fixed configuration."""
    return SweepPlan(
        dataset=dataset, sample_size=sample_size, algorithm=algorithm,
        thetas=tuple(thetas), length_threshold=length_threshold,
        lookahead=lookahead, seed=seed, insertion_candidate_cap=insertion_cap,
        max_steps=max_steps)


def _run_labelled(runner: ExperimentRunner,
                  labelled: Sequence[Tuple[LabelT, SweepPlan]]
                  ) -> List[Tuple[LabelT, List[RunRecord]]]:
    """Execute labelled plans as one grid job, record lists in input order."""
    records = runner.run_grid([plan for _, plan in labelled])
    return [(label, rows) for (label, _), rows in zip(labelled, records)]


def _series(records: Iterable[RunRecord], value: str) -> Series:
    return [(record.config.theta, getattr(record, value)) for record in records]


# ----------------------------------------------------------------------
# Figure 6: distortion vs θ
# ----------------------------------------------------------------------
def figure6_series(dataset: str, length_threshold: int = 1, sample_size: int = 60,
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2),
                   include_baselines: Optional[bool] = None, seed: int = 0,
                   insertion_cap: Optional[int] = 150,
                   max_steps: Optional[int] = None,
                   runner: Optional[ExperimentRunner] = None) -> SeriesMap:
    """Distortion as a function of θ (Figures 6a-6f).

    Baselines are included only for L = 1, mirroring the paper (they cannot
    handle multi-edge linkage).
    """
    runner = runner or ExperimentRunner()
    if include_baselines is None:
        include_baselines = length_threshold == 1
    labelled = [(f"{algorithm} la={lookahead}",
                 _plan(dataset, sample_size, algorithm, length_threshold,
                       lookahead, thetas, seed, insertion_cap, max_steps))
                for lookahead in lookaheads
                for algorithm in ("rem", "rem-ins")]
    if include_baselines:
        labelled += [(algorithm,
                      _plan(dataset, sample_size, algorithm, 1, 1, thetas,
                            seed, insertion_cap, max_steps))
                     for algorithm in ("gaded-rand", "gaded-max", "gades")]
    return {label: _series(records, "distortion")
            for label, records in _run_labelled(runner, labelled)}


def figure6_lsweep_series(dataset: str, lengths: Sequence[int] = (1, 2, 3, 4),
                          sample_size: int = 60,
                          thetas: Sequence[float] = DEFAULT_THETAS, seed: int = 0,
                          insertion_cap: Optional[int] = 150,
                          max_steps: Optional[int] = None,
                          runner: Optional[ExperimentRunner] = None) -> SeriesMap:
    """Distortion vs θ while varying L at fixed look-ahead 1 (Figures 6g, 6h).

    The whole L × θ grid is one grid job over a single sample, so every
    series shares one loaded graph and one bounded-distance computation at
    ``max(lengths)`` (smaller-L matrices are thresholded slices).
    """
    runner = runner or ExperimentRunner()
    labelled = [(f"{algorithm} L={length}",
                 _plan(dataset, sample_size, algorithm, length, 1, thetas,
                       seed, insertion_cap, max_steps))
                for length in lengths
                for algorithm in ("rem", "rem-ins")]
    return {label: _series(records, "distortion")
            for label, records in _run_labelled(runner, labelled)}


# ----------------------------------------------------------------------
# Figure 7: EMD of degree / geodesic distributions vs θ
# ----------------------------------------------------------------------
def figure7_series(dataset: str = "enron", sample_size: int = 60,
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2), seed: int = 0,
                   insertion_cap: Optional[int] = 150,
                   max_steps: Optional[int] = None,
                   include_baselines: bool = True,
                   runner: Optional[ExperimentRunner] = None) -> Dict[str, SeriesMap]:
    """EMD of the degree (7a) and geodesic (7b) distributions vs θ, L = 1."""
    runner = runner or ExperimentRunner()
    algorithms: List[Tuple[str, int]] = [
        (algorithm, lookahead) for lookahead in lookaheads
        for algorithm in ("rem", "rem-ins")]
    if include_baselines:
        algorithms += [(name, 1) for name in ("gaded-rand", "gaded-max", "gades")]
    labelled = [(f"{algorithm} la={lookahead}"
                 if algorithm in ("rem", "rem-ins") else algorithm,
                 _plan(dataset, sample_size, algorithm, 1, lookahead, thetas,
                       seed, insertion_cap, max_steps))
                for algorithm, lookahead in algorithms]
    degree: SeriesMap = {}
    geodesic: SeriesMap = {}
    for label, records in _run_labelled(runner, labelled):
        degree[label] = _series(records, "degree_emd")
        geodesic[label] = _series(records, "geodesic_emd")
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
                   runner: Optional[ExperimentRunner] = None) -> SeriesMap:
    """Mean of per-vertex |ΔCC| vs θ (Figures 8a-8b)."""
    runner = runner or ExperimentRunner()
    if include_baselines is None:
        include_baselines = length_threshold == 1
    labelled = [(f"{algorithm} la={lookahead}",
                 _plan(dataset, sample_size, algorithm, length_threshold,
                       lookahead, thetas, seed, insertion_cap, max_steps))
                for lookahead in lookaheads
                for algorithm in ("rem", "rem-ins")]
    if include_baselines:
        labelled += [(algorithm,
                      _plan(dataset, sample_size, algorithm, 1, 1, thetas,
                            seed, insertion_cap, max_steps))
                     for algorithm in ("gaded-rand", "gaded-max", "gades")]
    return {label: _series(records, "mean_cc_difference")
            for label, records in _run_labelled(runner, labelled)}


def figure8_lsweep_series(dataset: str = "epinions", lengths: Sequence[int] = (1, 2, 3, 4),
                          sample_size: int = 60,
                          thetas: Sequence[float] = DEFAULT_THETAS, seed: int = 0,
                          insertion_cap: Optional[int] = 150,
                          max_steps: Optional[int] = None,
                          runner: Optional[ExperimentRunner] = None) -> SeriesMap:
    """Mean |ΔCC| vs θ while varying L at look-ahead 1 (Figure 8c).

    Like :func:`figure6_lsweep_series`, the L × θ grid runs as one grid
    job sharing a single L_max distance computation.
    """
    runner = runner or ExperimentRunner()
    labelled = [(f"{algorithm} L={length}",
                 _plan(dataset, sample_size, algorithm, length, 1, thetas,
                       seed, insertion_cap, max_steps))
                for length in lengths
                for algorithm in ("rem", "rem-ins")]
    return {label: _series(records, "mean_cc_difference")
            for label, records in _run_labelled(runner, labelled)}


# ----------------------------------------------------------------------
# Figure 9: runtime vs θ for growing sample sizes
# ----------------------------------------------------------------------
def figure9_series(dataset: str = "google", sample_sizes: Sequence[int] = (40, 60, 80),
                   thetas: Sequence[float] = DEFAULT_THETAS,
                   lookaheads: Sequence[int] = (1, 2), seed: int = 0,
                   insertion_cap: Optional[int] = 100,
                   max_steps: Optional[int] = None,
                   include_baselines: bool = True,
                   runner: Optional[ExperimentRunner] = None) -> Dict[int, SeriesMap]:
    """Runtime vs θ for each sample size (Figures 9a-9c).

    The paper uses 100/500/1000-node Google samples; the default sizes here
    are scaled down so the full sweep stays laptop-friendly, preserving the
    growth *shape* across sizes.  Each point's runtime is the elapsed
    time of the shared checkpointed pass when it crossed that θ.  All
    sizes run as one grid job (one sample group per size).
    """
    runner = runner or ExperimentRunner()
    algorithms: List[Tuple[str, int]] = [
        (algorithm, lookahead) for lookahead in lookaheads
        for algorithm in ("rem", "rem-ins")]
    if include_baselines:
        algorithms += [(name, 1) for name in ("gaded-rand", "gaded-max", "gades")]
    labelled = [((size, f"{algorithm} la={lookahead}"
                  if algorithm in ("rem", "rem-ins") else algorithm),
                 _plan(dataset, size, algorithm, 1, lookahead, thetas, seed,
                       insertion_cap, max_steps))
                for size in sample_sizes
                for algorithm, lookahead in algorithms]
    results: Dict[int, SeriesMap] = {size: {} for size in sample_sizes}
    for (size, label), records in _run_labelled(runner, labelled):
        results[size][label] = _series(records, "runtime_seconds")
    return results


# ----------------------------------------------------------------------
# Figure 10: runtime vs size, per algorithm and L
# ----------------------------------------------------------------------
def figure10_series(dataset: str = "gnutella", sample_sizes: Sequence[int] = (40, 60, 80),
                    lengths: Sequence[int] = (1, 2), theta: float = 0.5, seed: int = 0,
                    insertion_cap: Optional[int] = 100,
                    max_steps: Optional[int] = None,
                    runner: Optional[ExperimentRunner] = None) -> Dict[str, List[Tuple[int, float]]]:
    """Runtime for growing graph sizes, Rem and Rem-Ins, L ∈ {1, 2} (Figure 10).

    One grid job covers the whole algorithm × L × size grid; per size, the
    L ∈ {1, 2} series share one distance computation at L = 2.
    """
    runner = runner or ExperimentRunner()
    labelled = [((f"{algorithm} L={length}", size),
                 _plan(dataset, size, algorithm, length, 1, (theta,), seed,
                       insertion_cap, max_steps))
                for algorithm in ("rem", "rem-ins")
                for length in lengths
                for size in sample_sizes]
    series: Dict[str, List[Tuple[int, float]]] = {}
    for (label, size), records in _run_labelled(runner, labelled):
        series.setdefault(label, []).append((size, records[0].runtime_seconds))
    return series


# ----------------------------------------------------------------------
# Figures 11 and 12: ACM scaling experiment (runtime / distortion vs size)
# ----------------------------------------------------------------------
def _acm_scaling_records(sample_sizes: Sequence[int], thetas: Sequence[float],
                         seed: int, max_steps: Optional[int],
                         runner: Optional[ExperimentRunner]) -> Dict[float, List[RunRecord]]:
    """Per-θ record rows of the ACM sweep, one checkpointed pass per size."""
    runner = runner or ExperimentRunner()
    plans = [_plan("acm", size, "rem", 1, 1, thetas, seed, None, max_steps)
             for size in sample_sizes]
    records: Dict[float, List[RunRecord]] = {theta: [] for theta in thetas}
    for rows in runner.run_grid(plans):
        for record in rows:
            records[record.config.theta].append(record)
    return records


def figure11_series(sample_sizes: Sequence[int] = (50, 100, 150, 200),
                    thetas: Sequence[float] = (0.9, 0.8, 0.7, 0.6, 0.5), seed: int = 0,
                    max_steps: Optional[int] = None,
                    runner: Optional[ExperimentRunner] = None) -> Dict[float, List[Tuple[int, float]]]:
    """Runtime vs graph size for several θ, Edge Removal, L = 1 (Figure 11).

    The paper scales the ACM co-authorship graph from 1000 to 10000 nodes
    (multi-day runtimes); the default grid here is laptop-scale but exercises
    the same sweep so the growth trend can be inspected.  One checkpointed
    pass per sample size serves every θ series at once.
    """
    records = _acm_scaling_records(sample_sizes, thetas, seed, max_steps, runner)
    return {theta: [(record.config.sample_size, record.runtime_seconds) for record in rows]
            for theta, rows in records.items()}


def figure12_series(sample_sizes: Sequence[int] = (50, 100, 150, 200),
                    thetas: Sequence[float] = (0.9, 0.8, 0.7, 0.6, 0.5), seed: int = 0,
                    max_steps: Optional[int] = None,
                    runner: Optional[ExperimentRunner] = None) -> Dict[float, List[Tuple[int, float]]]:
    """Distortion vs graph size for several θ, Edge Removal, L = 1 (Figure 12)."""
    records = _acm_scaling_records(sample_sizes, thetas, seed, max_steps, runner)
    return {theta: [(record.config.sample_size, record.distortion) for record in rows]
            for theta, rows in records.items()}
