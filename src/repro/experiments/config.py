"""Experiment configuration records.

An :class:`ExperimentConfig` fixes everything about a single anonymization
run (dataset sample, algorithm, L, θ, look-ahead, seed); a
:class:`SweepPlan` declares a θ grid for one otherwise-fixed configuration
— the unit every figure series of the paper is built from, executed as a
single checkpointed anonymization by
:meth:`~repro.experiments.runner.ExperimentRunner.run_sweep`; a
:class:`SweepSpec` expands a full grid of configurations and can emit its
θ-sweep plans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.anonymizer import validate_theta_schedule
from repro.errors import ConfigurationError

#: Algorithms understood by the runner.
ALGORITHMS: Tuple[str, ...] = (
    "rem",          # Edge Removal (Algorithm 4)
    "rem-ins",      # Edge Removal/Insertion (Algorithm 5)
    "gaded-rand",   # Zhang & Zhang baseline
    "gaded-max",    # Zhang & Zhang baseline
    "gades",        # Zhang & Zhang baseline
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One anonymization run of the evaluation."""

    dataset: str
    sample_size: int
    algorithm: str
    theta: float
    length_threshold: int = 1
    lookahead: int = 1
    seed: int = 0
    insertion_candidate_cap: Optional[int] = None
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; valid: {ALGORITHMS}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if self.length_threshold < 1:
            raise ConfigurationError("length_threshold must be >= 1")
        if self.lookahead < 1:
            raise ConfigurationError("lookahead must be >= 1")

    def label(self) -> str:
        """Short label used in series legends (mirrors the paper's legends)."""
        if self.algorithm in ("rem", "rem-ins"):
            return f"{self.algorithm} la={self.lookahead} L={self.length_threshold}"
        return self.algorithm

    def with_theta(self, theta: float) -> "ExperimentConfig":
        """Copy of this configuration with a different confidence threshold."""
        return replace(self, theta=theta)


@dataclass(frozen=True)
class SweepPlan:
    """A θ grid for one otherwise-fixed configuration (one figure series).

    The declarative unit the figure builders are written in: every series
    of Figures 6-12 sweeps θ for a fixed (dataset, size, algorithm, L,
    look-ahead, seed) tuple, which
    :meth:`~repro.experiments.runner.ExperimentRunner.run_sweep` serves
    with a *single* checkpointed anonymization pass, yielding records
    identical to one run per grid point.
    """

    dataset: str
    sample_size: int
    algorithm: str
    thetas: Tuple[float, ...]
    length_threshold: int = 1
    lookahead: int = 1
    seed: int = 0
    insertion_candidate_cap: Optional[int] = None
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(self.thetas))
        validate_theta_schedule(self.thetas)  # non-empty, all in [0, 1]
        # Delegate the remaining validation to the per-θ config record.
        self.configs()

    def configs(self) -> List[ExperimentConfig]:
        """The grid's per-θ configurations, in the plan's θ order."""
        return [ExperimentConfig(
            dataset=self.dataset,
            sample_size=self.sample_size,
            algorithm=self.algorithm,
            theta=theta,
            length_threshold=self.length_threshold,
            lookahead=self.lookahead,
            seed=self.seed,
            insertion_candidate_cap=self.insertion_candidate_cap,
            max_steps=self.max_steps,
        ) for theta in self.thetas]


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiment configurations (cartesian product of the axes)."""

    datasets: Sequence[str]
    sample_sizes: Sequence[int]
    algorithms: Sequence[str]
    thetas: Sequence[float]
    length_thresholds: Sequence[int] = (1,)
    lookaheads: Sequence[int] = (1,)
    seed: int = 0
    insertion_candidate_cap: Optional[int] = None
    max_steps: Optional[int] = None

    def configurations(self) -> Iterator[ExperimentConfig]:
        """Iterate over every configuration of the grid (θ varies fastest)."""
        for plan in self.plans():
            yield from plan.configs()

    def plans(self) -> Iterator[SweepPlan]:
        """Iterate over the grid's θ-sweep plans (one per non-θ combination)."""
        axes = product(self.datasets, self.sample_sizes, self.algorithms,
                       self.length_thresholds, self.lookaheads)
        for dataset, size, algorithm, length, lookahead in axes:
            yield SweepPlan(
                dataset=dataset,
                sample_size=size,
                algorithm=algorithm,
                thetas=tuple(self.thetas),
                length_threshold=length,
                lookahead=lookahead,
                seed=self.seed,
                insertion_candidate_cap=self.insertion_candidate_cap,
                max_steps=self.max_steps,
            )

    def __len__(self) -> int:
        return (len(self.datasets) * len(self.sample_sizes) * len(self.algorithms)
                * len(self.thetas) * len(self.length_thresholds) * len(self.lookaheads))
