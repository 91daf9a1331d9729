"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure of the paper
(see DESIGN.md §4 for the index).  Each benchmark runs its experiment once
(``rounds=1``) — the quantities of interest are the experiment's *outputs*
(distortion, EMD, runtime series), not microsecond-level timing stability —
and prints the regenerated rows/series so they can be compared with the
paper (run pytest with ``-s`` to see them).
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence, Tuple, TypeVar

T = TypeVar("T")


def smoke(full: T, small: T) -> T:
    """Pick the smoke-sized variant of a workload knob under CI.

    The CI benchmark job sets ``REPRO_BENCH_SMOKE=1`` and runs every bench
    at its smallest size — enough to catch rotted imports, renamed builder
    keyword arguments, and broken assertions without paying for the full
    grids.  Locally (unset) the full workload runs.
    """
    return small if os.environ.get("REPRO_BENCH_SMOKE") else full


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_series(title: str, series: Mapping[str, Sequence[Tuple[float, float]]],
                 x_label: str = "theta", y_label: str = "value") -> None:
    """Print a figure's series in the same layout the paper plots."""
    print(f"\n== {title} ==")
    for label, points in series.items():
        rendered = ", ".join(f"{x_label}={x:g}: {y_label}={y:.4f}" for x, y in points)
        print(f"  {label:<16} {rendered}")
