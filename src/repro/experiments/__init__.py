"""Experiment harness: per-table/figure series builders and their rendering.

Every table and figure of the paper's Section 6 has a corresponding builder
here (see DESIGN.md §4 for the index); the figure builders declare their
series as service-layer requests and run them as one grid
(:mod:`repro.api.sweeps`).  The ``benchmarks/`` directory wires those
builders into pytest-benchmark targets.
"""

from repro.experiments.tables import table1_rows, table2_rows, table3_rows
from repro.experiments.figures import (
    figure6_series,
    figure6_lsweep_series,
    figure7_series,
    figure8_series,
    figure8_lsweep_series,
    figure9_series,
    figure10_series,
    figure11_series,
    figure12_series,
)
from repro.experiments.charts import render_series_chart
from repro.experiments.reporting import format_series, format_table, records_to_csv

__all__ = [
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "figure6_series",
    "figure6_lsweep_series",
    "figure7_series",
    "figure8_series",
    "figure8_lsweep_series",
    "figure9_series",
    "figure10_series",
    "figure11_series",
    "figure12_series",
    "format_series",
    "format_table",
    "records_to_csv",
    "render_series_chart",
]
