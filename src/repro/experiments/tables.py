"""Reproduction of the paper's Tables 1-3.

Table 1 and Table 2 describe the original SNAP datasets; offline we report
the published numbers side by side with the measured properties of the
synthetic proxies.  Table 3 reports the properties of the sampled graphs the
experiments actually run on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.datasets import load_sample
from repro.datasets.registry import DATASETS
from repro.graph.properties import graph_properties


def table1_rows() -> List[Dict[str, object]]:
    """Table 1: original dataset sizes and domains (published values)."""
    rows = []
    for spec in DATASETS.values():
        rows.append({
            "dataset": spec.name,
            "nodes": spec.nodes,
            "links": spec.links,
            "node_kind": spec.node_kind,
            "link_kind": spec.link_kind,
        })
    return rows


def table2_rows() -> List[Dict[str, object]]:
    """Table 2: original dataset properties (published values)."""
    rows = []
    for spec in DATASETS.values():
        rows.append({
            "dataset": spec.name,
            "diameter": spec.diameter,
            "avg_degree": spec.average_degree,
            "stdd": spec.degree_stddev,
            "acc": spec.clustering,
        })
    return rows


def table3_rows(sample_sizes: Optional[Sequence[int]] = None, seed: int = 42,
                data_dir: Optional[str] = None,
                measure: bool = True) -> List[Dict[str, object]]:
    """Table 3: sampled graph properties — published values and measured proxies.

    For every (dataset, size) pair the paper reports, the row carries the
    published statistics; with ``measure=True`` the same statistics are also
    measured on the graph actually loaded with
    :func:`~repro.datasets.load_sample` (real sample or synthetic proxy).
    """
    rows: List[Dict[str, object]] = []
    for spec in DATASETS.values():
        for size, sample in sorted(spec.samples.items()):
            if sample_sizes is not None and size not in sample_sizes:
                continue
            row: Dict[str, object] = {
                "dataset": spec.name,
                "nodes": size,
                "paper_links": sample.links,
                "paper_diameter": sample.diameter,
                "paper_avg_degree": sample.average_degree,
                "paper_stdd": sample.degree_stddev,
                "paper_acc": sample.clustering,
            }
            if measure:
                graph = load_sample(spec.name, size, data_dir=data_dir,
                                    seed=seed)
                measured = graph_properties(graph)
                row.update({
                    "links": measured.num_edges,
                    "diameter": measured.diameter,
                    "avg_degree": round(measured.average_degree, 2),
                    "stdd": round(measured.degree_stddev, 2),
                    "acc": round(measured.average_clustering, 2),
                })
            rows.append(row)
    return rows
