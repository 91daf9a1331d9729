"""Ablation: the truncated all-pairs-shortest-path engines (Algorithms 2 and 3).

The paper motivates the pointer-based L-pruned Floyd–Warshall (Algorithm 3)
as an improvement over the scan-based L-pruned variant (Algorithm 2); this
bench times both faithful implementations plus the BFS and NumPy engines the
experiments actually use, on the same graph, verifying they agree.

Next to them runs the tiled tier's kernel: sparse CSR frontier expansion
over row blocks (:func:`~repro.graph.distance_store.csr_bounded_rows`).
Each kernel runs on a dense google sample and a sparse gnutella sample of
the same size, so the matmul-versus-CSR-rows crossover shows per group.
"""

from functools import partial

import numpy as np
import pytest

from benchmarks.conftest import smoke
from repro.datasets import load_sample
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_store import CSRAdjacency, csr_bounded_rows

SAMPLE_SIZE = smoke(80, 40)
LENGTH = 2
DATASETS = ("google", "gnutella")
#: Source rows per CSR block, as in the geodesic histogram.
ROW_BLOCK = 64


def csr_row_blocks(graph, length_bound):
    """The bounded matrix assembled from CSR row blocks."""
    csr = CSRAdjacency.from_graph(graph)
    n = graph.num_vertices
    return np.vstack([csr_bounded_rows(csr, np.arange(start,
                                                      min(start + ROW_BLOCK, n)),
                                       length_bound)
                      for start in range(0, n, ROW_BLOCK)])


KERNELS = {**{engine: partial(bounded_distance_matrix, engine=engine)
              for engine in available_engines()},
           "csr-rows": csr_row_blocks}


@pytest.fixture(scope="module")
def ablation_graphs():
    return {name: load_sample(name, SAMPLE_SIZE, seed=0) for name in DATASETS}


@pytest.fixture(scope="module")
def reference_matrices(ablation_graphs):
    return {name: bounded_distance_matrix(graph, LENGTH, engine="floyd-warshall")
            for name, graph in ablation_graphs.items()}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("dataset", DATASETS)
def bench_distance_engine(benchmark, ablation_graphs, reference_matrices,
                          dataset, kernel):
    benchmark.group = f"bounded APSP, {dataset} |V|={SAMPLE_SIZE}, L={LENGTH}"
    result = benchmark(KERNELS[kernel], ablation_graphs[dataset], LENGTH)
    assert np.array_equal(result, reference_matrices[dataset])
