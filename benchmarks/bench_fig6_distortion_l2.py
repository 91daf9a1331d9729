"""Figure 6(e, f): distortion vs θ at L = 2 (Epinions and Gnutella samples).

Only the paper's own heuristics appear here — the Zhang & Zhang baselines
cannot handle multi-edge linkage.  Expected shape: distortion rises as θ
tightens, and the Removal heuristic achieves lower distortion than
Removal/Insertion for the same threshold.
"""

import pytest

from benchmarks.conftest import print_series, run_once, smoke
from repro.experiments import figure6_series

#: Per-dataset sweep parameters; the sparse samples need tighter thresholds
#: before any modification is required (their baseline opacity is low).
CASES = {
    "epinions": dict(sample_size=smoke(100, 50),
                     thetas=smoke((0.15, 0.1, 0.05), (0.15,))),
    "gnutella": dict(sample_size=smoke(80, 40),
                     thetas=smoke((0.5, 0.3, 0.2), (0.5,))),
}


@pytest.mark.parametrize("dataset", sorted(CASES))
def bench_fig6_l2(benchmark, dataset):
    parameters = CASES[dataset]
    series = run_once(benchmark, figure6_series, dataset, length_threshold=2,
                      sample_size=parameters["sample_size"],
                      thetas=parameters["thetas"], lookaheads=(1, 2),
                      insertion_cap=100, seed=0)
    print_series(f"Figure 6 (L=2) — {dataset}", series, y_label="distortion")

    assert set(series) == {"rem la=1", "rem la=2", "rem-ins la=1", "rem-ins la=2"}
    rem = dict(series["rem la=1"])
    rem_ins = dict(series["rem-ins la=1"])
    thetas = parameters["thetas"]
    # Tightening θ never reduces the required distortion.
    assert rem[thetas[-1]] >= rem[thetas[0]] - 1e-9
    # Removal needs at most the alteration of Removal/Insertion (paper 6.3:
    # "For every L, the Removal heuristic always finds an opaque graph with
    # lower distortion").
    for theta in thetas:
        assert rem[theta] <= rem_ins[theta] + 1e-9
