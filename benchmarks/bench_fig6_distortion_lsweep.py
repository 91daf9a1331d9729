"""Figure 6(g, h): distortion vs θ while varying L from 1 to 4 (la = 1).

Expected shape: larger L requires more modification for the same θ (more
pairs fall within the sensitive distance), and the effect is milder on the
sparser network (Epinions sample) than on Gnutella, as the paper notes.
"""

import pytest

from benchmarks.conftest import print_series, run_once, smoke
from repro.experiments import figure6_lsweep_series

CASES = {
    # The Epinions sample is very sparse, so modification is only needed at
    # tight thresholds; Gnutella already violates looser ones.
    "epinions": dict(sample_size=smoke(100, 50), thetas=smoke((0.15, 0.1), (0.15,))),
    "gnutella": dict(sample_size=smoke(60, 30), thetas=smoke((0.3, 0.2), (0.3,))),
}
LENGTHS = (1, 2, 3)


@pytest.mark.parametrize("dataset", sorted(CASES))
def bench_fig6_lsweep(benchmark, dataset):
    parameters = CASES[dataset]
    series = run_once(benchmark, figure6_lsweep_series, dataset, lengths=LENGTHS,
                      sample_size=parameters["sample_size"],
                      thetas=parameters["thetas"], insertion_cap=100, seed=0)
    print_series(f"Figure 6 (L sweep) — {dataset}", series, y_label="distortion")

    tightest = parameters["thetas"][-1]
    removal_by_length = {length: dict(series[f"rem L={length}"])[tightest]
                         for length in LENGTHS}
    # A longer sensitive path length can only add privacy constraints, so
    # the *minimum* distortion is non-decreasing in L.  The greedy's
    # achieved distortion tracks that trend but is not pointwise monotone
    # (a step at a looser L can overshoot), so only the endpoints are
    # compared: L=1 must not need more modification than the largest L.
    assert removal_by_length[1] <= removal_by_length[LENGTHS[-1]] + 1e-9
    assert all(0.0 <= value <= 1.0 for value in removal_by_length.values())
    for length in LENGTHS:
        rem = dict(series[f"rem L={length}"])
        rem_ins = dict(series[f"rem-ins L={length}"])
        for theta in parameters["thetas"]:
            assert rem[theta] <= rem_ins[theta] + 1e-9
