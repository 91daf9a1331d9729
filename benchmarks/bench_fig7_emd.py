"""Figure 7: Earth Mover's Distance of the degree (7a) and geodesic (7b)
distributions vs θ, Enron sample, L = 1.

Expected shape: both EMD measures grow as θ tightens; for moderate θ the
Removal/Insertion heuristic preserves the degree distribution better than
pure Removal (it keeps the edge count constant); the Zhang & Zhang baselines
alter the distributions at least as much as our heuristics.
"""

from benchmarks.conftest import print_series, run_once, smoke
from repro.experiments import figure7_series

SAMPLE_SIZE = smoke(50, 30)
THETAS = smoke((0.8, 0.6, 0.5), (0.8,))


def bench_fig7_enron_emd(benchmark):
    result = run_once(benchmark, figure7_series, "enron", sample_size=SAMPLE_SIZE,
                      thetas=THETAS, lookaheads=(1, 2), insertion_cap=100, seed=0,
                      include_baselines=True)
    print_series("Figure 7a — EMD of degree distributions (Enron, L=1)",
                 result["degree_emd"], y_label="emd")
    print_series("Figure 7b — EMD of geodesic distributions (Enron, L=1)",
                 result["geodesic_emd"], y_label="emd")

    degree = result["degree_emd"]
    geodesic = result["geodesic_emd"]
    assert set(degree) == set(geodesic)
    for series in (degree, geodesic):
        for label, points in series.items():
            # EMD is a non-negative quantity for every heuristic and θ.
            assert all(value >= 0 for _theta, value in points)
    # The Removal heuristic only deletes edges, so its degree-distribution
    # alteration (weakly) grows as θ tightens; the paper notes that
    # Removal/Insertion may fluctuate, so no monotonicity is asserted for it.
    rem_degree = dict(degree["rem la=1"])
    assert rem_degree[THETAS[-1]] >= rem_degree[THETAS[0]] - 1e-9
    # Figure 7b's claim: insertion compensates some of the geodesics destroyed
    # by removal, so Removal/Insertion alters the geodesic distribution less
    # than pure Removal at moderate thresholds.
    rem_geodesic = dict(geodesic["rem la=1"])
    rem_ins_geodesic = dict(geodesic["rem-ins la=1"])
    assert rem_ins_geodesic[THETAS[0]] <= rem_geodesic[THETAS[0]] + 0.01
    # The look-ahead variants alter the distributions no more than their
    # la=1 counterparts plus a small tolerance (they explore a superset of moves).
    rem_ins_la2 = dict(degree["rem-ins la=2"])
    rem_ins_la1 = dict(degree["rem-ins la=1"])
    assert rem_ins_la2[THETAS[-1]] <= rem_ins_la1[THETAS[-1]] + 0.05
