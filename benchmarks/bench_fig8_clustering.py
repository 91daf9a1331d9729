"""Figure 8: mean clustering-coefficient difference vs θ.

8(a): Wikipedia sample, L = 1, our heuristics vs the Zhang & Zhang baselines.
8(b): Epinions sample, L = 2 (our heuristics only).
8(c): Epinions, look-ahead 1, varying L.

Expected shape: |ΔCC| grows as θ tightens, and the Removal heuristic changes
the clustering coefficient no more than GADED-Max (the paper's Figure 8a).
"""

from benchmarks.conftest import print_series, run_once, smoke
from repro.experiments import figure8_series
from repro.experiments.figures import figure8_lsweep_series

THETAS = smoke((0.8, 0.6, 0.5), (0.8,))


def bench_fig8a_wikipedia_l1(benchmark):
    series = run_once(benchmark, figure8_series, "wikipedia", length_threshold=1,
                      sample_size=smoke(50, 30), thetas=THETAS, lookaheads=(1, 2),
                      insertion_cap=100, seed=0)
    print_series("Figure 8a — mean |dCC| (Wikipedia, L=1)", series, y_label="dCC")
    rem = dict(series["rem la=1"])
    gaded_max = dict(series["gaded-max"])
    for theta in THETAS:
        assert 0.0 <= rem[theta] <= 1.0
        assert rem[theta] <= gaded_max[theta] + 0.05
    assert rem[THETAS[-1]] >= rem[THETAS[0]] - 1e-9


def bench_fig8b_epinions_l2(benchmark):
    thetas = smoke((0.15, 0.1, 0.05), (0.15,))
    series = run_once(benchmark, figure8_series, "epinions", length_threshold=2,
                      sample_size=smoke(100, 40), thetas=thetas, lookaheads=(1, 2),
                      insertion_cap=100, seed=0)
    print_series("Figure 8b — mean |dCC| (Epinions, L=2)", series, y_label="dCC")
    assert set(series) == {"rem la=1", "rem la=2", "rem-ins la=1", "rem-ins la=2"}
    for points in series.values():
        assert all(0.0 <= value <= 1.0 for _theta, value in points)


def bench_fig8c_epinions_lsweep(benchmark):
    thetas = smoke((0.15, 0.1), (0.15,))
    series = run_once(benchmark, figure8_lsweep_series, "epinions", lengths=(1, 2, 3),
                      sample_size=smoke(100, 40), thetas=thetas, insertion_cap=100,
                      seed=0)
    print_series("Figure 8c — mean |dCC| (Epinions, varying L)", series, y_label="dCC")
    assert set(series) == {f"{algorithm} L={length}"
                           for algorithm in ("rem", "rem-ins") for length in (1, 2, 3)}
