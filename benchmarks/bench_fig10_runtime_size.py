"""Figure 10: runtime of Rem and Rem-Ins for growing Gnutella samples, L in {1, 2}.

Expected shape: runtime grows with graph size and with L, and the Removal
algorithm is faster than Removal/Insertion (whose insertion phase scans
absent edges, a larger candidate set than the existing edges).
"""

from benchmarks.conftest import run_once, smoke
from repro.experiments import figure10_series

SIZES = smoke((40, 60, 80), (40,))


def bench_fig10_gnutella_runtime(benchmark):
    series = run_once(benchmark, figure10_series, "gnutella", sample_sizes=SIZES,
                      lengths=(1, 2), theta=0.2, seed=0, insertion_cap=100)
    print("\n== Figure 10 — runtime (s) vs size, Gnutella, theta=0.2 ==")
    for label, points in series.items():
        rendered = ", ".join(f"|V|={size}: {seconds:.3f}s" for size, seconds in points)
        print(f"  {label:<14} {rendered}")

    assert set(series) == {"rem L=1", "rem L=2", "rem-ins L=1", "rem-ins L=2"}
    # Removal is not slower than Removal/Insertion on the largest size, for
    # both values of L (paper Section 6.6).
    for length in (1, 2):
        rem_largest = dict(series[f"rem L={length}"])[SIZES[-1]]
        rem_ins_largest = dict(series[f"rem-ins L={length}"])[SIZES[-1]]
        assert rem_largest <= rem_ins_largest + 0.25
