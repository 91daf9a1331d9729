"""Figure 11: Edge Removal runtime vs graph size for several θ (ACM proxy).

The paper scales the ACM co-authorship crawl from 1,000 to 10,000 nodes
(multi-day runs); the proxy grid here is laptop-scale but exercises the same
sweep.  Expected shape: runtime grows with graph size and with decreasing θ.
"""

from benchmarks.conftest import run_once, smoke
from repro.experiments import figure11_series

SIZES = smoke((50, 100, 150), (50,))
THETAS = smoke((0.9, 0.7, 0.5), (0.9,))


def bench_fig11_acm_runtime(benchmark):
    result = run_once(benchmark, figure11_series, sample_sizes=SIZES, thetas=THETAS,
                      seed=0)
    print("\n== Figure 11 — Edge Removal runtime (s) vs size, ACM proxy ==")
    for theta, points in sorted(result.items(), reverse=True):
        rendered = ", ".join(f"|V|={size}: {seconds:.3f}s" for size, seconds in points)
        print(f"  theta={theta:<4} {rendered}")

    assert set(result) == set(THETAS)
    # More vertices means at least as much total work for the tightest θ.
    tight = dict(result[min(THETAS)])
    assert tight[SIZES[-1]] >= tight[SIZES[0]] - 0.05
    # Tightening θ cannot reduce the work at the largest size.
    loose = dict(result[max(THETAS)])
    assert tight[SIZES[-1]] >= loose[SIZES[-1]] - 0.05
