"""Figure 12: Edge Removal distortion vs graph size for several θ (ACM proxy).

The paper's headline scaling observation: as the published graph grows, the
*same* privacy level is achievable with a *smaller* relative distortion, so
publishing large L-opaque graphs becomes increasingly attractive.
"""

from benchmarks.conftest import run_once, smoke
from repro.experiments import figure12_series

SIZES = smoke((50, 100, 150, 200), (50,))
THETAS = smoke((0.9, 0.7, 0.5), (0.9,))


def bench_fig12_acm_distortion(benchmark):
    result = run_once(benchmark, figure12_series, sample_sizes=SIZES, thetas=THETAS,
                      seed=0)
    print("\n== Figure 12 — Edge Removal distortion vs size, ACM proxy ==")
    for theta, points in sorted(result.items(), reverse=True):
        rendered = ", ".join(f"|V|={size}: {distortion:.4f}"
                             for size, distortion in points)
        print(f"  theta={theta:<4} {rendered}")

    assert set(result) == set(THETAS)
    for theta, points in result.items():
        values = dict(points)
        # Distortion stays a sane ratio everywhere.
        assert all(0.0 <= value <= 1.0 for value in values.values())
        # The paper's trend: relative distortion does not grow with size; on
        # the largest size it is at most what the smallest size required.
        assert values[SIZES[-1]] <= values[SIZES[0]] + 0.02
    # Tighter θ never needs less distortion at a fixed size.
    tight = dict(result[min(THETAS)])
    loose = dict(result[max(THETAS)])
    for size in SIZES:
        assert tight[size] >= loose[size] - 1e-9
