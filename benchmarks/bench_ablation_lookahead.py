"""Ablation: cost and benefit of the look-ahead parameter.

Look-ahead widens the greedy search space; the paper reports that it lets
Removal/Insertion find solutions (or better solutions) at the price of a
significantly higher runtime, while Removal's runtime is affected only
mildly.  This bench quantifies both effects on one workload.
"""

import pytest

from benchmarks.conftest import run_once, smoke
from repro.core import EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer
from repro.datasets import load_sample

DATASET = "wikipedia"
SAMPLE_SIZE = smoke(40, 25)
THETA = 0.5


@pytest.fixture(scope="module")
def workload():
    return load_sample(DATASET, SAMPLE_SIZE, seed=0)


@pytest.fixture(scope="module")
def evaluations():
    """Evaluation counts per ``(algorithm, lookahead)`` across this module."""
    return {}


def assert_lookahead_premise(evaluations, name, lookahead, result, make, workload):
    """A la=2 run must evaluate more than the la=1 run: its size-2 levels ran.

    The la=1 count comes from that case when it already ran in this session,
    else from one untimed run here.
    """
    evaluations[name, lookahead] = result.evaluations
    if lookahead == 1:
        return
    if (name, 1) not in evaluations:
        evaluations[name, 1] = make(1).anonymize(workload).evaluations
    assert result.evaluations > evaluations[name, 1], (
        f"{name} la={lookahead} made {result.evaluations} evaluations, "
        f"la=1 made {evaluations[name, 1]}: no combination level ran")


def removal(lookahead):
    return EdgeRemovalAnonymizer(length_threshold=1, theta=THETA, seed=0,
                                 lookahead=lookahead)


def removal_insertion(lookahead):
    return EdgeRemovalInsertionAnonymizer(length_threshold=1, theta=THETA, seed=0,
                                          lookahead=lookahead,
                                          insertion_candidate_cap=100)


@pytest.mark.parametrize("lookahead", [1, 2])
def bench_lookahead_removal(benchmark, workload, evaluations, lookahead):
    benchmark.group = f"Edge Removal, {DATASET} |V|={SAMPLE_SIZE}, theta={THETA}"
    result = run_once(benchmark, removal(lookahead).anonymize, workload)
    print(f"\n  removal la={lookahead}: {result.summary()}")
    assert result.success
    assert_lookahead_premise(evaluations, "rem", lookahead, result, removal,
                             workload)


@pytest.mark.parametrize("lookahead", [1, 2])
def bench_lookahead_removal_insertion(benchmark, workload, evaluations, lookahead):
    benchmark.group = f"Edge Removal/Insertion, {DATASET} |V|={SAMPLE_SIZE}, theta={THETA}"
    result = run_once(benchmark, removal_insertion(lookahead).anonymize, workload)
    print(f"\n  removal/insertion la={lookahead}: {result.summary()}")
    assert 0.0 <= result.final_opacity <= 1.0
    assert_lookahead_premise(evaluations, "rem-ins", lookahead, result,
                             removal_insertion, workload)
