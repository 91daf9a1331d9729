"""Differential tests of the grid executor's routes.

Every combination of in-process vs pooled execution, shared-memory plane
on vs off, ``on_error`` policy and sample count must produce the same
responses, report integer work counters, actually use its pool, and
abort a ``fail_fast`` grid without leaking ``/dev/shm`` segments.
"""

import errno
import glob
import resource
import sys

import pytest

from repro.api import AnonymizationRequest, GridRequest, run_grid
from repro.api.shm import SHM_NAME_PREFIX, SharedSampleArena
from repro.errors import GridAbortedError
from tests.oracles import independent_responses

BASE = AnonymizationRequest(dataset="gnutella", sample_size=24, seed=0)
WORKERS = 2

#: Every response field but runtime, which reflects the execution route.
PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason",
                 "metrics", "error")

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="/dev/shm scanning is Linux-specific")


def leaked_segments():
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def assert_parity(responses, references):
    assert len(responses) == len(references)
    for response, reference in zip(responses, references):
        for field in PARITY_FIELDS:
            assert getattr(response, field) == getattr(reference, field), field


def route_grid(num_samples, on_error):
    return GridRequest.from_axes(BASE, algorithms=("rem", "rem-ins"),
                                 length_thresholds=(1, 2),
                                 seeds=tuple(range(num_samples)),
                                 thetas=(0.8, 0.6), on_error=on_error)


_REFERENCES = {}


def references_for(num_samples):
    if num_samples not in _REFERENCES:
        _REFERENCES[num_samples] = independent_responses(
            route_grid(num_samples, "isolate").requests)
    return _REFERENCES[num_samples]


@linux_only
@pytest.mark.parametrize("num_samples", (1, 2))
@pytest.mark.parametrize("on_error", ("isolate", "fail_fast"))
@pytest.mark.parametrize("shared_memory", (True, False))
@pytest.mark.parametrize("max_workers", (0, WORKERS))
def test_every_route_agrees(max_workers, shared_memory, on_error,
                            num_samples):
    grid = route_grid(num_samples, on_error)
    before = leaked_segments()
    cpu = children_cpu()
    response = run_grid(grid, max_workers=max_workers,
                        shared_memory=shared_memory)
    worker_cpu = children_cpu() - cpu
    assert_parity(response.responses, references_for(num_samples))
    assert isinstance(response.num_sample_loads, int)
    assert isinstance(response.num_distance_computes, int)
    if max_workers == 0 or shared_memory:
        assert response.num_sample_loads == num_samples
        assert response.num_distance_computes == num_samples
    else:
        # Workers prepare their own samples: at least one load and one
        # computation per sample, at most one per worker.
        for counter in (response.num_sample_loads,
                        response.num_distance_computes):
            assert num_samples <= counter <= num_samples * WORKERS
    if max_workers and len(grid.groups()) > 1:
        assert worker_cpu > 0, "the pooled route ran in-process"
    if on_error == "fail_fast":
        requests = list(grid.requests)
        requests.insert(1, BASE.with_overrides(algorithm="no-such-algo",
                                               theta=0.8))
        with pytest.raises(GridAbortedError, match="fail_fast"):
            run_grid(GridRequest(requests=tuple(requests),
                                 on_error="fail_fast"),
                     max_workers=max_workers, shared_memory=shared_memory)
    assert leaked_segments() == before


class TestArenaPublishFailure:
    """A failed arena publish obeys ``on_error`` like any prepare failure."""

    GRID = GridRequest.from_axes(BASE, seeds=(0, 1), length_thresholds=(1, 2),
                                 thetas=(0.8, 0.6))

    @pytest.fixture
    def full_dev_shm(self, monkeypatch):
        """Make the first publish fail as a full ``/dev/shm`` would."""
        real = SharedSampleArena.publish
        calls = []

        def publish(cls, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(SharedSampleArena, "publish",
                            classmethod(publish))

    @linux_only
    def test_isolate_fails_only_the_unpublished_sample(self, full_dev_shm):
        before = leaked_segments()
        response = run_grid(self.GRID, max_workers=WORKERS)
        serial = run_grid(self.GRID, max_workers=0)
        first, second = self.GRID.sample_groups()
        for index in first:
            assert response.responses[index].error.startswith("OSError")
        assert_parity([response.responses[index] for index in second],
                      [serial.responses[index] for index in second])
        assert leaked_segments() == before

    @linux_only
    def test_fail_fast_aborts_the_grid(self, full_dev_shm):
        before = leaked_segments()
        grid = GridRequest(requests=self.GRID.requests, on_error="fail_fast")
        with pytest.raises(GridAbortedError, match="arena publish"):
            run_grid(grid, max_workers=WORKERS)
        assert leaked_segments() == before


#: Scale fields per tier; "over-budget" is an explicit dense request whose
#: matrix does not fit, so its memory guard fails its own grid points.
TIERS = {"dense": dict(scale_tier="dense", scale_budget_bytes=4096),
         "tiled": dict(scale_tier="tiled", scale_budget_bytes=4096),
         "over-budget": dict(scale_tier="dense", scale_budget_bytes=64)}


@pytest.mark.parametrize("first_tier", tuple(TIERS))
@pytest.mark.parametrize("max_workers,shared_memory",
                         ((0, None), (WORKERS, True), (WORKERS, False)))
def test_mixed_tier_sample_group_on_every_route(first_tier, max_workers,
                                                shared_memory):
    # One sample group whose θ-groups ask for different scale tiers gets
    # one dense L_max base, for its first runnable request that resolves
    # to the dense tier; the dense requests are served from it, each tiled
    # session computes its own tiles, and every request fires its own
    # memory guard.  Tiers are result-neutral, so each route matches the
    # independent runs, failures included.
    tiers = (first_tier,) + tuple(tier for tier in TIERS if tier != first_tier)
    grid = GridRequest(requests=tuple(
        BASE.with_overrides(**TIERS[tier], length_threshold=length,
                            theta=theta)
        for tier in tiers for length in (2, 3) for theta in (0.8, 0.6)))
    references = independent_responses(grid.requests)
    assert [reference.error is not None for reference in references] \
        == [tier == "over-budget" for tier in tiers for _ in range(4)]
    response = run_grid(grid, max_workers=max_workers,
                        shared_memory=shared_memory)
    assert_parity(response.responses, references)
    if max_workers == 0 or shared_memory:
        # One dense base, whichever tier comes first: the parent computes
        # it (and publishes it to the workers, who adopt it); tiles are
        # computed by the sessions, outside the counter.
        assert response.num_sample_loads == 1
        assert response.num_distance_computes == 1


@pytest.mark.parametrize("shared_memory", (True, False))
def test_pooled_routes_resume_from_checkpoints(shared_memory):
    # Checkpoints of the first two θs (as an interrupted in-process run
    # persists them): the pooled routes materialize those grid points and
    # continue each pass from its lowest-θ checkpoint, bit-identically.
    from repro.api import BatchRunner, CheckpointBuffer

    grid = GridRequest.from_axes(BASE, length_thresholds=(1, 2),
                                 thetas=(0.9, 0.7, 0.5))
    buffer = CheckpointBuffer()
    serial = list(BatchRunner(max_workers=0).iter_grid(grid, observer=buffer))
    resume = {index: checkpoint
              for indices, checkpoint in buffer.records
              if checkpoint.theta > 0.6 for index in indices
              if grid.requests[index].theta == checkpoint.theta}
    assert len(resume) == 4
    pooled = list(BatchRunner(max_workers=WORKERS,
                              shared_memory=shared_memory).iter_grid(
        grid, resume_from=resume))
    assert [indices for indices, _ in pooled] \
        == [indices for indices, _ in serial]
    assert_parity(pooled[0][1], serial[0][1])
