"""Resume bit-parity: a continued schedule pass equals the uninterrupted one."""

import pytest

from repro.api.progress import CheckpointBuffer
from repro.api.registry import default_registry
from repro.datasets import load_sample
from tests.oracles import independent_schedule

THETAS = [0.9, 0.7, 0.5, 0.3]
SPLIT = 2  # interrupt after the first two grid points


def _result_key(result):
    return (result.config.theta, result.final_opacity, tuple(result.steps),
            tuple(sorted(result.removed_edges)),
            tuple(sorted(result.inserted_edges)), result.evaluations,
            result.success, result.stop_reason,
            tuple(sorted(result.anonymized_graph.edges())))


@pytest.fixture(scope="module")
def graph():
    return load_sample("gnutella", 30, seed=0)


@pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
class TestResumeParity:
    def test_resumed_tail_equals_uninterrupted_pass(self, graph, algorithm):
        registry = default_registry()
        full = registry.create(algorithm, theta=THETAS[-1], length_threshold=1,
                               seed=0).anonymize_schedule(graph, THETAS)
        buffer = CheckpointBuffer()
        registry.create(algorithm, theta=THETAS[SPLIT - 1], length_threshold=1,
                        seed=0).anonymize_schedule(graph, THETAS[:SPLIT],
                                                   observer=buffer)
        checkpoint = buffer.records[-1][1]
        resumed = registry.create(
            algorithm, theta=THETAS[-1], length_threshold=1,
            seed=0).anonymize_schedule(graph, THETAS[SPLIT:],
                                       resume_from=checkpoint)
        assert [_result_key(result) for result in resumed] \
            == [_result_key(result) for result in full[SPLIT:]]

    def test_resume_from_every_split_point(self, graph, algorithm):
        registry = default_registry()
        buffer = CheckpointBuffer()
        full = registry.create(algorithm, theta=THETAS[-1], length_threshold=1,
                               seed=0).anonymize_schedule(graph, THETAS,
                                                          observer=buffer)
        # Every checkpoint of the full pass is a valid continuation point.
        for split in range(1, len(THETAS)):
            checkpoint = buffer.records[split - 1][1]
            if checkpoint.stop_reason is not None:
                continue
            resumed = registry.create(
                algorithm, theta=THETAS[-1], length_threshold=1,
                seed=0).anonymize_schedule(graph, THETAS[split:],
                                           resume_from=checkpoint)
            assert [_result_key(result) for result in resumed] \
                == [_result_key(result) for result in full[split:]], split

    def test_runtime_keeps_accumulating(self, graph, algorithm):
        registry = default_registry()
        buffer = CheckpointBuffer()
        registry.create(algorithm, theta=THETAS[SPLIT - 1], length_threshold=1,
                        seed=0).anonymize_schedule(graph, THETAS[:SPLIT],
                                                   observer=buffer)
        checkpoint = buffer.records[-1][1]
        resumed = registry.create(
            algorithm, theta=THETAS[-1], length_threshold=1,
            seed=0).anonymize_schedule(graph, THETAS[SPLIT:],
                                       resume_from=checkpoint)
        # The resumed pass's clock starts where the checkpoint left off, so
        # per-θ runtimes stay comparable to the uninterrupted pass.
        assert all(result.runtime_seconds >= checkpoint.runtime_seconds
                   for result in resumed)


class TestResumeValidation:
    def test_checkpoint_without_rng_state_rejected(self, graph):
        from dataclasses import replace

        from repro.errors import ConfigurationError

        registry = default_registry()
        buffer = CheckpointBuffer()
        registry.create("rem", theta=0.7, length_threshold=1,
                        seed=0).anonymize_schedule(graph, [0.9, 0.7],
                                                   observer=buffer)
        stripped = replace(buffer.records[-1][1], rng_state=None)
        with pytest.raises(ConfigurationError, match="RNG"):
            registry.create("rem", theta=0.5, length_threshold=1,
                            seed=0).anonymize_schedule(graph, [0.5],
                                                       resume_from=stripped)

    def test_independent_mode_ignores_resume(self, graph):
        # A resumed tail equals cold per-θ runs of the tail's grid points,
        # which never see the checkpoint.
        registry = default_registry()
        buffer = CheckpointBuffer()
        registry.create("rem", theta=0.7, length_threshold=1,
                        seed=0).anonymize_schedule(graph, [0.9, 0.7],
                                                   observer=buffer)
        checkpoint = buffer.records[-1][1]
        full = registry.create("rem", theta=0.5, length_threshold=1, seed=0)
        resumed = full.anonymize_schedule(graph, [0.5, 0.3],
                                          resume_from=checkpoint)
        independent = independent_schedule(full, graph, [0.5, 0.3])
        reference = full.anonymize_schedule(graph, [0.9, 0.7, 0.5, 0.3])
        assert [_result_key(result) for result in resumed] \
            == [_result_key(result) for result in independent] \
            == [_result_key(result) for result in reference[2:]]


class TestGadesResume:
    """GADES runs on the shared checkpointed loop, so it resumes too."""

    GRID = [0.7, 0.65, 0.55, 0.4]  # crossed after steps 2, 3, 4; 0.4 never

    @pytest.fixture(scope="class")
    def swap_graph(self):
        from repro.graph.generators import erdos_renyi_graph

        return erdos_renyi_graph(25, 0.2, seed=0)

    def _gades(self, theta):
        return default_registry().create("gades", theta=theta, seed=0,
                                         swap_sample_size=200)

    def test_resumed_tail_equals_uninterrupted_pass(self, swap_graph):
        from dataclasses import replace

        full = self._gades(self.GRID[-1]).anonymize_schedule(swap_graph,
                                                             self.GRID)
        buffer = CheckpointBuffer()
        self._gades(self.GRID[SPLIT - 1]).anonymize_schedule(
            swap_graph, self.GRID[:SPLIT], observer=buffer)
        checkpoint = buffer.records[-1][1]
        # Premise: the split lies mid-pass, with steps on both sides.
        assert checkpoint.stop_reason is None
        assert 0 < checkpoint.num_steps < full[-1].num_steps
        resumed = self._gades(self.GRID[-1]).anonymize_schedule(
            swap_graph, self.GRID[SPLIT:], resume_from=checkpoint)
        assert [replace(result, runtime_seconds=0.0) for result in resumed] \
            == [replace(result, runtime_seconds=0.0)
                for result in full[SPLIT:]]
