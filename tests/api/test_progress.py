"""Tests for the progress-observer protocol threaded through the anonymizers."""

import io
import re

import pytest

from repro.api.progress import (
    NULL_OBSERVER,
    CallbackObserver,
    CancellationToken,
    CompositeObserver,
    ConsoleProgressObserver,
    NullObserver,
    ProgressObserver,
    StepLimitObserver,
    TimeoutObserver,
    combine_observers,
)
from repro.baselines import GadedMaxAnonymizer, GadesAnonymizer
from repro.core import EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer
from repro.graph.generators import erdos_renyi_graph


def _hard_graph():
    """A graph that needs several greedy steps at a tight threshold."""
    return erdos_renyi_graph(25, 0.25, seed=5)


class TestObserverImplementations:
    def test_null_observer_satisfies_protocol(self):
        assert isinstance(NULL_OBSERVER, ProgressObserver)
        assert not NULL_OBSERVER.should_stop()

    def test_step_limit_observer_counts_steps(self):
        observer = StepLimitObserver(2)
        assert not observer.should_stop()
        observer.on_step(None, None)
        observer.on_step(None, None)
        assert observer.should_stop()

    def test_timeout_observer_uses_injected_clock(self):
        now = [0.0]
        observer = TimeoutObserver(10.0, clock=lambda: now[0])
        assert not observer.should_stop()
        now[0] = 10.5
        assert observer.should_stop()
        assert observer.elapsed == pytest.approx(10.5)

    def test_timeout_observer_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            TimeoutObserver(0.0)

    def test_cancellation_token(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled and token.should_stop()

    def test_callback_observer_forwards(self):
        seen = {"evals": [], "steps": 0}
        observer = CallbackObserver(
            on_step=lambda step, result: seen.__setitem__("steps", seen["steps"] + 1),
            on_evaluation=seen["evals"].append,
            should_stop=lambda: len(seen["evals"]) >= 3)
        observer.on_evaluation(1)
        observer.on_step(None, None)
        assert seen == {"evals": [1], "steps": 1}
        assert not observer.should_stop()
        observer.on_evaluation(2)
        observer.on_evaluation(3)
        assert observer.should_stop()

    def test_composite_observer_stops_when_any_member_stops(self):
        token = CancellationToken()
        composite = CompositeObserver(NullObserver(), token)
        assert not composite.should_stop()
        token.cancel()
        assert composite.should_stop()

    def test_combine_observers_collapses_nones(self):
        assert combine_observers(None, None) is NULL_OBSERVER
        single = CancellationToken()
        assert combine_observers(None, single) is single
        assert isinstance(combine_observers(single, NullObserver()), CompositeObserver)


class TestObserverThreading:
    def test_step_limit_cancels_after_n_steps(self):
        graph = _hard_graph()
        unlimited = EdgeRemovalAnonymizer(theta=0.3, seed=0).anonymize(graph)
        assert unlimited.num_steps > 2  # the workload genuinely needs steps

        observer = StepLimitObserver(2)
        result = EdgeRemovalAnonymizer(theta=0.3, seed=0).anonymize(
            graph, observer=observer)
        assert result.num_steps == 2
        assert result.stop_reason == "observer"
        assert not result.success

    def test_evaluation_callbacks_match_result_count(self):
        # Without a stop, reports strictly increase (a scored chunk advances
        # the total by its size) from the initial evaluation to the total.
        counts = []
        observer = CallbackObserver(on_evaluation=counts.append)
        result = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize(
            _hard_graph(), observer=observer)
        assert result.num_steps > 0
        assert counts[0] == 1 and counts[-1] == result.evaluations
        assert all(later > earlier for earlier, later in zip(counts, counts[1:]))

    def test_cancellation_is_responsive_within_a_step(self):
        # Cancel during the very first candidate scan: no step completes.
        evals = []

        def stop_after_five():
            return bool(evals) and evals[-1] >= 5

        observer = CallbackObserver(on_evaluation=evals.append,
                                    should_stop=stop_after_five)
        result = EdgeRemovalAnonymizer(theta=0.3, seed=0).anonymize(
            _hard_graph(), observer=observer)
        assert result.num_steps == 0
        assert result.stop_reason == "observer"
        # The stop lands on evaluation 5 exactly; the driver's
        # re-evaluation of the restored graph adds one.
        assert evals[-1] == 5
        assert result.evaluations == 5 + 1
        # The working graph was restored: anonymized == original.
        assert set(result.anonymized_graph.edges()) == set(result.original_graph.edges())

    def test_timeout_observer_stops_the_run(self):
        now = [0.0]

        def clock():
            now[0] += 1.0  # each inspection advances "time" by a second
            return now[0]

        observer = TimeoutObserver(3.0, clock=clock)
        result = EdgeRemovalInsertionAnonymizer(theta=0.3, seed=0).anonymize(
            _hard_graph(), observer=observer)
        assert result.stop_reason == "observer"

    def test_successful_run_has_no_stop_reason(self):
        result = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize(_hard_graph())
        if result.success:
            assert result.stop_reason is None

    def test_max_steps_recorded_as_stop_reason(self):
        result = EdgeRemovalAnonymizer(theta=0.1, seed=0, max_steps=1).anonymize(
            _hard_graph())
        assert result.stop_reason in ("max_steps", "exhausted")

    def test_midstep_stop_reports_opacity_of_returned_graph(self):
        # rem-ins applies its removal before the insertion scan; a stop
        # landing inside that scan must not report the pre-removal opacity.
        from repro.core import DegreePairTyping, OpacityComputer

        graph = _hard_graph()
        for stop_at in (5, 9, 14, 23):
            evals = []
            observer = CallbackObserver(on_evaluation=evals.append,
                                        should_stop=lambda: len(evals) >= stop_at)
            result = EdgeRemovalInsertionAnonymizer(theta=0.2, seed=0).anonymize(
                graph, observer=observer)
            computer = OpacityComputer(DegreePairTyping(graph), 1)
            actual = computer.evaluate(result.anonymized_graph).max_opacity
            assert result.final_opacity == pytest.approx(actual), stop_at

    @pytest.mark.parametrize("factory", [
        lambda: GadedMaxAnonymizer(theta=0.2, seed=0),
        lambda: GadesAnonymizer(theta=0.2, seed=0, swap_sample_size=50),
    ])
    def test_baseline_scans_are_observer_responsive(self, factory):
        # Stop requests must take effect inside a candidate scan, not only
        # at step boundaries (one scan can span thousands of evaluations).
        evals = []
        observer = CallbackObserver(
            on_evaluation=evals.append,
            should_stop=lambda: bool(evals) and evals[-1] >= 3)
        result = factory().anonymize(_hard_graph(), observer=observer)
        # The stop lands on evaluation 3 exactly, inside the first scan;
        # the driver's re-evaluation adds one.
        assert evals[-1] == 3
        assert result.evaluations == 3 + 1
        assert result.stop_reason == "observer"

    @pytest.mark.parametrize("factory", [
        lambda: GadedMaxAnonymizer(theta=0.2, seed=0),
        lambda: GadesAnonymizer(theta=0.2, seed=0, swap_sample_size=50),
    ])
    def test_baselines_honour_cancellation(self, factory):
        token = CancellationToken()
        token.cancel()
        result = factory().anonymize(_hard_graph(), observer=token)
        assert result.num_steps == 0
        if not result.success:
            assert result.stop_reason == "observer"

    def test_console_observer_writes_step_lines(self, capsys):
        import sys

        observer = ConsoleProgressObserver(stream=sys.stdout, evaluation_interval=10)
        EdgeRemovalAnonymizer(theta=0.3, seed=0).anonymize(
            _hard_graph(), observer=observer)
        out = capsys.readouterr().out
        assert "step 1: remove" in out

    @staticmethod
    def _heartbeats(stream):
        return [int(count) for count in re.findall(
            r"\.\.\. (\d+) opacity evaluations", stream.getvalue())]

    def test_console_heartbeat_prints_each_multiple_once(self):
        stream = io.StringIO()
        result = EdgeRemovalAnonymizer(theta=0.3, seed=0, lookahead=2).anonymize(
            _hard_graph(), observer=ConsoleProgressObserver(
                stream=stream, evaluation_interval=7))
        assert self._heartbeats(stream) == list(
            range(7, result.evaluations + 1, 7))

    def test_console_heartbeat_skips_counts_seen_in_a_stop_search(self):
        # A stop inside a scan bisects the chunk, reporting counts below
        # the chunk's total; the heartbeat prints none of them again.
        stream = io.StringIO()
        evals = []
        observer = CompositeObserver(
            ConsoleProgressObserver(stream=stream, evaluation_interval=7),
            CallbackObserver(on_evaluation=evals.append,
                             should_stop=lambda: bool(evals) and evals[-1] >= 40))
        result = EdgeRemovalAnonymizer(theta=0.3, seed=0, lookahead=2).anonymize(
            _hard_graph(), observer=observer)
        assert result.stop_reason == "observer"
        assert any(later < earlier for earlier, later in zip(evals, evals[1:]))
        beats = self._heartbeats(stream)
        assert beats == list(range(7, max(evals) + 1, 7))
        assert len(beats) == len(set(beats))


class TestCheckpointStreaming:
    """Checkpointed θ-schedule passes stream crossings to observers live."""

    def _schedule(self, observer, algorithm_cls=EdgeRemovalAnonymizer, **kwargs):
        graph = _hard_graph()
        return algorithm_cls(theta=0.3, seed=0, **kwargs).anonymize_schedule(
            graph, (0.9, 0.6, 0.3), observer=observer)

    def test_observer_receives_one_checkpoint_per_theta(self):
        seen = []
        self._schedule(CallbackObserver(on_checkpoint=seen.append))
        assert [checkpoint.theta for checkpoint in seen] == [0.9, 0.6, 0.3]

    def test_checkpoints_match_materialized_results(self):
        seen = []
        results = self._schedule(CallbackObserver(on_checkpoint=seen.append))
        for checkpoint, result in zip(seen, results):
            assert checkpoint.theta == result.config.theta
            assert checkpoint.evaluations == result.evaluations
            assert checkpoint.max_opacity == result.final_opacity
            assert len(checkpoint.steps) == result.num_steps

    def test_gades_schedule_streams_checkpoints(self):
        seen = []
        self._schedule(CallbackObserver(on_checkpoint=seen.append),
                       algorithm_cls=GadesAnonymizer, swap_sample_size=30)
        assert [checkpoint.theta for checkpoint in seen] == [0.9, 0.6, 0.3]

    def test_legacy_observer_without_hook_keeps_working(self):
        class Legacy:  # deliberately NOT implementing on_checkpoint
            def __init__(self):
                self.evaluations = 0

            def on_evaluation(self, evaluations):
                self.evaluations = evaluations

            def on_step(self, step, result):
                pass

            def should_stop(self):
                return False

        legacy = Legacy()
        results = self._schedule(legacy)
        assert len(results) == 3
        assert legacy.evaluations > 0

    def test_composite_observer_fans_out_checkpoints(self):
        first, second = [], []
        composite = CompositeObserver(
            CallbackObserver(on_checkpoint=first.append),
            CallbackObserver(on_checkpoint=second.append))
        self._schedule(composite)
        assert len(first) == len(second) == 3

    def test_single_theta_anonymize_emits_final_checkpoint(self):
        seen = []
        EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize(
            _hard_graph(), observer=CallbackObserver(on_checkpoint=seen.append))
        assert [checkpoint.theta for checkpoint in seen] == [0.5]

    def test_early_stop_still_checkpoints_every_grid_point(self):
        seen = []
        observer = CompositeObserver(
            StepLimitObserver(1), CallbackObserver(on_checkpoint=seen.append))
        self._schedule(observer)
        assert [checkpoint.theta for checkpoint in seen] == [0.9, 0.6, 0.3]
        assert seen[-1].stop_reason == "observer" or seen[-1].success

    def test_console_observer_prints_checkpoints(self, capsys):
        import sys

        observer = ConsoleProgressObserver(stream=sys.stderr)
        self._schedule(observer)
        err = capsys.readouterr().err
        assert "theta=0.90 crossed" in err
