"""Progress instrumentation for long-running anonymization loops.

Every anonymizer's ``anonymize()`` accepts an optional observer implementing
the :class:`ProgressObserver` protocol:

* ``on_evaluation(evaluations)`` — called with the running total of
  opacity evaluations (the unit of work that dominates runtime): once
  after each scored chunk of a candidate scan, so the total may advance
  by more than one, and once after each evaluation the driver makes
  itself (the initial graph, each applied step);
* ``on_step(step, result)`` — called after each applied greedy step;
* ``on_checkpoint(checkpoint)`` — called when a checkpointed θ-schedule
  pass crosses a grid point (an ``AnonymizationCheckpoint``), so long
  sweeps report per-θ progress live instead of only at materialization;
* ``should_stop()`` — polled after each report and between steps; return
  ``True`` to stop the run early (the anonymizer then returns a
  best-effort result with ``stop_reason="observer"``).

A stop requested after a chunk's report lands on an exact evaluation: the
driver bisects the chunk, reporting lower counts and polling again, until
it finds the first count at which the observer stops, and leaves that
count as the last report.  An observer that stops on a count, deciding
from the last count reported, therefore stops at the same evaluation as
if every evaluation were reported.  During that search the driver may
report counts lower than one it already reported, so observers that
print or accumulate per evaluation act only on counts above the highest
they have seen.

``on_checkpoint`` is dispatched with a ``getattr`` guard, so observers
written before the hook existed (without the method) keep working.

Concrete observers cover the common cases: wall-clock timeouts
(:class:`TimeoutObserver`), cooperative cancellation
(:class:`CancellationToken`), step budgets (:class:`StepLimitObserver`),
live console reporting (:class:`ConsoleProgressObserver`), and composition
(:class:`CompositeObserver`).  This module must stay dependency-light — it
is imported by :mod:`repro.core.anonymizer`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, List, Optional, Protocol, TextIO, runtime_checkable


@runtime_checkable
class ProgressObserver(Protocol):
    """Callbacks threaded through the greedy anonymization loops."""

    def on_evaluation(self, evaluations: int) -> None:
        """Evaluations so far this run; may advance by more than one.

        A stop search may report a count below one already reported
        (module docstring).
        """

    def on_step(self, step: Any, result: Any) -> None:
        """One greedy step was applied (``step`` is an ``AnonymizationStep``)."""

    def should_stop(self) -> bool:
        """Return ``True`` to stop the run at the next safe point.

        Polled after every ``on_evaluation`` report; a count-based observer
        decides from the last count reported.
        """

    # ``on_checkpoint(checkpoint)`` is an *optional* fourth callback — it is
    # deliberately left off the Protocol so pre-hook observers still satisfy
    # ``isinstance(obs, ProgressObserver)``; dispatch goes through
    # :func:`notify_checkpoint`, which getattr-guards the lookup.


def notify_checkpoint(observer: Any, checkpoint: Any) -> None:
    """Dispatch ``on_checkpoint`` if the observer implements it.

    The hook postdates the observer protocol, so third-party observers may
    lack the method; the guard keeps them working unchanged.
    """
    hook = getattr(observer, "on_checkpoint", None)
    if hook is not None:
        hook(checkpoint)


def notify_group(observer: Any, indices: Any) -> None:
    """Dispatch ``on_group(indices)`` if the observer implements it.

    Grid executors call it right before running a θ-group (or a single
    independent request) with the indices of the requests about to run, so
    checkpoint-collecting observers can attribute the ``on_checkpoint``
    stream that follows.  Same getattr-guard contract as
    :func:`notify_checkpoint`.
    """
    hook = getattr(observer, "on_group", None)
    if hook is not None:
        hook(tuple(indices))


class AnonymizationStopped(Exception):
    """Raised inside a greedy step when the observer requests a stop.

    The anonymizers catch it at the step boundary (with the working graph
    already restored to a consistent state) and return a best-effort
    result; it never escapes ``anonymize()``.
    """


class NullObserver:
    """The no-op observer used when none is supplied."""

    def on_evaluation(self, evaluations: int) -> None:
        pass

    def on_step(self, step: Any, result: Any) -> None:
        pass

    def on_checkpoint(self, checkpoint: Any) -> None:
        pass

    def on_group(self, indices: Any) -> None:
        pass

    def should_stop(self) -> bool:
        return False


#: Shared no-op instance (observers are stateless unless documented).
NULL_OBSERVER = NullObserver()


class StepLimitObserver(NullObserver):
    """Stop after ``max_steps`` applied greedy steps."""

    def __init__(self, max_steps: int) -> None:
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        self._max_steps = max_steps
        self.steps_seen = 0

    def on_step(self, step: Any, result: Any) -> None:
        self.steps_seen += 1

    def should_stop(self) -> bool:
        return self.steps_seen >= self._max_steps


class TimeoutObserver(NullObserver):
    """Stop once ``limit_seconds`` of wall-clock time have elapsed.

    The clock starts at construction, so build the observer right before
    calling ``anonymize()`` (the facade does exactly that when a request
    carries ``timeout_seconds``).
    """

    def __init__(self, limit_seconds: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if limit_seconds <= 0:
            raise ValueError(f"limit_seconds must be > 0, got {limit_seconds}")
        self._limit = limit_seconds
        self._clock = clock
        self._started = clock()

    @property
    def elapsed(self) -> float:
        """Seconds elapsed since construction."""
        return self._clock() - self._started

    def should_stop(self) -> bool:
        return self.elapsed >= self._limit


class CancellationToken(NullObserver):
    """Cooperative cancellation flag, safe to set from another thread."""

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request the run to stop at the next safe point."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def should_stop(self) -> bool:
        return self._cancelled


class ConsoleProgressObserver(NullObserver):
    """Print one line per applied step (and a heartbeat while evaluating).

    The heartbeat prints one line for each multiple of
    ``evaluation_interval`` that a report crosses; a report at or below
    the highest count seen so far prints nothing.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 evaluation_interval: int = 0) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._interval = evaluation_interval
        self._seen = 0

    def on_evaluation(self, evaluations: int) -> None:
        if self._interval:
            for multiple in range(self._seen // self._interval + 1,
                                  evaluations // self._interval + 1):
                print(f"  ... {multiple * self._interval} opacity evaluations",
                      file=self._stream)
        self._seen = max(self._seen, evaluations)

    def on_step(self, step: Any, result: Any) -> None:
        edges = ",".join(f"{u}-{v}" for u, v in step.edges)
        print(f"step {step.index + 1}: {step.operation} {edges} "
              f"-> max opacity {step.max_opacity_after:.3f}", file=self._stream)

    def on_checkpoint(self, checkpoint: Any) -> None:
        print(f"theta={checkpoint.theta:.2f} crossed after "
              f"{checkpoint.num_steps} step(s): opacity="
              f"{checkpoint.max_opacity:.3f} t={checkpoint.runtime_seconds:.2f}s",
              file=self._stream)


class CallbackObserver(NullObserver):
    """Adapter building an observer from plain callables."""

    def __init__(self,
                 on_step: Optional[Callable[[Any, Any], None]] = None,
                 on_evaluation: Optional[Callable[[int], None]] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 on_checkpoint: Optional[Callable[[Any], None]] = None) -> None:
        self._on_step = on_step
        self._on_evaluation = on_evaluation
        self._should_stop = should_stop
        self._on_checkpoint = on_checkpoint

    def on_evaluation(self, evaluations: int) -> None:
        if self._on_evaluation is not None:
            self._on_evaluation(evaluations)

    def on_step(self, step: Any, result: Any) -> None:
        if self._on_step is not None:
            self._on_step(step, result)

    def on_checkpoint(self, checkpoint: Any) -> None:
        if self._on_checkpoint is not None:
            self._on_checkpoint(checkpoint)

    def should_stop(self) -> bool:
        return self._should_stop() if self._should_stop is not None else False


class CheckpointBuffer(NullObserver):
    """Collect the ``(group indices, checkpoint)`` stream of a grid run.

    Executors announce each θ-group via ``on_group`` just before running
    it; the checkpoints that follow belong to that group.  The buffer
    records every pair (thread-safe — the batch pool may drive several
    sample groups concurrently only in worker processes, but the in-process
    path shares one observer across groups) and optionally forwards each
    pair to a ``sink(indices, checkpoint)`` callback, which is how the
    service layer streams checkpoints into the run store as they happen.
    """

    def __init__(self, sink: Optional[Callable[[Any, Any], None]] = None) -> None:
        self._lock = threading.Lock()
        self._indices: Any = ()
        self._sink = sink
        self.records: List[Any] = []

    def on_group(self, indices: Any) -> None:
        with self._lock:
            self._indices = tuple(indices)

    def on_checkpoint(self, checkpoint: Any) -> None:
        with self._lock:
            indices = self._indices
            self.records.append((indices, checkpoint))
        if self._sink is not None:
            self._sink(indices, checkpoint)

    @property
    def latest(self) -> Optional[Any]:
        """The most recent ``(indices, checkpoint)`` pair, if any."""
        with self._lock:
            return self.records[-1] if self.records else None


class CompositeObserver:
    """Fan out to several observers; stops when any one asks to stop."""

    def __init__(self, *observers: ProgressObserver) -> None:
        self._observers: List[ProgressObserver] = [obs for obs in observers
                                                   if obs is not None]

    def on_evaluation(self, evaluations: int) -> None:
        for obs in self._observers:
            obs.on_evaluation(evaluations)

    def on_step(self, step: Any, result: Any) -> None:
        for obs in self._observers:
            obs.on_step(step, result)

    def on_checkpoint(self, checkpoint: Any) -> None:
        for obs in self._observers:
            notify_checkpoint(obs, checkpoint)

    def on_group(self, indices: Any) -> None:
        for obs in self._observers:
            notify_group(obs, indices)

    def should_stop(self) -> bool:
        return any(obs.should_stop() for obs in self._observers)


def combine_observers(*observers: Optional[ProgressObserver]) -> ProgressObserver:
    """Collapse optional observers into one (``NULL_OBSERVER`` when empty)."""
    present = [obs for obs in observers if obs is not None]
    if not present:
        return NULL_OBSERVER
    if len(present) == 1:
        return present[0]
    return CompositeObserver(*present)
