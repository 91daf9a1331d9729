"""Wrappers the benchmark installs around the layers of ``repro``.

Nothing here edits ``src/``: every hook replaces a public function or
method from the outside and restores it afterwards.

* :class:`Patches` swaps attributes and undoes the swaps.  A module-level
  function is replaced in every loaded ``repro`` module that bound it by
  name, so ``from x import f`` call sites see the wrapper too.
* :class:`TileCounters` reads the ``tile_*`` counters off every
  :class:`~repro.graph.distance_store.TiledStore` the workload creates.
  It runs with tracing off as well, because the tiled workload's premise
  (``tile_evictions > 0``) needs it; the workload reports the counts of its
  traced units only.
* :class:`Tracer` records one span per call (id, name, start, end,
  parent) plus a few counts, in memory, in every process of the workload:
  the benchmark itself, fork-inherited pool workers and the ``serve``
  child.  Each process writes its spans to one JSON file when it exits;
  :func:`merge_traces` folds the files into per-layer calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Functions traced per layer: (layer, module, function name).
TRACED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("datasets", "repro.datasets.loaders", "load_sample"),
    ("graph.distance", "repro.graph.distance", "bounded_distance_matrix"),
    ("graph.distance_store", "repro.graph.distance_store", "csr_bounded_rows"),
    ("core.lookahead", "repro.core.lookahead", "search_best_combination"),
    ("api.checkpoints", "repro.api.checkpoints", "checkpoint_to_json"),
)

#: Methods traced per layer: (layer, module, class, method names).
TRACED_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("graph.distance_store", "repro.graph.distance_store", "TiledStore",
     ("rows", "write_rows")),
    ("graph.distance_delta", "repro.graph.distance_delta", "DistanceSession",
     ("preview", "preview_batch", "stage")),
    ("core.opacity_session", "repro.core.opacity_session", "OpacitySession",
     ("evaluate_edit", "evaluate_edits", "apply_edit",
      "violating_pair_indices")),
    ("api.shm", "repro.api.shm", "SharedSampleArena", ("publish",)),
    ("service.store", "repro.service.store", "RunStore",
     ("record_checkpoint", "record_response", "record_result", "find_job",
      "get_result")),
)

#: Span names of every traced call, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(
    [f"{layer}.{name}" for layer, _module, name in TRACED_FUNCTIONS]
    + [f"{layer}.{cls}.{name}" for layer, _module, cls, names in TRACED_METHODS
       for name in names])


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, name: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Wrap ``cls.name`` (plain or class method) with ``make(original)``."""
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            self.set(cls, name, classmethod(make(original.__func__)))
        else:
            self.set(cls, name, make(original))

    def function(self, module: str, name: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Wrap ``module.name`` everywhere a ``repro`` module bound it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class TileCounters:
    """Sums the ``tile_*`` counters of every ``TiledStore`` the run creates.

    Counters are read when a store closes and, for stores still open, when
    :meth:`totals` is asked; each read adds only what changed since the
    previous one.
    """

    FIELDS = ("tile_computes", "tile_loads", "tile_evictions", "tile_spills")

    def __init__(self) -> None:
        self._seen: "weakref.WeakKeyDictionary[Any, Tuple[int, ...]]" = (
            weakref.WeakKeyDictionary())
        self._totals = dict.fromkeys(self.FIELDS, 0)
        self._patches = Patches()

    def install(self) -> "TileCounters":
        from repro.graph.distance_store import TiledStore

        counters = self

        def make_init(original):
            @functools.wraps(original)
            def init(store, *args, **kwargs):
                original(store, *args, **kwargs)
                counters._seen[store] = (0,) * len(counters.FIELDS)
            return init

        def make_close(original):
            @functools.wraps(original)
            def close(store, *args, **kwargs):
                counters._harvest(store)
                return original(store, *args, **kwargs)
            return close

        self._patches.method(TiledStore, "__init__", make_init)
        self._patches.method(TiledStore, "close", make_close)
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def _harvest(self, store: Any) -> None:
        before = self._seen.get(store)
        if before is None:
            return
        now = tuple(getattr(store, field) for field in self.FIELDS)
        for field, old, new in zip(self.FIELDS, before, now):
            self._totals[field] += new - old
        self._seen[store] = now

    def totals(self) -> Dict[str, int]:
        for store in list(self._seen.keys()):
            self._harvest(store)
        return dict(self._totals)


class Tracer:
    """In-memory spans and counts of one process, written out at exit."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.active = False
        self._patches = Patches()
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable[..., Any],
             on_return: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` around each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A module imported while installed keeps the wrapper by name.
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            if on_return is not None:
                on_return(result)
            return result
        return traced

    # ------------------------------------------------------------------
    # layer installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every traced layer function of ``repro`` in this process."""
        for layer, module, name in TRACED_FUNCTIONS:
            span = f"{layer}.{name}"
            if name == "search_best_combination":
                self._patches.function(module, name, self._lookahead_wrapper)
            else:
                self._patches.function(
                    module, name,
                    functools.partial(self.wrap, span))
        hooks = {
            "preview": self._count_preview,
            "preview_batch": self._count_preview_batch,
            "evaluate_edits": self._count_evaluate_edits,
        }
        for layer, module, cls_name, names in TRACED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in names:
                span = f"{layer}.{cls_name}.{name}"
                self._patches.method(
                    cls, name, functools.partial(self.wrap, span,
                                                 on_return=hooks.get(name)))
        # The parent of a pooled grid blocks in Future.result while the
        # workers run; the span total is the pool wait.
        self._patches.method(Future, "result",
                             functools.partial(self.wrap, "api.batch.pool_wait"))
        self.active = True
        return self

    def uninstall(self) -> None:
        self._patches.undo()
        self.active = False

    def _lookahead_wrapper(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Span around ``search_best_combination`` that counts combinations."""
        tracer = self

        def search(candidates, evaluate, current_fraction, lookahead, rng,
                   max_combinations, evaluate_batch=None):
            def counted(combo):
                tracer.count("combos")
                return evaluate(combo)

            counted_batch = None
            if evaluate_batch is not None:
                def counted_batch(combos):
                    tracer.count("combos", len(combos))
                    return evaluate_batch(combos)
            tracer.count("lookahead_steps")
            return original(candidates, counted, current_fraction, lookahead,
                            rng, max_combinations, counted_batch)

        return self.wrap("core.lookahead.search_best_combination",
                         functools.wraps(original)(search))

    def _count_preview(self, delta: Any) -> None:
        self.count("previews")
        self.count("from_scratch", bool(delta.from_scratch))

    def _count_preview_batch(self, deltas: Any) -> None:
        candidates = len(deltas)  # one delta (or None) per candidate
        self.count("preview_batch_candidates", candidates)
        self.count("previews", candidates)
        self.count("from_scratch", sum(1 for delta in deltas
                                       if delta is not None
                                       and delta.from_scratch))

    def _count_evaluate_edits(self, result: Any) -> None:
        self.count("evaluate_edits_candidates", len(result))

    # ------------------------------------------------------------------
    # per-process output
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked pool worker: start empty, write out at worker exit."""
        self._reset()
        if self.active:
            multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this process's spans and counts, then forget them."""
        if not self.spans and not self.counts:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        names = sorted({span[1] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        payload = {
            "pid": os.getpid(),
            "names": names,
            "spans": [[span_id, index[name], start, end, parent]
                      for span_id, name, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}-"
                                          f"{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        self._reset()


def merge_traces(trace_dir: str) -> Tuple[Dict[str, Dict[str, float]],
                                          Dict[str, float], Set[int]]:
    """Fold every span file under ``trace_dir``.

    Returns ``(per-span {"calls", "total_s", "self_s"}, summed counts,
    ids of the processes that wrote spans)``.  A span's self time is its
    duration minus the time its direct child spans (same process) cover.
    """
    table: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    counts: Dict[str, float] = defaultdict(float)
    pids: Set[int] = set()
    if not os.path.isdir(trace_dir):
        return table, dict(counts), pids
    for entry in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
            payload = json.load(handle)
        pids.add(payload["pid"])
        for name, amount in payload["counts"].items():
            counts[name] += amount
        names = payload["names"]
        child_time: Dict[int, float] = defaultdict(float)
        for _span_id, _name, start, end, parent in payload["spans"]:
            if parent:
                child_time[parent] += end - start
        for span_id, name_index, start, end, _parent in payload["spans"]:
            row = table.setdefault(names[name_index],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
    return table, dict(counts), pids
