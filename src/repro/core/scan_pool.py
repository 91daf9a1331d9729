"""Persistent worker pool sharding one candidate scan across forked copies.

A ``scan_workers`` count of 2 or more splits each L >= 3 candidate scan of a
greedy step across a pool of that many worker processes.  The pool starts
by forking the parent mid-run: each worker inherits the parent's
:class:`~repro.core.opacity_session.OpacitySession` — working graph,
distance store, count arrays — as it stands, and from then on answers
``("scan", endpoints, members, gained)`` requests with its shard's
per-candidate count changes: int64 ``(candidate, type, delta)`` triples,
candidates numbered from 0 within the shard.  A shard is a row slice of
a batch the parent has checked, as arrays: its cells, live members (-1
elsewhere) and insertion flags.  Follow-up
``("apply", ...)`` messages keep every worker's session in lock-step with
the parent's applied edits.  Nothing is published, attached, rebuilt or
recounted, and only candidate arrays, edits and change triples cross the
pipes.

On the dense tier a worker scans with the inherited session as it is: its
matrix is a copy-on-write image of the parent's.  On the tiled tier the
worker first swaps in a fresh, private
:class:`~repro.graph.distance_store.TiledStore` over the current graph with
the same tile geometry, whose tiles it computes lazily
(:meth:`~repro.core.opacity_session.OpacitySession.privatize_store`).  The
inherited store is never read, written or closed in the worker: the parent
keeps rewriting its spill file's slots, which a worker reading them would
see change under it, and its spill finalizer releases the file only in the
process that created it.

Bit-identity is preserved by construction:

* distance values are canonical — a worker's store holds exactly the
  parent's current matrix (dense copy-on-write image) or computes canonical
  tiles lazily from the current graph (tiled), so per-candidate change
  triples match the serial scan's bit for bit;
* candidates are sharded *contiguously* in candidate order and the parent
  joins the shards' triples back in that order, each offset by its shard's
  first candidate, before running its own summarize pass — same
  ``Fraction`` maxima and tie counts.

Failure handling is all-or-nothing: any send/recv error (including a worker
killed with SIGKILL mid-scan), an error reply, or a reply naming a
candidate outside its shard makes :meth:`ScanPool.scan` return ``None``;
the caller tears the pool down and permanently falls back to the serial
batched scan, which is result-identical.  The pool creates no shared
memory, so no ``/dev/shm`` entry can outlive it.  A tiled worker's private
store deletes its spill file when the worker closes; a worker killed
outright leaves that file behind, as any killed process leaves its
temporary files.

Pool nesting: θ-group pool workers (:mod:`repro.api.batch`) call
:func:`mark_pool_worker` from their initializer, and scan-pool workers at
startup.  Inside such a process :func:`resolve_scan_workers` returns 0 and
the OpenBLAS thread pool is capped at one thread — a pool that already
fans work across all cores must not oversubscribe them, neither with
nested scan pools nor with native BLAS threads.  Thread count cannot
change a result: the dense tier's float32 products sum 0/1 terms, exact
below 2**24.
"""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import weakref
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opacity_session import own_cells

__all__ = [
    "ScanPool",
    "blas_threads",
    "in_pool_worker",
    "mark_pool_worker",
    "resolve_scan_workers",
]

#: Seconds a worker gets to report readiness.
_READY_TIMEOUT = 60.0

#: Set in processes that are themselves pool workers (θ-group workers of
#: :mod:`repro.api.batch`, scan-pool workers of this module), where nested
#: scan pools would oversubscribe the machine.
_IN_POOL_WORKER = False


#: Thread-count setters OpenBLAS builds export, in lookup order: numpy's
#: wheels bundle a ``scipy_openblas`` ILP64 build, a system OpenBLAS has
#: the plain names.  Each getter is the setter's name with ``get``.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def mark_pool_worker() -> None:
    """Mark this process as a pool worker.

    Disables nested scan pools and caps the process's BLAS thread pool at
    one thread: the pool's processes already occupy the cores.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    _set_blas_threads(1)


def in_pool_worker() -> bool:
    """Whether this process is a pool worker."""
    return _IN_POOL_WORKER


def _find_openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS library loaded in this process, or ``None``.

    Reads the process's mappings (Linux); where they name none, falls back
    to the library bundled in the numpy wheel.
    """
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                path = fields[5].strip() if len(fields) == 6 else ""
                if "openblas" in os.path.basename(path).lower():
                    paths.append(path)
    except OSError:
        pass
    if not paths:
        import numpy

        site = os.path.dirname(os.path.dirname(numpy.__file__))
        paths = sorted(glob.glob(os.path.join(site, "numpy.libs",
                                              "*openblas*")))
    for path in dict.fromkeys(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_function(verb: str) -> Optional[Any]:
    """OpenBLAS's ``{verb}_num_threads`` function, or ``None``."""
    library = _find_openblas()
    if library is None:
        return None
    for setter in _BLAS_SETTERS:
        function = getattr(library, setter.replace("_set_", f"_{verb}_"),
                           None)
        if function is not None:
            return function
    return None


def _set_blas_threads(count: int) -> None:
    """Set this process's OpenBLAS thread count; no-op without OpenBLAS."""
    setter = _blas_function("set")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(count)


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    getter = _blas_function("get")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def resolve_scan_workers(scan_workers: Optional[int]) -> int:
    """Effective scan-pool size for a run's ``scan_workers`` knob.

    ``None``, 0 and 1 mean a serial scan; N >= 2 means a pool of N.  Inside
    a pool worker it is always 0, the no-oversubscription rule.
    """
    if scan_workers is None or in_pool_worker():
        return 0
    return max(0, int(scan_workers))


def _scan_worker_main(conn, session) -> None:
    """Worker entry point: serve scan/apply requests with the inherited session.

    Runs in a forked child, so ``session`` is the parent's session as it
    stood at the fork; only small message payloads ever cross the pipe.
    Any failure is reported once and ends the worker — the parent treats a
    dead worker as a permanent fallback signal.
    """
    mark_pool_worker()
    try:
        session.privatize_store()
        conn.send(("ready",))
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            kind = message[0]
            if kind == "close":
                return
            try:
                if kind == "scan":
                    changes = session.collect_edit_changes(*message[1:])
                    conn.send(("ok", changes))
                elif kind == "apply":
                    session.apply_edit(message[1], message[2])
                else:
                    conn.send(("error", f"unknown message kind {kind!r}"))
                    return
            except Exception as exc:  # noqa: BLE001 — fail the whole pool
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                return
    finally:
        try:
            session.close()
        except Exception:  # noqa: BLE001 — teardown must not mask exit
            pass
        conn.close()


def _shutdown(processes: List[Any], connections: List[Any],
              timeout: float = 2.0) -> None:
    """Best-effort teardown of worker processes and their pipes."""
    for conn in connections:
        try:
            conn.send(("close",))
        except Exception:  # noqa: BLE001 — dead pipe, nothing to close
            pass
        try:
            conn.close()
        except Exception:  # noqa: BLE001
            pass
    for process in processes:
        process.join(timeout=timeout)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=timeout)


class ScanPool:
    """A started pool of scan workers, each a forked copy of one session.

    Build one with :meth:`start`; hand checked batches to :meth:`scan` and
    applied edits to :meth:`apply`; :meth:`close` (idempotent, also run by
    a ``weakref`` finalizer) shuts the workers down.  All methods are
    parent-side only.
    """

    def __init__(self, processes: List[Any], connections: List[Any]) -> None:
        self._processes = processes
        self._connections = connections
        self._closed = False
        self._finalizer = weakref.finalize(self, _shutdown,
                                           processes, connections)

    @classmethod
    def start(cls, session, workers: int) -> Optional["ScanPool"]:
        """Fork ``workers`` scan workers, each inheriting ``session``.

        ``session`` is the parent's
        :class:`~repro.core.opacity_session.OpacitySession` in its current
        state.  Returns ``None`` when the pool cannot be built (no fork
        start method, a worker failing to report ready) — the caller falls
        back to the serial scan.
        """
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX platform
            return None
        processes: List[Any] = []
        connections: List[Any] = []
        try:
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(target=_scan_worker_main,
                                      args=(child_conn, session),
                                      daemon=True)
                process.start()
                child_conn.close()
                processes.append(process)
                connections.append(parent_conn)
            for conn in connections:
                if not conn.poll(_READY_TIMEOUT):
                    raise RuntimeError("scan worker did not become ready")
                reply = conn.recv()
                if reply[0] != "ready":
                    raise RuntimeError(f"scan worker failed: {reply[1]}")
        except Exception:  # noqa: BLE001 — pool startup is best-effort
            _shutdown(processes, connections)
            return None
        return cls(processes, connections)

    @property
    def num_workers(self) -> int:
        """Number of worker processes in this pool."""
        return len(self._processes)

    @property
    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the worker processes (crash-safety test hook)."""
        return tuple(process.pid for process in self._processes)

    def scan(self, endpoints: np.ndarray, members: np.ndarray,
             gained: np.ndarray
             ) -> Optional[List[Tuple[int, Tuple[Any, Any, Any]]]]:
        """Shard a checked batch across the workers and collect in candidate order.

        The arrays are as ``score_combinations`` leaves them once checked;
        each shard is a contiguous slice of the rows with its own cells
        (:func:`~repro.core.opacity_session.own_cells`).  Returns
        ``(first, changes)`` per shard, in shard order: the index of the
        shard's first candidate and the shard's
        ``(candidate, type, delta)`` triples, candidates numbered from 0
        within the shard (as
        :func:`~repro.core.opacity_session.join_changes` takes them).
        Returns ``None`` on any worker failure, error reply or reply naming
        a candidate index outside ``0 ..`` its shard size (the
        all-or-nothing fallback signal).
        """
        if self._closed:
            return None
        shards: List[Tuple[Any, int, int]] = []  # (connection, first, size)
        base, extra = divmod(len(members), len(self._connections))
        start = 0
        try:
            for index, conn in enumerate(self._connections):
                size = base + (1 if index < extra else 0)
                if size == 0:
                    continue
                rows = slice(start, start + size)
                conn.send(("scan", *own_cells(endpoints, members[rows]),
                           gained[rows]))
                shards.append((conn, start, size))
                start += size
            parts: List[Tuple[int, Tuple[Any, Any, Any]]] = []
            for conn, first, size in shards:
                reply = conn.recv()
                if reply[0] != "ok":
                    return None
                candidate = reply[1][0]
                if candidate.size and not (0 <= candidate.min()
                                           and candidate.max() < size):
                    return None
                parts.append((first, reply[1]))
            return parts
        except (OSError, EOFError, BrokenPipeError):
            return None

    def apply(self, removals: Sequence[Any],
              insertions: Sequence[Any]) -> bool:
        """Forward an applied edit to every worker; ``False`` on failure.

        No acknowledgement is waited for — a desynchronized worker is
        detected by the next :meth:`scan` (its reply stream breaks), which
        triggers the same serial fallback.
        """
        if self._closed:
            return False
        try:
            for conn in self._connections:
                conn.send(("apply", tuple(removals), tuple(insertions)))
            return True
        except (OSError, BrokenPipeError):
            return False

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _shutdown(self._processes, self._connections)
