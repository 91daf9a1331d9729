"""Zero-copy shared-memory data plane for parallel θ-groups.

A grid sample group is dominated by two artifacts: the loaded sample graph
and the dense ``n × n`` L_max bounded-distance matrix.  Before this module
the grid engine kept its single-load / single-compute guarantee by
*serializing* every θ-sweep group of a sample group onto one worker — a
single-sample grid sweeping algorithm × L × look-ahead × θ ran on one
core.  The arena breaks that trade-off: the **parent** resolves the graph
and computes the distances once, publishes the edge array and, on the
dense tier, the L_max base matrix into
:mod:`multiprocessing.shared_memory` segments (a tiled-tier sample
publishes its edges alone: each tiled θ-group's session computes its own
tiles from the graph), and fans the θ-groups
across the pool carrying only an :class:`ArenaDescriptor` — segment
names, dtypes, shapes, and the L_max bound.  Workers attach read-only
views, rebuild the :class:`~repro.graph.graph.Graph` from the shared edge
array with zero disk I/O, and derive their own ``length_threshold``
matrix by thresholding the shared L_max view — the same
monotone-restriction argument the serial path uses (DESIGN.md §10), with the one unavoidable copy deferred to the
moment a :class:`~repro.graph.distance_delta.DistanceSession` takes
ownership of its (mutable) matrix.

The grid executor is the only publisher, so this module is the only
creator of ``/dev/shm`` segments: the intra-group scan pool
(:mod:`repro.core.scan_pool`) forks workers that inherit their session
and publishes nothing.

Ownership rules (DESIGN.md §12):

* the parent that calls :meth:`SharedSampleArena.publish` owns the
  segments and is the only process that ever calls
  :meth:`~SharedSampleArena.unlink` — inside a ``finally`` block, so a
  worker dying mid-group (even SIGKILL) cannot leak ``/dev/shm`` entries;
* workers attach via :func:`attach_arena` and hold *read-only* NumPy views
  (``writeable=False``); attachments are dropped by reference counting —
  closing an attached segment while views exist would raise
  ``BufferError``, so :class:`AttachedArena` simply releases its
  references and lets the last view close the mapping;
* an unlinked segment stays mapped in workers that already attached it
  (POSIX semantics), so the parent may unlink the moment every future of
  the sample group has completed.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.graph import Graph

__all__ = [
    "ArenaDescriptor",
    "AttachedArena",
    "SHM_NAME_PREFIX",
    "SharedSampleArena",
    "attach_arena",
]

#: Prefix of every segment name this module creates; the crash-safety
#: tests scan ``/dev/shm`` for it to prove the parent leaked nothing.
SHM_NAME_PREFIX = "repro-arena"

_EDGE_DTYPE = np.int64


@dataclass(frozen=True)
class ArenaDescriptor:
    """Everything a worker needs to attach a published sample group.

    A descriptor is a few hundred bytes of plain data — it crosses the
    process boundary instead of the pickled graph and matrices.  ``token``
    identifies the arena (workers cache attachments by it) and ``l_max``
    bounds its optional distance payload ``matrix``, the dense L_max
    base's ``(segment_name, dtype)``.  The remaining fields carry the array
    geometry needed to rebuild the NumPy views.
    """

    token: str
    num_vertices: int
    num_edges: int
    edges_segment: Optional[str]
    #: The distance payload's bound (``None`` without a payload).
    l_max: Optional[int] = None
    #: The dense L_max base: (segment, dtype string).
    matrix: Optional[Tuple[str, str]] = None


def _create_segment(name: str, data: np.ndarray) -> shared_memory.SharedMemory:
    """Create a segment holding a copy of ``data`` (C-contiguous)."""
    segment = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, data.nbytes))
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
    view[...] = data
    return segment


def _attach_view(name: str, shape: Tuple[int, ...],
                 dtype) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach ``name`` and expose it as a read-only NumPy view."""
    segment = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
    view.flags.writeable = False
    return segment, view


class SharedSampleArena:
    """Parent-owned shared-memory home of one sample group's artifacts.

    Build one with :meth:`publish`; hand :attr:`descriptor` to workers;
    call :meth:`unlink` (idempotent) when every θ-group of the sample
    group has completed — and unconditionally from a ``finally`` block, so
    crashed workers cannot leak segments.
    """

    def __init__(self, token: str,
                 segments: Dict[str, shared_memory.SharedMemory],
                 descriptor: ArenaDescriptor) -> None:
        self._token = token
        self._segments = segments
        self.descriptor = descriptor
        self._unlinked = False

    @classmethod
    def publish(cls, graph: Graph,
                base: Optional[np.ndarray] = None,
                l_max: Optional[int] = None) -> "SharedSampleArena":
        """Publish ``graph`` (and its dense L_max distance base) to shm.

        ``base`` is the sample's full ``n × n`` matrix bounded at ``l_max``,
        in its contract dtype (recorded in the descriptor), or ``None``
        to publish the edges alone.  All data is *copied* into the
        segments — the caller may release its own references immediately
        afterwards.
        """
        token = f"{SHM_NAME_PREFIX}-{uuid.uuid4().hex[:12]}"
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            edges = graph.edge_array().astype(_EDGE_DTYPE, copy=False)
            edges_segment = None
            if graph.num_edges:
                edges_segment = f"{token}-edges"
                segments[edges_segment] = _create_segment(edges_segment, edges)
            n = graph.num_vertices
            matrix_entry = None
            l_max = None if base is None else int(l_max)
            if base is not None:
                data = np.ascontiguousarray(base)
                if data.shape != (n, n):
                    raise ConfigurationError(
                        f"matrix has shape {data.shape}, expected {(n, n)}")
                segment_name = f"{token}-matrix"
                segments[segment_name] = _create_segment(segment_name, data)
                matrix_entry = (segment_name, data.dtype.str)
        except BaseException:
            for segment in segments.values():
                _release_segment(segment, unlink=True)
            raise
        descriptor = ArenaDescriptor(token=token,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges,
                                     edges_segment=edges_segment,
                                     l_max=l_max, matrix=matrix_entry)
        return cls(token, segments, descriptor)

    @property
    def token(self) -> str:
        """Unique identity of this arena (prefix of its segment names)."""
        return self._token

    def unlink(self) -> None:
        """Release and remove every segment (idempotent, never raises).

        Workers that already attached keep their mappings until their own
        references die; ``/dev/shm`` entries disappear immediately.
        """
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            _release_segment(segment, unlink=True)
        self._segments = {}


def _release_segment(segment: shared_memory.SharedMemory,
                     unlink: bool) -> None:
    """Close (and optionally unlink) one segment, swallowing races."""
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover — double unlink race
            pass
    try:
        segment.close()
    except BufferError:  # pragma: no cover — a live view pins the mapping
        pass


@dataclass
class AttachedArena:
    """A worker's read-only window onto a published sample group.

    ``graph`` is rebuilt from the shared edge array (one pass filling the
    neighbour sets, no disk I/O, no n² copy), and a private copy of the
    array's codes is its edge snapshot, so its first ``edge_array()``
    sorts nothing; ``cache`` wraps the shared
    L_max base (``None`` without one) in a
    :class:`~repro.graph.distance_cache.LMaxDistanceCache` whose
    ``compute_count`` stays 0 — thresholded *copies* are only made
    when a session takes ownership.  The segment handles are kept solely
    to pin the mappings; dropping the ``AttachedArena`` releases them via
    reference counting.
    """

    token: str
    graph: Graph
    cache: Optional[LMaxDistanceCache]
    segments: Tuple[shared_memory.SharedMemory, ...] = field(repr=False,
                                                             default=())


def attach_arena(descriptor: ArenaDescriptor) -> AttachedArena:
    """Attach a published arena and rebuild its graph and distance cache."""
    segments = []
    n = descriptor.num_vertices
    codes = np.empty(0, dtype=_EDGE_DTYPE)
    if descriptor.edges_segment is not None:
        segment, view = _attach_view(descriptor.edges_segment,
                                     (descriptor.num_edges, 2), _EDGE_DTYPE)
        segments.append(segment)
        # The parent's own edge snapshot: sorted, canonical and simple, so
        # its codes (a private copy) are the worker graph's snapshot too.
        codes = view[:, 0] * n + view[:, 1]
    graph = Graph._from_codes(n, codes)
    cache: Optional[LMaxDistanceCache] = None
    if descriptor.matrix is not None:
        segment_name, dtype_str = descriptor.matrix
        segment, view = _attach_view(segment_name, (n, n),
                                     np.dtype(dtype_str))
        segments.append(segment)
        cache = LMaxDistanceCache.from_matrix(graph, view, descriptor.l_max)
    return AttachedArena(token=descriptor.token, graph=graph, cache=cache,
                         segments=tuple(segments))
