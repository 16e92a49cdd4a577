"""Shared-memory array transport with a refcounted handle registry.

The zero-copy leg of the parallel inference executor (DESIGN.md S24):
instead of pickling ``MeasurementData`` matrices and bit-packed
incidence into every worker task, the parent exports each array once
into a ``multiprocessing.shared_memory`` segment and ships a tiny
picklable :class:`SharedArrayHandle` descriptor; workers attach a
read-only view over the same pages.

Ownership protocol:

* The **parent owns every segment**. Exports go through the
  process-global :class:`SegmentRegistry`, which refcounts each
  segment: :meth:`SegmentRegistry.export` starts a segment at one
  reference, :meth:`~SegmentRegistry.retain` / :meth:`~SegmentRegistry.
  release` move it, and the drop to zero closes *and unlinks* it.
* **Workers never unlink.** :func:`attach` maps a view and keeps the
  segment object in a small per-process cache; CPython's resource
  tracker is told not to track the attachment (``track=False`` where
  available, unregister otherwise), so a worker exiting — or being
  killed — cannot tear a segment away from its siblings.
* **Crash safety is owner-side.** POSIX unlink semantics mean the
  ``/dev/shm`` name disappears the moment the owner releases it, and
  the pages themselves are freed when the last mapping (including a
  killed worker's, reclaimed by the OS) goes away. An ``atexit`` hook
  force-unlinks anything still registered, so an aborted run leaks
  nothing.

The module also keeps the serialization-counting hooks the transport
tests assert against: every handle pickle and every ndarray byte that
enters a task payload is counted (see :func:`transport_stats`), so
"the matrices never cross the pipe" is a tested property, not a hope.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.measurement.records import MeasurementData

#: Prefix of every segment this module creates — lifecycle tests scan
#: ``/dev/shm`` for leaks by this marker.
SEGMENT_PREFIX = "repro-par"


def shm_available() -> bool:
    """Whether POSIX shared memory can be created on this host."""
    try:
        seg = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, PermissionError):  # pragma: no cover - odd hosts
        return False
    seg.close()
    seg.unlink()
    return True


# ----------------------------------------------------------------------
# Serialization counting
# ----------------------------------------------------------------------


@dataclass
class TransportStats:
    """Counters behind the pickle-free-transport assertion.

    Attributes:
        handle_pickles: :class:`SharedArrayHandle` descriptors
            serialized (the intended transport).
        task_array_bytes: ndarray bytes observed inside task payloads
            (should stay tiny — row-index arrays, never matrices).
        shm_bytes_exported: Total bytes copied into segments.
        tasks: Task payloads counted.
    """

    handle_pickles: int = 0
    task_array_bytes: int = 0
    shm_bytes_exported: int = 0
    tasks: int = 0


_STATS = TransportStats()
_STATS_LOCK = threading.Lock()


def transport_stats() -> TransportStats:
    """Snapshot of the serialization counters."""
    with _STATS_LOCK:
        return TransportStats(
            handle_pickles=_STATS.handle_pickles,
            task_array_bytes=_STATS.task_array_bytes,
            shm_bytes_exported=_STATS.shm_bytes_exported,
            tasks=_STATS.tasks,
        )


def reset_transport_stats() -> None:
    with _STATS_LOCK:
        _STATS.handle_pickles = 0
        _STATS.task_array_bytes = 0
        _STATS.shm_bytes_exported = 0
        _STATS.tasks = 0


def _count_handle_pickle() -> None:
    with _STATS_LOCK:
        _STATS.handle_pickles += 1


def count_task_payload(payload) -> int:
    """Record a task payload about to be pickled; returns its ndarray
    bytes (recursively over tuples/lists/dicts)."""
    nbytes = _array_bytes(payload)
    with _STATS_LOCK:
        _STATS.tasks += 1
        _STATS.task_array_bytes += nbytes
    return nbytes


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(
            _array_bytes(k) + _array_bytes(v) for k, v in obj.items()
        )
    return 0


# ----------------------------------------------------------------------
# Handles and the owner-side registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable descriptor of one exported array.

    Attributes:
        name: Shared-memory segment name.
        shape: Array shape.
        dtype: ``np.dtype`` string.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(
            self.dtype
        ).itemsize

    def __reduce__(self):
        _count_handle_pickle()
        return (SharedArrayHandle, (self.name, self.shape, self.dtype))


class SegmentRegistry:
    """Owner-side refcounted registry of exported segments.

    One per parent process (module-global :data:`REGISTRY`); thread-
    safe. Segments are keyed by name; refcounts let several shares
    (e.g. two executors exporting the same measurements) hold one
    segment, and the drop to zero closes and unlinks it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refs: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        #: Monotonic total of bytes ever exported (survives release).
        self.exported_bytes_total = 0

    def export(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy ``array`` into a fresh segment (refcount 1)."""
        array = np.ascontiguousarray(array)
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(6)}"
        seg = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=name
        )
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=seg.buf
        )
        view[...] = array
        with self._lock:
            self._segments[name] = seg
            self._refs[name] = 1
            self._bytes[name] = int(array.nbytes)
            self.exported_bytes_total += int(array.nbytes)
        with _STATS_LOCK:
            _STATS.shm_bytes_exported += int(array.nbytes)
        return SharedArrayHandle(
            name=name, shape=tuple(array.shape), dtype=str(array.dtype)
        )

    def retain(self, name: str) -> None:
        with self._lock:
            if name not in self._refs:
                raise ConfigurationError(
                    f"unknown shared segment {name!r}"
                )
            self._refs[name] += 1

    def release(self, name: str) -> None:
        """Drop one reference; unlink the segment at zero."""
        with self._lock:
            refs = self._refs.get(name)
            if refs is None:
                return  # already unlinked (idempotent cleanup paths)
            if refs > 1:
                self._refs[name] = refs - 1
                return
            seg = self._segments.pop(name)
            del self._refs[name]
            del self._bytes[name]
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def unlink_all(self) -> None:
        """Force-unlink every live segment (atexit / crash cleanup)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._refs.clear()
            self._bytes.clear()
        for seg in segments:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def active_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def active_bytes(self) -> int:
        with self._lock:
            return sum(self._bytes.values())


#: The parent-process registry; executors export through this so one
#: ``atexit`` hook covers every segment.
REGISTRY = SegmentRegistry()
atexit.register(REGISTRY.unlink_all)


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------

#: Per-process cache of attached segments, so repeated tasks over the
#: same run reuse one mapping instead of re-attaching per task.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}

_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without adopting the segment into the resource tracker.

    Pre-3.13 ``SharedMemory`` registers attachments with the tracker
    (bpo-39959), which would double-count segments the owning
    registry already tracks and spray spurious unlink warnings at
    worker exit. 3.13+ has ``track=False``; earlier interpreters get
    the standard workaround of masking ``register`` for the call.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original = resource_tracker.register

        def _skip_shared_memory(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach(handle: SharedArrayHandle) -> np.ndarray:
    """A read-only view over the handle's segment (cached, untracked).

    Safe to call in the owner process too (it maps the same pages).
    The resource tracker is told not to adopt the attachment: only
    the owning registry may unlink.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[1]
    seg = _attach_untracked(handle.name)
    view = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf
    )
    view.setflags(write=False)
    _ATTACHED[handle.name] = (seg, view)
    return view


def detach_all() -> None:
    """Close every cached attachment (worker cache rotation)."""
    for seg, _view in list(_ATTACHED.values()):
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view still alive
            pass
    _ATTACHED.clear()


# ----------------------------------------------------------------------
# Measurement / incidence shares
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementDescriptor:
    """Picklable descriptor of an exported :class:`MeasurementData`.

    Ships the two matrix handles plus the cheap metadata workers need
    to rebuild an identical object zero-copy — including the cached
    :attr:`~repro.measurement.records.MeasurementData.
    all_sent_positive` flag, so workers never re-scan the matrices.
    """

    sent: SharedArrayHandle
    lost: SharedArrayHandle
    path_ids: Tuple[str, ...]
    interval_seconds: float
    all_sent_positive: bool


@dataclass(frozen=True)
class IncidenceDescriptor:
    """Picklable descriptor of an exported bit-packed incidence.

    ``packed`` is :attr:`repro.core.network.PathIndex.packed` —
    ``(|P|, W)`` uint64 words, paths in ``path_ids`` (sorted) order,
    link columns in ``link_ids`` (sorted) order. ``digest`` is
    :attr:`repro.core.network.PathIndex.digest` — the content key of
    the workers' topology cache (never a segment name or an object
    id, which a later topology could reuse).
    """

    packed: SharedArrayHandle
    path_ids: Tuple[str, ...]
    link_ids: Tuple[str, ...]
    digest: str


@dataclass
class MeasurementShare:
    """Owner-side handle pair for one exported measurement set."""

    descriptor: MeasurementDescriptor
    _closed: bool = field(default=False, repr=False)

    @classmethod
    def export(cls, data: MeasurementData) -> "MeasurementShare":
        sent = REGISTRY.export(data.sent_matrix)
        lost = REGISTRY.export(data.lost_matrix)
        return cls(
            MeasurementDescriptor(
                sent=sent,
                lost=lost,
                path_ids=data.path_ids,
                interval_seconds=data.interval_seconds,
                all_sent_positive=data.all_sent_positive,
            )
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        REGISTRY.release(self.descriptor.sent.name)
        REGISTRY.release(self.descriptor.lost.name)


@dataclass
class IncidenceShare:
    """Owner-side handle for one exported packed incidence."""

    descriptor: IncidenceDescriptor
    _closed: bool = field(default=False, repr=False)

    @classmethod
    def export(cls, net) -> "IncidenceShare":
        index = net.path_index
        return cls(
            IncidenceDescriptor(
                packed=REGISTRY.export(index.packed),
                path_ids=index.path_ids,
                link_ids=index.link_ids,
                digest=index.digest,
            )
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        REGISTRY.release(self.descriptor.packed.name)


def attach_measurements(desc: MeasurementDescriptor) -> MeasurementData:
    """Rebuild a :class:`MeasurementData` over attached views."""
    return MeasurementData.from_matrices(
        desc.path_ids,
        attach(desc.sent),
        attach(desc.lost),
        desc.interval_seconds,
        all_sent_positive=desc.all_sent_positive,
    )
