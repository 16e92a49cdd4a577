"""Parallel execution of the per-shard inference pipeline.

The compute layer of :mod:`repro.parallel` (DESIGN.md S24). The
per-shard pipeline is split in two halves:

* :func:`shard_topology` — lines 2–12 of Algorithm 1 for the shard
  (sub-network → σ groups → slice systems), reduced to a lean
  :class:`ShardTopology` of σ tuples, offsets and int32 pair rows.
  It depends on the topology only, so it is built once and memoized
  on the (immutable) network.
* :func:`shard_evidence` — one call's expected-mode costs, Equation
  14 estimates and global pair keys over that cached topology.

:class:`ShardExecutor` runs them on one path: every topology is
fetched or built in the calling thread, then the evidence is mapped
over the shards inline (``workers == 1``) or on a warm thread pool.
Threads need no transport: the measurement matrices and the cached
topologies are shared in place. Under the numba backend the hot pair
kernels are compiled ``nogil=True`` and run concurrently; under numpy
the large array operations release the GIL for their inner loops.

Bitwise identity: both legs run the same numpy arithmetic on the same
inputs, and the caller folds the per-shard ``(σ, keys, estimates)``
arrays **in shard order** — so the σ-keyed merge in
:func:`repro.core.sharding.infer_sharded` sees byte-for-byte the
contributions of the sequential loop (DESIGN.md S24 has the full
argument).

This module also hosts :class:`SweepExecutor`, the persistent warm
process pool behind :class:`repro.experiments.sweep.SweepRunner`:
sweeps emulate, which holds the GIL, so they run on processes. One
pool survives across ``run()`` calls and adaptive waves, so per-wave
dispatch stops paying fork + import + (under numba) JIT-warm costs.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import LinkSeq, Network, Path, PathIndex
from repro.core.slices import build_slice_batch
from repro.exceptions import (
    ConfigurationError,
    MeasurementError,
    UnknownPathError,
)
from repro.measurement.normalize import expected_member_costs
from repro.measurement.records import MeasurementData

#: Worker-count override for parallel sharded inference; unset means
#: inline sequential execution (deterministic default).
ENV_WORKERS = "REPRO_INFER_WORKERS"


def default_infer_workers() -> int:
    """Worker count from :data:`ENV_WORKERS` (1 when unset)."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be >= 1, got {workers}"
        )
    return workers


class ShardResult(NamedTuple):
    """One shard's merge input, in gatherable array form.

    ``keys[offsets[s]:offsets[s+1]]`` / ``estimates[...]`` are the
    global pair keys and pair estimates of ``sigmas[s]``; the merge
    of :func:`repro.core.sharding.infer_sharded` folds them in shard
    order. A shard without σ systems has no sigmas and empty arrays.
    ``cold`` records whether this call had to build the shard's
    :class:`ShardTopology` (False when the network's memo served it).
    """

    sigmas: Tuple[LinkSeq, ...]
    offsets: np.ndarray
    keys: np.ndarray
    estimates: np.ndarray
    cold: bool

    @property
    def pairs(self) -> int:
        return int(self.keys.size)


class ShardTopology(NamedTuple):
    """The records-independent half of one shard's pipeline.

    Lines 2–12 of Algorithm 1 for the shard's sub-network, reduced to
    what the per-call evidence needs: no sub-network, no pathset
    objects, no pair-group memo.

    Attributes:
        sigmas: The shard's σ sequences, sorted.
        offsets: ``(n_sigmas + 1,)`` boundaries into the pair arrays.
        pair_a / pair_b: int32 positions into :attr:`rows` of every
            sharing pair, grouped by σ, row-major within a group.
        rows: Ascending *global* registry rows of the paths that are
            a member of some pair — the shard→global row map.
    """

    sigmas: Tuple[LinkSeq, ...]
    offsets: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    rows: np.ndarray


def _build_shard_topology(
    index: PathIndex, shard_path_ids: Sequence[str]
) -> ShardTopology:
    """Build one shard's :class:`ShardTopology` from packed incidence.

    The sub-network is rebuilt from the registry's packed rows with
    links in column (sorted) order; every quantity kept here — σ
    sequences (canonical sorted tuples), pair and member rows —
    depends only on link *sets*, so the result equals the one built
    from :meth:`~repro.core.network.Network.restricted_to_paths`.

    Raises:
        UnknownPathError: On a path id that is not in the registry.
    """
    pids = sorted(set(shard_path_ids))
    try:
        to_global = np.array(
            [index.path_pos[pid] for pid in pids], dtype=np.intp
        )
    except KeyError as exc:
        raise UnknownPathError(str(exc.args[0])) from None
    link_ids = index.link_ids
    bits = np.unpackbits(
        np.ascontiguousarray(index.packed[to_global]).view(np.uint8), axis=1
    )[:, : len(link_ids)].astype(bool)
    paths = [
        Path(pid, tuple(link_ids[k] for k in np.flatnonzero(row)))
        for pid, row in zip(pids, bits)
    ]
    used = [link_ids[k] for k in np.flatnonzero(bits.any(axis=0))]
    # Threshold 1: keep every σ group — Algorithm 1 line 10 applies
    # to the *merged* counts, not the per-shard ones.
    batch, _ = build_slice_batch(Network(used, paths), 1)
    members = np.unique(batch.member_rows)
    return ShardTopology(
        sigmas=batch.sigmas,
        offsets=batch.offsets.copy(),
        pair_a=np.searchsorted(members, batch.pair_a).astype(np.int32),
        pair_b=np.searchsorted(members, batch.pair_b).astype(np.int32),
        rows=to_global[members],
    )


def shard_topology(
    net: Network, shard_path_ids: Sequence[str]
) -> Tuple[ShardTopology, bool]:
    """``(topology, built)`` of one shard, memoized on ``net``.

    The network is immutable, so a shard's topology is built once and
    served from ``net``'s inference cache (keyed by the shard's path
    ids) on every later call; an entry is served only while its
    registry is still the network's current one. ``built`` is True
    when this call did the build.
    """
    index = net.path_index
    key = ("shard_topology", tuple(shard_path_ids))
    cached = net._inference_cache.get(key)
    if cached is not None and cached[0] is index:
        return cached[1], False
    topo = _build_shard_topology(index, shard_path_ids)
    net._inference_cache[key] = (index, topo)
    return topo, True


def shard_evidence(
    topo: ShardTopology,
    measurements: MeasurementData,
    path_ids: Sequence[str],
    *,
    loss_threshold: float,
    normalization_mode: str,
    cold: bool,
) -> ShardResult:
    """The records-dependent half: one call's pair estimates and keys.

    Expected-mode costs of the shard's members and pairs, Equation 14
    estimates ``y_a + y_b − y_ab``, and global pair keys
    ``a·|P| + b`` over the registry ``path_ids``. Only the
    expected-mode fast path (traffic on every path in every interval)
    is sharded, so no rng is consumed.

    Raises:
        MeasurementError: Outside the expected-mode fast path.
    """
    if normalization_mode != "expected" or not measurements.all_sent_positive:
        raise MeasurementError(
            "shard evidence needs expected-mode normalization with "
            "traffic on every path in every interval"
        )
    if not topo.sigmas:
        return ShardResult(
            (), topo.offsets, np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=float), cold,
        )
    y_members, y_pairs = expected_member_costs(
        measurements,
        [path_ids[r] for r in topo.rows],
        topo.pair_a,
        topo.pair_b,
        loss_threshold,
    )
    estimates = y_members[topo.pair_a] + y_members[topo.pair_b] - y_pairs
    # Shard→global rows are ascending, so a < b survives and keys
    # stay row-major within a group.
    rows = topo.rows.astype(np.int64)
    keys = rows[topo.pair_a] * len(path_ids) + rows[topo.pair_b]
    return ShardResult(topo.sigmas, topo.offsets, keys, estimates, cold)


# ----------------------------------------------------------------------
# Shard executor
# ----------------------------------------------------------------------


class ShardExecutor:
    """Runs shard pipelines inline or on a thread pool.

    Persistent: the thread pool is created lazily and survives across
    :meth:`run_shards` calls, so a caller holding one executor (a
    bench, a monitoring loop) pays pool setup once. Shard topologies
    are memoized on the network, so a warm repeat builds none.

    Args:
        workers: Worker count; ``None`` reads ``REPRO_INFER_WORKERS``
            (1 when unset → inline).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = (
            default_infer_workers() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self._threads: Optional[ThreadPoolExecutor] = None
        #: Cumulative bookkeeping (telemetry folds these in).
        self.runs = 0
        self.shard_tasks = 0
        #: Shard topologies built (cache misses) — 0 on a warm repeat.
        self.topology_builds = 0
        #: ``"inline"`` or ``"thread"``: where the last run went.
        self.last_mode: Optional[str] = None
        self.last_topology_builds = 0

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_shards(
        self,
        net: Network,
        measurements: MeasurementData,
        shard_path_ids: Sequence[Sequence[str]],
        *,
        loss_threshold: float,
        normalization_mode: str,
    ) -> List[ShardResult]:
        """One contribution per shard, in shard (submission) order."""
        self.runs += 1
        self.shard_tasks += len(shard_path_ids)
        # Every topology is fetched or built here, in the calling
        # thread, so no two threads race a build or a memo write; the
        # pool runs the evidence only.
        topologies = [shard_topology(net, pids) for pids in shard_path_ids]
        path_ids = net.path_index.path_ids

        def _evidence(entry: Tuple[ShardTopology, bool]) -> ShardResult:
            topo, built = entry
            return shard_evidence(
                topo,
                measurements,
                path_ids,
                loss_threshold=loss_threshold,
                normalization_mode=normalization_mode,
                cold=built,
            )

        if self.workers > 1 and len(topologies) > 1:
            self.last_mode = "thread"
            # Materialize the lazy caches every thread reads (the
            # guard stacks both counter matrices on first use).
            measurements.all_sent_positive
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            results = list(self._threads.map(_evidence, topologies))
        else:
            self.last_mode = "inline"
            results = list(map(_evidence, topologies))
        self.last_topology_builds = sum(res.cold for res in results)
        self.topology_builds += self.last_topology_builds
        return results


# ----------------------------------------------------------------------
# Persistent sweep pool
# ----------------------------------------------------------------------


def _mp_context():
    import multiprocessing as mp
    import sys

    # fork is the cheap option where it is safe (Linux); elsewhere
    # fall back to the platform default (spawn) — sweep tasks are
    # picklable module-level callables and plain data, so both work.
    return mp.get_context("fork" if sys.platform == "linux" else None)


def _make_pool(workers: int) -> ProcessPoolExecutor:
    pool = ProcessPoolExecutor(workers, mp_context=_mp_context())
    # Start every worker now, so pool setup is paid (and timed) here
    # rather than by the first sweep task.
    for future in [pool.submit(os.getpid) for _ in range(workers)]:
        future.result()
    return pool


class SweepExecutor:
    """A warm ``ProcessPoolExecutor`` reused across sweep runs.

    Owned by :class:`repro.experiments.sweep.SweepRunner` (and hence
    by adaptive sweeps and monitor fleets): the first parallel
    ``run()`` pays pool setup, every later run — every adaptive wave
    — dispatches onto the same workers. Seeding, caching, and retry
    semantics are untouched: the pool is an execution vehicle, task
    construction never sees it. A pool that lost a worker is broken
    for good; the runner closes it and the next run starts a new one.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer = None
        self.pools_created = 0
        self.reuses = 0
        self.setup_seconds_total = 0.0
        self.last_setup_seconds = 0.0

    def ensure_pool(self) -> Tuple[ProcessPoolExecutor, bool]:
        """``(pool, created)`` — created is False on warm reuse."""
        if self._pool is not None:
            self.reuses += 1
            return self._pool, False
        start = time.perf_counter()
        pool = _make_pool(self.workers)
        elapsed = time.perf_counter() - start
        self._pool = pool
        self._finalizer = weakref.finalize(
            self, pool.shutdown, wait=True, cancel_futures=True
        )
        self.pools_created += 1
        self.setup_seconds_total += elapsed
        self.last_setup_seconds = elapsed
        return pool, True

    def close(self) -> None:
        """Shut the pool down (idempotent); queued tasks are dropped."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
