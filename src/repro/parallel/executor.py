"""Parallel execution of the per-shard inference pipeline.

The compute layer of :mod:`repro.parallel` (DESIGN.md S24). The
per-shard pipeline is split in two halves, shared by every leg:

* :func:`build_shard_topology` — lines 2–12 of Algorithm 1 for the
  shard (sub-network → σ groups → slice systems), reduced to a lean
  :class:`ShardTopology` of σ tuples, offsets and int32 pair rows.
  It depends on the topology only, so it is built once and cached.
* :func:`shard_evidence` — one call's expected-mode costs, Equation
  14 estimates and global pair keys over that cached topology.

The executor decides where they run:

* **inline** (``workers == 1``): the exact sequential loop, topologies
  memoized on the (immutable) network.
* **thread leg**: the same memo, filled before dispatch; the
  evidence runs on a ``ThreadPoolExecutor``. Chosen automatically
  when the numba kernel backend is active — the hot popcount/pair
  kernels are compiled with ``nogil=True`` and release the GIL, so
  threads scale without any transport at all.
* **process leg**: the fallback where kernels hold the GIL (numpy /
  python backends). Matrices and packed incidence travel through
  :mod:`repro.parallel.shm` segments; per-task payloads carry only
  shard identities and descriptors. Each shard is pinned to one
  worker, which caches its topology under the incidence's content
  digest and drops the cache when a task brings another digest.

Bitwise identity: every leg computes per-shard ``(σ, keys,
estimates)`` arrays with the same numpy arithmetic on the same
inputs, and the caller folds them **in shard order** — so the σ-keyed
merge in :func:`repro.core.sharding.infer_sharded` sees byte-for-byte
the contributions the sequential loop produces (DESIGN.md S24 has the
full argument).

This module also hosts :class:`SweepExecutor`, the persistent warm
pool behind :class:`repro.experiments.sweep.SweepRunner`: one pool
survives across ``run()`` calls and adaptive waves, so per-wave
dispatch stops paying fork + import + (under numba) JIT-warm costs.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.network import LinkSeq, Network, Path
from repro.core.slices import build_slice_batch
from repro.exceptions import (
    ConfigurationError,
    MeasurementError,
    UnknownPathError,
)
from repro.measurement.normalize import expected_member_costs
from repro.measurement.records import MeasurementData
from repro.parallel import shm

#: Worker-count override for parallel sharded inference; unset means
#: inline sequential execution (deterministic default).
ENV_WORKERS = "REPRO_INFER_WORKERS"

#: Executor modes: ``auto`` resolves per run from the kernel backend.
MODES = ("auto", "thread", "process")


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


def resolve_shard_mode(mode: str = "auto") -> str:
    """Resolve ``auto`` to a concrete leg.

    Threads win exactly when the numba backend is active: its kernels
    are compiled ``nogil=True``, so the hot popcount/pair passes run
    concurrently under one interpreter with zero transport. Under the
    numpy/python backends the pair passes hold the GIL, so processes
    (plus shared-memory transport) are the scaling leg.
    """
    if mode not in MODES:
        raise ConfigurationError(
            f"unknown parallel mode {mode!r}; expected one of {MODES}"
        )
    if mode != "auto":
        return mode
    from repro.fluid import kernels

    return "thread" if kernels.active_backend() == "numba" else "process"


class ShardResult(NamedTuple):
    """One shard's merge input, in gatherable array form.

    ``keys[offsets[s]:offsets[s+1]]`` / ``estimates[...]`` are the
    global pair keys and pair estimates of ``sigmas[s]``; the merge
    of :func:`repro.core.sharding.infer_sharded` folds them in shard
    order. A shard without σ systems has no sigmas and empty arrays.
    ``cold`` records whether this call had to build the shard's
    :class:`ShardTopology` (False when a cache served it).
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


def build_shard_topology(
    packed: np.ndarray,
    path_pos: Mapping[str, int],
    link_ids: Sequence[str],
    shard_path_ids: Sequence[str],
) -> ShardTopology:
    """Build one shard's :class:`ShardTopology` from packed incidence.

    ``packed`` is :attr:`repro.core.network.PathIndex.packed` (or an
    attached copy of it), ``path_pos`` maps path ids to its rows and
    ``link_ids`` names its columns. The sub-network is rebuilt with
    links in column (sorted) order; every quantity kept here — σ
    sequences (canonical sorted tuples), pair and member rows —
    depends only on link *sets*, so the result equals the one built
    from :meth:`~repro.core.network.Network.restricted_to_paths`.

    Raises:
        UnknownPathError: On a path id that is not in ``path_pos``.
    """
    pids = sorted(set(shard_path_ids))
    try:
        to_global = np.array([path_pos[pid] for pid in pids], dtype=np.intp)
    except KeyError as exc:
        raise UnknownPathError(str(exc.args[0])) from None
    bits = np.unpackbits(
        np.ascontiguousarray(packed[to_global]).view(np.uint8), axis=1
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
    topo = build_shard_topology(
        index.packed, index.path_pos, index.link_ids, shard_path_ids
    )
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


def shard_contribution(
    net: Network,
    measurements: MeasurementData,
    shard_path_ids: Sequence[str],
    *,
    loss_threshold: float,
    normalization_mode: str,
) -> ShardResult:
    """The per-shard pipeline of the inline and thread legs.

    :func:`shard_topology` (built once per network) then
    :func:`shard_evidence` over this call's measurements — the same
    two functions the process leg runs worker-side.
    """
    topo, built = shard_topology(net, shard_path_ids)
    return shard_evidence(
        topo,
        measurements,
        net.path_index.path_ids,
        loss_threshold=loss_threshold,
        normalization_mode=normalization_mode,
        cold=built,
    )


# ----------------------------------------------------------------------
# Process-leg worker
# ----------------------------------------------------------------------

#: One-entry worker cache of the current run's attached measurements;
#: rotated when a task names a different segment.
_WORKER_DATA: Dict[str, MeasurementData] = {}

#: One-topology worker cache: ``{digest: (path_pos, {shard path ids:
#: ShardTopology})}``. Rotated (cleared) when a task carries another
#: topology digest, so a worker holds the artifacts of one topology
#: at a time.
_WORKER_TOPOLOGY: Dict[str, Tuple[Dict[str, int], Dict]] = {}


def _worker_measurements(meas_desc) -> MeasurementData:
    data = _WORKER_DATA.get(meas_desc.sent.name)
    if data is None:
        _WORKER_DATA.clear()
        shm.detach_all()
        data = shm.attach_measurements(meas_desc)
        _WORKER_DATA[meas_desc.sent.name] = data
    return data


def _worker_topology(inc_desc, shard_path_ids) -> Tuple[ShardTopology, bool]:
    entry = _WORKER_TOPOLOGY.get(inc_desc.digest)
    if entry is None:
        _WORKER_TOPOLOGY.clear()
        pos = {pid: i for i, pid in enumerate(inc_desc.path_ids)}
        entry = _WORKER_TOPOLOGY[inc_desc.digest] = (pos, {})
    pos, shards = entry
    topo = shards.get(shard_path_ids)
    if topo is not None:
        return topo, False
    topo = build_shard_topology(
        shm.attach(inc_desc.packed), pos, inc_desc.link_ids, shard_path_ids
    )
    shards[shard_path_ids] = topo
    return topo, True


def _worker_topology_census() -> Tuple[Tuple[str, ...], int]:
    """``(topology digests, shard artifacts)`` cached in this process."""
    return (
        tuple(_WORKER_TOPOLOGY),
        sum(len(shards) for _, shards in _WORKER_TOPOLOGY.values()),
    )


def _run_shard_task(task) -> ShardResult:
    """Worker entry: the shard's cached (or freshly built) topology,
    then the evidence over the shared measurement matrices."""
    shard_path_ids, meas_desc, inc_desc, params = task
    loss_threshold, normalization_mode = params
    data = _worker_measurements(meas_desc)
    topo, built = _worker_topology(inc_desc, shard_path_ids)
    return shard_evidence(
        topo,
        data,
        inc_desc.path_ids,
        loss_threshold=loss_threshold,
        normalization_mode=normalization_mode,
        cold=built,
    )


def _terminate_pool(pool) -> None:
    pool.terminate()
    pool.join()


def _mp_context():
    import multiprocessing as mp
    import sys

    # fork is the cheap option where it is safe (Linux); elsewhere
    # fall back to the platform default (spawn) — task payloads are
    # picklable descriptors, so both work.
    return mp.get_context("fork" if sys.platform == "linux" else None)


def _make_pool(workers: int):
    return _mp_context().Pool(workers)


def _lane_main(conn, parent_ends) -> None:
    """Lane worker loop: run each ``(fn, args)`` job the parent sends
    and reply ``(ok, value)``, until it sends ``None`` or goes away.

    ``parent_ends`` are the parent's pipe ends this process inherited
    (its own and earlier lanes'); closing them lets the worker see
    end-of-file if the parent dies without saying stop.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        fn, args = job
        try:
            reply = (True, fn(*args))
        except Exception as exc:  # re-raised in the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, EOFError):
            return


class _Lanes:
    """One worker process per lane, each behind its own pipe.

    The process leg pins each shard to a lane (:func:`_assign_lanes`),
    so a worker's topology cache, warmed by the first run, serves every
    later run of the same plan; a shared pool would hand each shard to
    whichever worker is free, and every worker would keep rebuilding
    the shards it had not seen yet. All workers start before any job,
    and the parent runs no helper thread: it keeps one job in flight
    per lane and waits on the pipes.
    """

    def __init__(self, workers: int) -> None:
        ctx = _mp_context()
        self._conns = []
        self._procs = []
        for _ in range(workers):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_lane_main,
                args=(child_end, (*self._conns, parent_end)),
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._conns.append(parent_end)
            self._procs.append(proc)

    @property
    def size(self) -> int:
        return len(self._procs)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def run(self, jobs: Sequence[Tuple[int, object, tuple]]) -> List:
        """Run ``(lane, fn, args)`` jobs, each lane's in submission
        order; returns their results in job order.

        A job's exception is raised once every lane is idle again, so
        no reply is left in a pipe for the next run.

        Raises:
            RuntimeError: If a lane's worker exited mid-run.
        """
        queued = [deque() for _ in self._conns]
        for seq, (lane, fn, args) in enumerate(jobs):
            queued[lane].append((seq, fn, args))
        results: List = [None] * len(jobs)
        in_flight: Dict[int, int] = {}  # lane -> job seq
        failure: Optional[BaseException] = None

        def _lost(lane: int) -> RuntimeError:
            return RuntimeError(f"shard lane {lane} worker exited mid-run")

        def _submit(lane: int) -> None:
            nonlocal failure
            if queued[lane] and failure is None:
                seq, fn, args = queued[lane].popleft()
                try:
                    self._conns[lane].send((fn, args))
                except OSError:
                    failure = _lost(lane)
                    return
                in_flight[lane] = seq

        for lane in range(self.size):
            _submit(lane)
        lane_of = {conn: lane for lane, conn in enumerate(self._conns)}
        while in_flight:
            ready = _connection_wait([self._conns[k] for k in in_flight])
            for conn in ready:
                lane = lane_of[conn]
                seq = in_flight.pop(lane)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):
                    ok, value = False, _lost(lane)
                if ok:
                    results[seq] = value
                elif failure is None:
                    failure = value
                _submit(lane)
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        """Stop and reap the workers; one still busy after a second
        is terminated."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()


def _assign_lanes(sizes: Sequence[int], lanes: int) -> List[int]:
    """Deterministic longest-first assignment of shards to lanes.

    Shards are taken by descending size (ties by position) and each
    goes to the least-loaded lane (ties by lane number), so one plan
    maps to the same lanes on every run.
    """
    load = [0] * lanes
    lane_of = [0] * len(sizes)
    for seq in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        lane = min(range(lanes), key=lambda k: (load[k], k))
        lane_of[seq] = lane
        load[lane] += sizes[seq]
    return lane_of


# ----------------------------------------------------------------------
# Shard executor
# ----------------------------------------------------------------------


class ShardExecutor:
    """Runs shard pipelines inline, on threads, or on processes.

    Persistent: the thread pool and the process lanes are created
    lazily and survive across :meth:`run_shards` calls, so a caller
    holding one executor (a bench, a monitoring loop) pays pool setup
    once. Shard topologies are built once per network: inline and on
    threads they are memoized on the network, on processes each lane
    worker caches the shards pinned to it for one topology at a time.
    Shared-memory segments are per run — exported before dispatch,
    released (refcount → unlink) right after the gather.

    Args:
        workers: Worker count; ``None`` reads ``REPRO_INFER_WORKERS``
            (1 when unset → inline).
        mode: ``auto`` (thread iff the numba kernel backend is
            active), ``thread``, or ``process``.
    """

    def __init__(
        self, workers: Optional[int] = None, mode: str = "auto"
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown parallel mode {mode!r}; expected one of {MODES}"
            )
        self.workers = (
            default_infer_workers() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.mode = mode
        self._threads: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[_Lanes] = None
        self._pool_finalizer = None
        #: Cumulative bookkeeping (telemetry folds these in).
        self.runs = 0
        self.shard_tasks = 0
        #: Shard topologies built (cache misses) — 0 on a warm repeat.
        self.topology_builds = 0
        self.last_mode: Optional[str] = None
        self.last_shm_bytes = 0
        self.last_topology_builds = 0

    # -- pools ----------------------------------------------------------

    def _ensure_threads(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._threads

    def _ensure_pool(self) -> _Lanes:
        if self._pool is not None and not self._pool.alive():
            self._close_pool()  # a lost worker: start a fresh set
        if self._pool is None:
            pool = _Lanes(self.workers)
            self._pool = pool
            self._pool_finalizer = weakref.finalize(self, pool.close)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
            self._pool = None

    def close(self) -> None:
        """Shut both pools down (idempotent)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        self._close_pool()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------

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
        self.last_shm_bytes = 0
        params = dict(
            loss_threshold=loss_threshold,
            normalization_mode=normalization_mode,
        )
        if self.workers <= 1 or len(shard_path_ids) <= 1:
            self.last_mode = "inline"
            results = [
                shard_contribution(net, measurements, pids, **params)
                for pids in shard_path_ids
            ]
        else:
            self.last_mode = resolve_shard_mode(self.mode)
            run = (
                self._run_threaded
                if self.last_mode == "thread"
                else self._run_processes
            )
            results = run(net, measurements, shard_path_ids, **params)
        self.last_topology_builds = sum(res.cold for res in results)
        self.topology_builds += self.last_topology_builds
        return results

    def _run_threaded(
        self, net, measurements, shard_path_ids, **params
    ) -> List[ShardResult]:
        # Build (or fetch) every shard topology and materialize every
        # lazy cache the workers share *before* dispatch, so no two
        # threads race a build; the threads run the evidence only.
        path_ids = net.path_index.path_ids
        topologies = [shard_topology(net, pids) for pids in shard_path_ids]
        measurements.sent_matrix
        measurements.lost_matrix
        measurements.all_sent_positive
        pool = self._ensure_threads()
        futures = [
            pool.submit(
                shard_evidence,
                topo,
                measurements,
                path_ids,
                cold=built,
                **params,
            )
            for topo, built in topologies
        ]
        return [future.result() for future in futures]

    def _run_processes(
        self, net, measurements, shard_path_ids, **params
    ) -> List[ShardResult]:
        meas_share = shm.MeasurementShare.export(measurements)
        inc_share = shm.IncidenceShare.export(net)
        self.last_shm_bytes = (
            meas_share.descriptor.sent.nbytes
            + meas_share.descriptor.lost.nbytes
            + inc_share.descriptor.packed.nbytes
        )
        task_params = (
            float(params["loss_threshold"]),
            str(params["normalization_mode"]),
        )
        try:
            tasks = [
                (
                    tuple(pids),
                    meas_share.descriptor,
                    inc_share.descriptor,
                    task_params,
                )
                for pids in shard_path_ids
            ]
            for task in tasks:
                shm.count_task_payload(task)
            lanes = self._ensure_pool()
            lane_of = _assign_lanes(
                [len(pids) for pids in shard_path_ids], lanes.size
            )
            return lanes.run(
                [
                    (lane, _run_shard_task, (task,))
                    for lane, task in zip(lane_of, tasks)
                ]
            )
        finally:
            # Owner-side release: the /dev/shm names disappear here;
            # worker mappings (even a killed worker's) are reclaimed
            # by the OS without being able to resurrect the segment.
            meas_share.close()
            inc_share.close()


# ----------------------------------------------------------------------
# Persistent sweep pool
# ----------------------------------------------------------------------


class SweepExecutor:
    """A warm ``multiprocessing.Pool`` reused across sweep runs.

    Owned by :class:`repro.experiments.sweep.SweepRunner` (and hence
    by adaptive sweeps and monitor fleets): the first parallel
    ``run()`` pays pool setup, every later run — every adaptive wave
    — dispatches onto the same workers. Seeding, caching, and retry
    semantics are untouched: the pool is an execution vehicle, task
    construction never sees it.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._pool = None
        self._finalizer = None
        self.pools_created = 0
        self.reuses = 0
        self.setup_seconds_total = 0.0
        self.last_setup_seconds = 0.0

    def ensure_pool(self) -> Tuple[object, bool]:
        """``(pool, created)`` — created is False on warm reuse."""
        if self._pool is not None:
            self.reuses += 1
            return self._pool, False
        start = time.perf_counter()
        pool = _make_pool(self.workers)
        elapsed = time.perf_counter() - start
        self._pool = pool
        self._finalizer = weakref.finalize(self, _terminate_pool, pool)
        self.pools_created += 1
        self.setup_seconds_total += elapsed
        self.last_setup_seconds = elapsed
        return pool, True

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
