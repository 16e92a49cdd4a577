"""Parallel inference executor gates (DESIGN.md S24).

Three contracts of :mod:`repro.parallel`:

* **Bitwise identity.** On the ≥5k-path federated multi-ISP
  topology, records→verdict through the 4-worker thread leg must
  return *bitwise* the sequential sharded verdict (itself pinned
  bitwise to the monolithic pipeline by ``bench_multi_isp.py``) and
  stay inside the sharded memory budget. The cold sequential/thread
  wall-time ratio is measured and reported, not gated.
* **Warm repeat.** Shard topologies depend on the topology only,
  so a second record set on the same topology through the warm
  executor builds none of them (a counted, deterministic claim) and
  takes at most a third of the cold first call's wall time, with
  both verdicts bitwise equal to ``workers=1`` on a fresh network.
* **Warm-pool reuse.** The adaptive detection plane dispatches one
  refinement wave per lattice level; with the persistent
  :class:`~repro.parallel.executor.SweepExecutor` every wave rides
  one pool. Versus per-wave pool creation (``reuse_pool=False``) the
  pools-created count — read from the ``sweep.wave`` telemetry spans
  — must drop ≥5× on the 129-point plane (5 waves), and the summed
  pool-setup seconds must drop with it.
"""

import os
import time

import numpy as np
from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from repro import telemetry
from repro.core.network import Network
from repro.core.sharding import infer_sharded
from repro.experiments.adaptive import (
    AdaptiveSweep,
    PlanePointFactory,
    plane_axes,
    plane_refinable,
)
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.experiments.sweep import SweepRunner
from repro.measurement.synthetic import synthesize_records
from repro.parallel import ShardExecutor
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

#: Gate topology — same shapes/budgets as ``bench_multi_isp.py``:
#: 8×13 federated (5356 paths) full, 5×10 (1225 paths) quick.
GATE_SHAPE = (5, 10) if BENCH_QUICK else (8, 13)
MIN_PATHS = 1000 if BENCH_QUICK else 5000
NUM_INTERVALS = 120 if BENCH_QUICK else 240
SHARDED_BUDGET = 128 * 1024 * 1024

WORKERS = 4


def _records(net, seed, num_intervals=NUM_INTERVALS):
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), net, num_violations=4
    )
    return synthesize_records(
        perf,
        np.random.default_rng(seed + 1),
        num_intervals=num_intervals,
    )


def _workload(shape, seed=5):
    fed = build_federated_multi_isp(*shape)
    return fed, _records(fed.network, seed)


def _warm_pool(ex):
    """Start the executor's threads on a small *other* topology, so a
    following run on the gate topology pays no pool setup but still
    builds every shard topology (a cold run)."""
    warm = build_federated_multi_isp(2, 3)
    infer_sharded(
        warm.network,
        _records(warm.network, 99, num_intervals=20),
        warm.shard_plan(),
        executor=ex,
    )


def _fresh_copy(net):
    """An equal network with empty memos and a built path index."""
    fresh = Network(net.links.values(), net.paths.values(), net.nodes.values())
    fresh.path_index.packed
    return fresh


def _assert_bitwise(got, expected):
    assert got.scores == expected.scores
    assert got.identified == expected.identified
    assert got.identified_raw == expected.identified_raw
    assert got.neutral == expected.neutral
    assert got.skipped == expected.skipped


def test_parallel_infer_gate(benchmark):
    fed, data = _workload(GATE_SHAPE)
    num_paths = len(fed.network.path_ids)
    assert num_paths >= MIN_PATHS
    plan = fed.shard_plan()
    # Warm the records' lazy caches (stacked matrices) so both timed
    # runs measure inference, not setup.
    _, mono = infer_from_measurements(fed.network, data)
    # Shard topologies and the merge plan are memoized on the network,
    # so each timed run gets its own copy: both build them — cold
    # against cold.
    net_seq, net_par = _fresh_copy(fed.network), _fresh_copy(fed.network)

    t0 = time.perf_counter()
    _, seq = infer_sharded(net_seq, data, plan, workers=1)
    t_seq = time.perf_counter() - t0

    with ShardExecutor(workers=WORKERS) as ex:
        # Pool warmup on another topology (not timed): the ratio
        # compares dispatch on a warm pool, the state a monitoring
        # loop or sweep actually runs in.
        _warm_pool(ex)

        def _parallel():
            t0 = time.perf_counter()
            _, par = infer_sharded(net_par, data, plan, executor=ex)
            return par, time.perf_counter() - t0

        par, t_par = run_once(benchmark, _parallel)
        assert ex.last_mode == "thread"
        assert ex.last_topology_builds == sum(
            len(s.path_ids) >= 2 for s in plan.shards
        )

    speedup = t_seq / t_par if t_par > 0 else float("inf")

    heading(
        f"parallel records→verdict: {GATE_SHAPE[0]}×{GATE_SHAPE[1]} "
        f"federated (|P|={num_paths}, {len(plan.shards)} shards, "
        f"{NUM_INTERVALS} intervals)"
    )
    print(f"{'pipeline':>22} {'wall (s)':>9}")
    print(f"{'sequential sharded':>22} {t_seq:>9.2f}")
    print(f"{f'{WORKERS}-thread':>22} {t_par:>9.2f}")
    print(f"speedup {speedup:.2f}x on {os.cpu_count()} core(s)")

    # Gate 1: all three verdict paths bitwise-identical.
    _assert_bitwise(seq, mono)
    _assert_bitwise(par, mono)

    # Gate 2: the process stays inside the sharded memory budget with
    # four shards' evidence in flight at once.
    import tracemalloc

    tracemalloc.start()
    with ShardExecutor(workers=WORKERS) as ex:
        infer_sharded(fed.network, data, plan, executor=ex)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= SHARDED_BUDGET, (
        f"parallel peak {peak / 1e6:.1f} MB over budget"
    )

    emit(
        benchmark,
        "parallel-infer/speedup",
        gate=None,
        measured=speedup,
        sequential_seconds=t_seq,
        parallel_seconds=t_par,
        workers=WORKERS,
        cpus=os.cpu_count(),
        peak_bytes=peak,
        paths=num_paths,
    )


# ----------------------------------------------------------------------
# Warm repeat: shard topologies are built once per topology
# ----------------------------------------------------------------------

#: Warm per-set wall time must be at most this fraction of the cold
#: first call on the same topology.
WARM_REPEAT_GATE = 1.0 / 3.0

#: The ≥5k-path topology in quick mode too: at 1225 paths a shard
#: builds in tens of milliseconds, the order of the fixed per-call
#: dispatch cost, so the ratio there measures overhead, not the
#: rebuilds this gate is about.
WARM_SHAPE = (8, 13)


def test_warm_repeat_gate(benchmark):
    fed, first = _workload(WARM_SHAPE)
    second = _records(fed.network, 7)
    plan = fed.shard_plan()
    eligible = sum(len(s.path_ids) >= 2 for s in plan.shards)

    with ShardExecutor(workers=WORKERS) as ex:
        _warm_pool(ex)
        t0 = time.perf_counter()
        _, cold = infer_sharded(fed.network, first, plan, executor=ex)
        t_cold = time.perf_counter() - t0
        cold_builds = ex.last_topology_builds

        def _warm():
            t0 = time.perf_counter()
            _, warm = infer_sharded(fed.network, second, plan, executor=ex)
            return warm, time.perf_counter() - t0

        warm, t_warm = run_once(benchmark, _warm)
        warm_builds = ex.last_topology_builds

    ratio = t_warm / t_cold
    heading(
        f"warm repeat: {WARM_SHAPE[0]}×{WARM_SHAPE[1]} federated, "
        f"{len(plan.shards)} shards, {WORKERS}-thread leg"
    )
    print(f"{'record set':>22} {'wall (s)':>9} {'builds':>7}")
    print(f"{'first (cold)':>22} {t_cold:>9.2f} {cold_builds:>7}")
    print(f"{'second (warm)':>22} {t_warm:>9.2f} {warm_builds:>7}")
    print(f"warm/cold {ratio:.2f} (gate ≤ {WARM_REPEAT_GATE:.2f})")

    # Each verdict bitwise equals workers=1 on a freshly built network.
    fresh = build_federated_multi_isp(*WARM_SHAPE)
    for data, got in ((first, cold), (second, warm)):
        _, expected = infer_sharded(
            fresh.network, data, fresh.shard_plan(), workers=1
        )
        _assert_bitwise(got, expected)
    # The count is the deterministic claim; the wall-time ratio is the
    # gain it buys.
    assert cold_builds == eligible
    assert warm_builds == 0
    assert ratio <= WARM_REPEAT_GATE, (
        f"warm repeat {t_warm:.2f}s > {WARM_REPEAT_GATE:.2f} × cold "
        f"{t_cold:.2f}s"
    )

    emit(
        benchmark,
        "parallel-infer/warm-repeat",
        gate=WARM_REPEAT_GATE,
        measured=ratio,
        cold_seconds=t_cold,
        warm_seconds=t_warm,
        cold_builds=cold_builds,
        warm_builds=warm_builds,
        workers=WORKERS,
        paths=len(fed.network.path_ids),
    )


# ----------------------------------------------------------------------
# Warm-pool reuse on the adaptive detection plane
# ----------------------------------------------------------------------

#: The detection plane at pool-gate shape: 129 rate points (span 128)
#: with an explicit coarse step of 16 → 1 coarse pass + 4 bisection
#: levels = 5 waves in every mode, so the ≥5× pools-created gate is
#: deterministic. Emulations stay at the quick 12 s calibration —
#: this gate measures dispatch, not physics.
PLANE_SETTINGS = EmulationSettings(
    duration_seconds=12.0, warmup_seconds=2.0, seed=3
)
PLANE_RATE_POINTS = 129
PLANE_COARSE_STEP = 16
POOL_RATIO_GATE = 5.0
POOL_WORKERS = 2


def _plane_run(reuse_pool):
    """One adaptive pass; returns (pools_created, setup_seconds,
    waves, result) with per-wave pool attrs read from the
    ``sweep.wave`` telemetry spans."""
    telemetry.configure(enabled=True)
    try:
        with SweepRunner.for_settings(
            PLANE_SETTINGS,
            workers=POOL_WORKERS,
            reuse_pool=reuse_pool,
        ) as runner:
            sweep = AdaptiveSweep(
                runner,
                plane_axes(PLANE_RATE_POINTS, 5),
                PlanePointFactory(settings=PLANE_SETTINGS),
                plane_refinable(),
                coarse_step=PLANE_COARSE_STEP,
            )
            result = sweep.run()
            pools_created = runner.executor.pools_created
        spans = telemetry.get_tracer().drain()
    finally:
        telemetry.configure(enabled=False)
        telemetry.reset_registry()
    waves = [s for s in spans if s["name"] == "sweep.wave"]
    setup_seconds = sum(
        s["attrs"].get("pool_setup_seconds", 0.0) for s in waves
    )
    reused = sum(
        1 for s in waves if s["attrs"].get("pool_reused")
    )
    # The executor's counter and the spans tell the same story.
    assert pools_created + reused >= len(waves)
    return pools_created, setup_seconds, len(waves), result


def test_adaptive_pool_reuse_gate(benchmark):
    warm_pools, warm_setup, waves, warm = run_once(
        benchmark, _plane_run, True
    )
    cold_pools, cold_setup, cold_waves, cold = _plane_run(False)

    heading(
        f"adaptive pool reuse: {PLANE_RATE_POINTS}×5 detection plane, "
        f"{waves} waves, {POOL_WORKERS} workers"
    )
    print(f"{'mode':>16} {'pools':>6} {'setup (ms)':>11}")
    print(f"{'persistent':>16} {warm_pools:>6} {warm_setup * 1e3:>11.1f}")
    print(f"{'per-wave':>16} {cold_pools:>6} {cold_setup * 1e3:>11.1f}")

    # The trajectory is pool-policy-invariant (and both runs agree).
    assert warm.results == cold.results
    assert warm.frontier == cold.frontier
    assert cold_waves == waves

    # The deterministic gate: one pool serves all ≥5 waves.
    assert waves >= 5
    assert warm_pools == 1
    assert cold_pools == waves
    ratio = cold_pools / warm_pools
    assert ratio >= POOL_RATIO_GATE
    # Setup seconds follow the counter (timer noise allowing — the
    # hard gate is the count, which is what drives the overhead).
    assert warm_setup < cold_setup

    emit(
        benchmark,
        "parallel-infer/pool-reuse",
        gate=POOL_RATIO_GATE,
        measured=ratio,
        waves=waves,
        warm_setup_seconds=warm_setup,
        cold_setup_seconds=cold_setup,
        workers=POOL_WORKERS,
    )
