"""Droptail burst allocation: vectorized allocator vs the per-path loop.

Both fluid engines allocate each step's droptail burst drops to flows
through :func:`repro.fluid.engine._allocate_bursts`, which handles
every bursty (scenario, path) row at once. The per-path loop it
replaced (one ``rng.random``, ``argsort`` and ``cumsum`` per bursty
path) is kept as the frozen oracle in ``tests/fluid/burst_oracle.py``.

This bench runs one single-engine emulation twice in one process,
once with the oracle swapped in through the module attribute and
once with the vectorized allocator, and asserts:

* the records are bitwise identical;
* the vectorized run's wall time is ≥ 1.8× faster (≥ 1.5× in quick
  mode, the usual CI noise margin).

Workload: the federated 6×6 topology (630 paths, 87 links), 20 s
simulated, the Table-3 "light" mix (four copies) on every path, with
c2 policed at 30% on one backbone link — the many-path shape where
burst allocation dominated the single engine. Quick mode runs the
4×5 topology (190 paths) for 10 s after a 5 s warm-up.
"""

import os
import sys
import time

from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from repro.analysis.stats import format_table
from repro.core.classes import classes_from_mapping
from repro.fluid import engine
from repro.fluid.engine import DEFAULT_DT, FluidNetwork
from repro.fluid.params import FluidLinkSpec, PolicerSpec
from repro.topology.multi_isp import build_federated_multi_isp
from repro.workloads.profiles import TABLE3, group_workload

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tests", "fluid")
)
from burst_oracle import allocate_bursts_per_path  # noqa: E402

ISPS, HOSTS = (4, 5) if BENCH_QUICK else (6, 6)
DURATION = 10.0 if BENCH_QUICK else 20.0
WARMUP = 5.0 if BENCH_QUICK else 0.0
FLOOR = 1.5 if BENCH_QUICK else 1.8
SEED = 3
POLICED = "b0_1"


def _federated():
    net = build_federated_multi_isp(ISPS, HOSTS).network
    classes = classes_from_mapping(
        net,
        {pid: ("c2" if i % 2 else "c1") for i, pid in enumerate(net.path_ids)},
    )
    light = group_workload(TABLE3["light"], parallel_copies=4)
    workloads = {pid: light for pid in net.path_ids}
    specs = {
        lid: FluidLinkSpec(
            capacity_mbps=1000.0 if lid.startswith("a") else 100.0,
            policer=(
                PolicerSpec(target_class="c2", rate_fraction=0.3)
                if lid == POLICED
                else None
            ),
        )
        for lid in net.link_ids
    }
    return net, classes, specs, workloads


def _timed_run(allocator, net, classes, specs, workloads):
    vectorized = engine._allocate_bursts
    engine._allocate_bursts = allocator
    try:
        sim = FluidNetwork(net, classes, specs, workloads, seed=SEED)
        t0 = time.perf_counter()
        result = sim.run(duration_seconds=DURATION, warmup_seconds=WARMUP)
        elapsed = time.perf_counter() - t0
    finally:
        engine._allocate_bursts = vectorized
    return result, elapsed


def test_vectorized_burst_allocation_gate(benchmark):
    net, classes, specs, workloads = _federated()
    vectorized = engine._allocate_bursts

    def run_both():
        ref, t_loop = _timed_run(
            allocate_bursts_per_path, net, classes, specs, workloads
        )
        got, t_vec = _timed_run(vectorized, net, classes, specs, workloads)
        return ref, t_loop, got, t_vec

    ref, t_loop, got, t_vec = run_once(benchmark, run_both)

    steps = int(round((DURATION + WARMUP) / DEFAULT_DT))
    speedup = t_loop / t_vec
    heading(
        f"Burst allocation: single engine, federated {ISPS}x{HOSTS} "
        f"({len(net.path_ids)} paths), {DURATION:g} s + {WARMUP:g} s warm-up"
    )
    print(format_table(
        ["allocator", "wall s", "us/step", "speedup"],
        [
            ("per-path loop", f"{t_loop:.3f}",
             f"{t_loop / steps * 1e6:.0f}", "1.00x"),
            ("vectorized", f"{t_vec:.3f}",
             f"{t_vec / steps * 1e6:.0f}", f"{speedup:.2f}x"),
        ],
    ))

    assert ref.measurements.path_ids == got.measurements.path_ids
    for pid in ref.measurements.path_ids:
        r = ref.measurements.record(pid)
        g = got.measurements.record(pid)
        assert r.sent.tobytes() == g.sent.tobytes(), pid
        assert r.lost.tobytes() == g.lost.tobytes(), pid
    assert speedup >= FLOOR, (
        f"vectorized burst allocation {speedup:.2f}x < {FLOOR}x floor"
    )
    emit(
        benchmark,
        "bursts/federated",
        gate=FLOOR,
        measured=speedup,
        paths=len(net.path_ids),
        steps=steps,
        loop_wall_s=t_loop,
        vectorized_wall_s=t_vec,
        loop_us_per_step=t_loop / steps * 1e6,
        vectorized_us_per_step=t_vec / steps * 1e6,
    )
