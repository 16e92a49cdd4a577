"""The four benchmark workloads.

Each workload turns the run seed into inputs (``setup``), performs
one unit of records→verdict work through the program's public entry
points (``step``, which times the calls itself), and checks every
verdict it produced outside the timed region (``check``). A step
returns one latency per *operation*: one scenario for the emulation
workloads, one record set for ``federated_infer`` and one
window-closing stream chunk for ``monitor_replay``.

Sizes come in two shapes: ``full`` is what the benchmark measures,
``tiny`` keeps the same code paths small enough for the smoke tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.classes import classes_from_mapping, two_classes
from repro.core.metrics import evaluate
from repro.core.performance import (
    neutral_performance,
    performance_with_violations,
)
from repro.core.sharding import ShardPlan, infer_sharded
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import (
    infer_from_measurements,
    outcome_from_emulation,
)
from repro.experiments.topology_b import (
    TOPOLOGY_B_SETTINGS,
    run_topology_b,
    table3_workloads,
)
from repro.fluid.params import FluidLinkSpec, PolicerSpec
from repro.measurement.records import MeasurementData
from repro.measurement.synthetic import synthesize_records
from repro.parallel import ShardExecutor
from repro.streaming.monitor import NeutralityMonitor
from repro.streaming.stream import ReplayStream
from repro.substrate.batch import ScenarioBatch, run_scenario_batch
from repro.substrate.registry import get_substrate
from repro.substrate.spec import normalize_specs
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import (
    build_federated_multi_isp,
    build_multi_isp,
)
from repro.workloads.profiles import TABLE3, group_workload

from perfbench.tracing import UNTIMED
from perfbench.verdicts import (
    CheckFailed,
    digest,
    pinned,
    require_bitwise,
    require_same_verdict,
)


def worker_count() -> int:
    """Cores this process may run on; the executor asks for no more."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass
class Step:
    """What one unit of work produced.

    Attributes:
        latencies: Seconds per operation, in order.
        records: Path-interval records brought to a verdict.
        verdicts: The :class:`AlgorithmResult` values whose σ counts
            feed the ``core.*`` layer metrics.
        payload: Whatever :meth:`Workload.check` needs.
    """

    latencies: List[float]
    records: int
    verdicts: list
    payload: object = None


@dataclass
class Quality:
    """§5 quality against ground truth, per checked verdict
    (deterministic per seed; printed, not gated)."""

    fnr: List[float] = field(default_factory=list)
    fpr: List[float] = field(default_factory=list)

    def add(self, report) -> None:
        self.fnr.append(report.false_negative_rate)
        self.fpr.append(report.false_positive_rate)


class Workload:
    """Base class: set-up, one timed step, and its check."""

    name = ""
    #: Scenarios one engine step advances together (``fluid.*``
    #: metrics are per scenario-step).
    lockstep_width = 1
    #: Operations one step performs (counted as failed if it raises).
    ops_per_step = 1

    def __init__(self, shape: str = "full") -> None:
        if shape not in ("full", "tiny"):
            raise ValueError(f"unknown shape {shape!r}")
        self.shape = shape
        self.quality = Quality()
        self.notes: List[str] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def step(self) -> Step:
        raise NotImplementedError

    def check(self, step: Step) -> None:
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values measured outside the trace."""
        return {}

    def close(self) -> None:
        """Release pools and other resources set-up created."""


class _EmulationWorkload(Workload):
    """Shared scenario rotation and check for the emulation workloads.

    Run seed ``s`` steps through the emulation seeds ``4s … 4s+3`` in
    turn, so the median of a run spans several scenarios instead of
    repeating one.

    Every verdict must equal the sharded pipeline
    (:func:`repro.core.sharding.infer_sharded`, one shard per link,
    inline) run on the same emulated records — a second
    implementation of Algorithms 1/2 that the program holds bitwise
    equal to the monolithic one — and its digest must equal the
    digest pinned for the emulation seed, or, for a seed without a
    pin, the digest of that seed's first step in the run.

    The frozen reference (:mod:`repro.core.algorithm_reference`) is
    not used here: it computes the expected-mode indicator as
    ``L·(m/M)/m`` and so rounds an interval whose loss fraction sits
    exactly on the threshold (1 lost of 100 sent) to the other side,
    which emulated integer counters do hit.
    """

    SCENARIOS = 4

    def _rotate(self, seed: int) -> None:
        self.emulation_seeds = [
            self.SCENARIOS * seed + k for k in range(self.SCENARIOS)
        ]
        self._next = 0
        self.expected = {
            e: pinned(self.name, e) if self.shape == "full" else None
            for e in self.emulation_seeds
        }
        missing = [e for e, want in self.expected.items() if want is None]
        if missing and self.shape == "full":
            self.notes.append(
                f"no pinned digests for emulation seeds {missing}: "
                "verdicts checked against the sharded pipeline and the "
                "seed's first step"
            )

    def _next_seed(self) -> int:
        seed = self.emulation_seeds[self._next % self.SCENARIOS]
        self._next += 1
        return seed

    def check(self, step: Step) -> None:
        seed, settings, outcomes = step.payload
        got = [digest(o.algorithm) for o in outcomes]
        if self.expected[seed] is None:
            self.expected[seed] = got
        for v, outcome in enumerate(outcomes):
            what = f"{self.name} seed {seed} scenario {v}"
            net = outcome.inference_network
            plan = ShardPlan.from_link_partition(
                net, {lid: lid for lid in net.link_ids}
            )
            _, sharded = infer_sharded(
                net,
                outcome.emulation.measurements,
                plan,
                settings=settings,
                workers=1,
            )
            require_same_verdict(
                outcome.algorithm, sharded, f"{what} vs sharded"
            )
            want = self.expected[seed][v]
            if got[v] != want:
                raise CheckFailed(
                    f"{what}: verdict digest {got[v]} != expected {want}"
                )
            self.quality.add(outcome.quality)


class TopoB(_EmulationWorkload):
    """Topology B at paper length through ``run_topology_b``."""

    name = "topo_b"
    POLICING_RATE = 0.15

    def setup(self, seed: int) -> None:
        self._rotate(seed)
        duration = 300.0 if self.shape == "full" else 60.0
        self.settings = TOPOLOGY_B_SETTINGS.quick(duration)
        # Warm-up: a 1 s emulation of the same network fills the lazy
        # caches the timed runs would otherwise pay for once. (Short
        # runs leave some slice family without an all-traffic
        # interval, so the warm-up stops before inference.)
        topo = build_multi_isp(policing_rate=self.POLICING_RATE)
        get_substrate("fluid").run(
            topo.network,
            topo.classes,
            normalize_specs(topo.link_specs),
            table3_workloads(topo),
            self.settings.quick(1.0).with_seed(self.emulation_seeds[0]),
        )

    def step(self) -> Step:
        seed = self._next_seed()
        settings = self.settings.with_seed(seed)
        t0 = time.perf_counter()
        with telemetry.span("bench.run_topology_b"):
            report = run_topology_b(settings, self.POLICING_RATE)
        dt = time.perf_counter() - t0
        outcome = report.outcome
        return Step(
            latencies=[dt],
            records=int(outcome.emulation.measurements.sent_matrix.size),
            verdicts=[outcome.algorithm],
            payload=(seed, settings, [outcome]),
        )


class FederatedSweep(_EmulationWorkload):
    """B link-spec variants of a federated topology in one batch."""

    name = "federated_sweep"
    #: Neutral, then c2 policing on one backbone link at three rates.
    RATES = (None, 0.15, 0.3, 0.5)
    POLICED = "b0_1"
    lockstep_width = len(RATES)
    ops_per_step = len(RATES)

    def setup(self, seed: int) -> None:
        self._rotate(seed)
        isps, hosts, duration = (
            (4, 5, 20.0) if self.shape == "full" else (2, 3, 2.0)
        )
        net = build_federated_multi_isp(isps, hosts).network
        self.net = net
        # Class c2 on alternate paths; the Table-3 light mix (four
        # copies) everywhere.
        self.classes = classes_from_mapping(
            net,
            {
                pid: ("c2" if i % 2 else "c1")
                for i, pid in enumerate(net.path_ids)
            },
        )
        light = group_workload(TABLE3["light"], parallel_copies=4)
        self.workloads = {pid: light for pid in net.path_ids}
        self.truth = [
            () if rate is None else (self.POLICED,) for rate in self.RATES
        ]
        self.settings = EmulationSettings(duration_seconds=duration)
        variants = [self._specs(rate) for rate in self.RATES]
        self.batches = {
            e: ScenarioBatch.compile(
                net,
                self.classes,
                self.workloads,
                variants,
                [e] * len(self.RATES),
            )
            for e in self.emulation_seeds
        }
        # Warm-up: a 1 s lockstep batch (0.5 s warm-up, 0.5 s measured).
        run_scenario_batch(
            self.batches[self.emulation_seeds[0]],
            EmulationSettings(duration_seconds=0.5, warmup_seconds=0.5),
        )

    def _specs(self, rate) -> Dict[str, FluidLinkSpec]:
        specs = {}
        for lid in self.net.link_ids:
            policer = (
                PolicerSpec(target_class="c2", rate_fraction=rate)
                if rate is not None and lid == self.POLICED
                else None
            )
            capacity = 1000.0 if lid.startswith("a") else 100.0
            specs[lid] = FluidLinkSpec(
                capacity_mbps=capacity, policer=policer
            )
        return specs

    def step(self) -> Step:
        seed = self._next_seed()
        # Per-variant seeds come from the batch; the settings' seed
        # feeds only the sampled-mode normalization RNG.
        settings = self.settings.with_seed(seed)
        t0 = time.perf_counter()
        with telemetry.span("bench.run_scenario_batch"):
            emulations = run_scenario_batch(self.batches[seed], settings)
        outcomes = []
        for emulation, truth in zip(emulations, self.truth):
            with telemetry.span("bench.outcome_from_emulation"):
                outcomes.append(
                    outcome_from_emulation(
                        self.net,
                        self.classes,
                        self.workloads,
                        emulation,
                        settings=settings,
                        ground_truth_links=truth,
                    )
                )
        per_op = (time.perf_counter() - t0) / len(outcomes)
        return Step(
            latencies=[per_op] * len(outcomes),
            records=sum(
                int(o.emulation.measurements.sent_matrix.size)
                for o in outcomes
            ),
            verdicts=[o.algorithm for o in outcomes],
            payload=(seed, settings, outcomes),
        )


class FederatedInfer(Workload):
    """Synthesized records through ``infer_sharded`` on a warm executor."""

    name = "federated_infer"

    def __init__(self, shape: str = "full") -> None:
        super().__init__(shape)
        self.executor: Optional[ShardExecutor] = None
        self.workers = worker_count()
        self.inline_seconds: List[float] = []
        self.pool_setup_seconds = 0.0

    def setup(self, seed: int) -> None:
        self.close()
        isps, hosts, intervals, sets = (
            (8, 13, 240, 3) if self.shape == "full" else (3, 4, 60, 2)
        )
        fed = build_federated_multi_isp(isps, hosts)
        self.net = fed.network
        self.plan = fed.shard_plan()
        self.record_sets: List[MeasurementData] = []
        self.violators: List[Tuple[str, ...]] = []
        for k in range(sets):
            perf, _ = random_two_class_performance(
                np.random.default_rng([seed, k]), self.net, num_violations=4
            )
            self.record_sets.append(
                synthesize_records(
                    perf,
                    np.random.default_rng([seed, k, 1]),
                    num_intervals=intervals,
                )
            )
            self.violators.append(
                tuple(
                    lid
                    for lid in self.net.link_ids
                    if perf.link_performance(lid).for_class("c1")
                    != perf.link_performance(lid).for_class("c2")
                )
            )
        self._inline: Dict[int, object] = {}
        self._next = 0
        # The executor is passed explicitly, so REPRO_INFER_WORKERS is
        # never read. Its pool starts lazily: a small sharded
        # inference starts it here, inside set-up.
        self.executor = ShardExecutor(workers=self.workers)
        warm = build_federated_multi_isp(2, 3)
        perf, _ = random_two_class_performance(
            np.random.default_rng([seed, 99]), warm.network
        )
        warm_data = synthesize_records(
            perf, np.random.default_rng([seed, 98]), num_intervals=20
        )
        t0 = time.perf_counter()
        infer_sharded(
            warm.network, warm_data, warm.shard_plan(), executor=self.executor
        )
        self.pool_setup_seconds = time.perf_counter() - t0

    def step(self) -> Step:
        k = self._next % len(self.record_sets)
        self._next += 1
        data = self.record_sets[k]
        t0 = time.perf_counter()
        with telemetry.span("bench.infer_sharded"):
            _, verdict = infer_sharded(
                self.net, data, self.plan, executor=self.executor
            )
        dt = time.perf_counter() - t0
        return Step(
            latencies=[dt],
            records=int(data.sent_matrix.size),
            verdicts=[verdict],
            payload=(k, verdict),
        )

    def inline_verdict(self, k: int):
        """The ``workers=1`` verdict of record set ``k`` (timed once)."""
        if k not in self._inline:
            t0 = time.perf_counter()
            _, self._inline[k] = infer_sharded(
                self.net, self.record_sets[k], self.plan, workers=1
            )
            self.inline_seconds.append(time.perf_counter() - t0)
        return self._inline[k]

    def check(self, step: Step) -> None:
        k, verdict = step.payload
        require_bitwise(
            verdict,
            self.inline_verdict(k),
            f"federated_infer set {k} vs workers=1",
        )
        self.quality.add(
            evaluate(verdict, self.violators[k], self.net.link_ids)
        )

    def layer_extras(self) -> Dict[str, float]:
        for k in range(len(self.record_sets)):
            self.inline_verdict(k)
        return {
            "parallel.pool_setup_s": self.pool_setup_seconds,
            "parallel.inline_infer_s": float(np.median(self.inline_seconds)),
        }

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


class MonitorReplay(Workload):
    """A federated record stream replayed through ``NeutralityMonitor``.

    The records hold a neutral prefix and then c2 differentiation on
    one backbone link from ``onset`` on. Each step replays the whole
    stream into a fresh monitor: the chunks before the first full
    window are fed untimed, and every later chunk — each of which
    closes exactly one window — is one timed operation.
    """

    name = "monitor_replay"

    def __init__(self, shape: str = "full") -> None:
        super().__init__(shape)
        self.delays: List[int] = []

    def setup(self, seed: int) -> None:
        if self.shape == "full":
            isps, hosts, total, self.window, self.stride = 6, 6, 2400, 600, 25
        else:
            isps, hosts, total, self.window, self.stride = 4, 4, 480, 120, 20
        self.onset = total // 2
        self.settings = EmulationSettings()
        net = build_federated_multi_isp(isps, hosts).network
        self.net = net
        rng = np.random.default_rng([seed, 7])
        classes = two_classes(
            net, [pid for i, pid in enumerate(net.path_ids) if i % 2]
        )
        base = {lid: float(rng.uniform(0.0, 0.02)) for lid in net.link_ids}
        backbone = [lid for lid in net.link_ids if lid.startswith("b")]
        bad = self.violator = backbone[int(rng.integers(len(backbone)))]
        clean = neutral_performance(net, classes, base)
        violated = performance_with_violations(
            net,
            classes,
            base,
            {bad: {"c1": base[bad], "c2": base[bad] + 0.45}},
        )
        pre = synthesize_records(clean, rng, num_intervals=self.onset)
        post = synthesize_records(
            violated, rng, num_intervals=total - self.onset
        )
        self.data = MeasurementData.from_matrices(
            pre.path_ids,
            np.concatenate([pre.sent_matrix, post.sent_matrix], axis=1),
            np.concatenate([pre.lost_matrix, post.lost_matrix], axis=1),
            pre.interval_seconds,
        )
        self.chunks = list(ReplayStream(self.data, self.stride))
        self.ops_per_step = sum(
            1 for c in self.chunks if c.end_interval >= self.window
        )
        self._new_monitor()  # builds the slice batch once

    def _new_monitor(self) -> NeutralityMonitor:
        monitor = NeutralityMonitor(
            self.net,
            self.settings,
            window_intervals=self.window,
            stride=self.stride,
        )
        monitor.stats.reserve(self.data.num_intervals)
        return monitor

    def step(self) -> Step:
        with telemetry.span(UNTIMED):
            monitor = self._new_monitor()
        latencies: List[float] = []
        records = 0
        for chunk in self.chunks:
            if chunk.end_interval < self.window:
                with telemetry.span(UNTIMED):
                    monitor.observe(chunk)
                continue
            t0 = time.perf_counter()
            with telemetry.span("bench.observe"):
                monitor.observe(chunk)
            latencies.append(time.perf_counter() - t0)
            records += int(chunk.sent.size)
        return Step(
            latencies=latencies,
            records=records,
            verdicts=[w.result for w in monitor.windows if w.informative],
            payload=monitor,
        )

    def check(self, step: Step) -> None:
        monitor = step.payload
        windows = monitor.windows
        if len(windows) != len(step.latencies):
            raise CheckFailed(
                f"monitor_replay: {len(windows)} windows for "
                f"{len(step.latencies)} window-closing chunks"
            )
        last = windows[-1]
        if not last.informative:
            raise CheckFailed("monitor_replay: last window uninformative")
        _, offline = infer_from_measurements(
            self.net,
            monitor.stats.window_data(last.start_interval, last.end_interval),
            settings=self.settings,
        )
        require_same_verdict(
            last.result, offline, "monitor_replay last window"
        )
        onsets = [cp for cp in monitor.change_points if cp.kind == "onset"]
        early = [cp for cp in onsets if cp.interval <= self.onset]
        if early:
            raise CheckFailed(
                f"monitor_replay: onset on {'+'.join(early[0].sigma)} at "
                f"interval {early[0].interval}, not after the true onset "
                f"{self.onset}"
            )
        hits = [cp for cp in onsets if self.violator in cp.sigma]
        if not hits:
            raise CheckFailed(
                "monitor_replay: no onset on the violating link "
                f"{self.violator}"
            )
        self.delays.append(hits[0].interval - self.onset)
        self.quality.add(
            evaluate(last.result, (self.violator,), self.net.link_ids)
        )


WORKLOADS = {
    cls.name: cls
    for cls in (TopoB, FederatedSweep, FederatedInfer, MonitorReplay)
}
