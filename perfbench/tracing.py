"""The traced run: spans around every layer, self time, per-layer metrics.

Tracing is on only inside :class:`Tracing`. It enables the program's
in-memory :mod:`repro.telemetry` tracer (so the program's own spans —
``experiment.emulate``, ``infer.*``, ``infer.merge``,
``monitor.window`` — are recorded) and, for the duration of the run,
wraps three hot functions in bench-owned spans:

* ``TcpArrayState.advance`` → ``fluid.tcp_advance``
* ``repro.fluid.engine._allocate_bursts`` → ``fluid.allocate_bursts``
* ``SlidingWindowStats.append`` → ``streaming.append``

Everything is restored on exit. Spans are drained after every step
and folded into per-name totals at once, so memory stays flat; a
span's self time is its duration minus the durations of its direct
children. Spans under a ``bench.untimed`` span (work a step does
outside its timed operations) and spans opened by checks are dropped.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

from repro import telemetry
from repro.fluid import engine as fluid_engine
from repro.fluid.tcp import TcpArrayState
from repro.streaming.window import SlidingWindowStats

UNTIMED = "bench.untimed"

#: Registry counters read as per-step deltas (summed over labels).
COUNTERS = (
    "repro_engine_steps_total",
    "repro_engine_rng_draws_total",
    "repro_sharded_pairs_total",
    "repro_parallel_shard_tasks_total",
)


@dataclass
class SpanTotals:
    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)


def _counter_totals() -> Dict[str, float]:
    snapshot = telemetry.get_registry().to_json()
    return {
        name: sum(s["value"] for s in snapshot.get(name, {}).get("series", ()))
        for name in COUNTERS
    }


def _wrap(owner, attr: str, span_name: str):
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        with telemetry.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)
    return original


class Tracing:
    """Context manager for the traced half of a ``--trace 1`` run."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanTotals] = {}
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self.verdicts: list = []
        self._restore: List = []
        self._tracer = None

    def __enter__(self) -> "Tracing":
        self._tracer = telemetry.get_tracer()
        telemetry.reset_registry()
        telemetry.configure(enabled=True)
        for owner, attr, name in (
            (TcpArrayState, "advance", "fluid.tcp_advance"),
            (fluid_engine, "_allocate_bursts", "fluid.allocate_bursts"),
            (SlidingWindowStats, "append", "streaming.append"),
        ):
            self._restore.append((owner, attr, _wrap(owner, attr, name)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        prev = self._tracer
        telemetry.configure(prev.enabled, prev.trace_path, prev.run_id)
        telemetry.reset_registry()

    @contextmanager
    def step(self):
        """Trace one workload step (wrap only the ``step()`` call)."""
        tracer = telemetry.get_tracer()
        tracer.drain()  # spans a previous check opened
        before = _counter_totals()
        with tracer.span("bench.step"):
            yield
        after = _counter_totals()
        for name in COUNTERS:
            self.counters[name] += after[name] - before[name]
        self._fold(tracer.drain())

    def _fold(self, records) -> None:
        by_id = {r["span"]: r for r in records}
        child_time: Dict[str, float] = {}
        for r in records:
            if r["parent"] is not None:
                parent = r["parent"]
                child_time[parent] = child_time.get(parent, 0.0) + r["dur"]

        def untimed(r) -> bool:
            while r is not None:
                if r["name"] == UNTIMED:
                    return True
                r = by_id.get(r["parent"])
            return False

        for r in records:
            if untimed(r):
                continue
            tot = self.spans.setdefault(r["name"], SpanTotals())
            tot.total += r["dur"]
            tot.self_time += r["dur"] - child_time.get(r["span"], 0.0)
            tot.calls += 1
            for key, value in r["attrs"].items():
                if isinstance(value, (bool, int, float)):
                    tot.attrs[key] = tot.attrs.get(key, 0.0) + float(value)

    def total(self, name: str) -> float:
        return self.spans.get(name, SpanTotals()).total

    def calls(self, name: str) -> int:
        return self.spans.get(name, SpanTotals()).calls

    def attr(self, name: str, key: str) -> float:
        return self.spans.get(name, SpanTotals()).attrs.get(key, 0.0)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name == "parallel.speedup":
        return "ratio"
    if name.startswith("fluid.us_"):
        return "us"
    return "count"


def layer_metrics(
    wl, tr: Tracing, ops: int, extras: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics, per operation of the traced half.

    ``extras`` carries values measured outside the trace
    (``parallel.*`` set-up and inline timings, the untraced e2e_s).
    """
    per = 1.0 / max(ops, 1)
    emulate = tr.total("experiment.emulate") + tr.total(
        "bench.run_scenario_batch"
    )
    tcp = tr.total("fluid.tcp_advance")
    burst = tr.total("fluid.allocate_bursts")
    counters = tr.counters
    scenario_steps = counters["repro_engine_steps_total"] * wl.lockstep_width
    examined = [len(v.identified_raw) + len(v.neutral) for v in tr.verdicts]
    skipped = [len(v.skipped) for v in tr.verdicts]
    windows = tr.calls("monitor.window")
    inline = extras.get("parallel.inline_infer_s", 0.0)
    untraced = extras["e2e_s"]
    return {
        "fluid.emulate_s": emulate * per,
        "fluid.steps": scenario_steps * per,
        "fluid.us_per_scenario_step": (
            emulate * 1e6 / scenario_steps if scenario_steps else 0.0
        ),
        "fluid.tcp_s": tcp * per,
        "fluid.tcp_calls": tr.calls("fluid.tcp_advance") * per,
        "fluid.burst_s": burst * per,
        "fluid.burst_calls": tr.calls("fluid.allocate_bursts") * per,
        "fluid.self_s": (emulate - tcp - burst) * per,
        "fluid.rng_draws": counters["repro_engine_rng_draws_total"] * per,
        "runner.infer_s": tr.total("infer") * per,
        "core.slices_s": tr.total("infer.slices") * per,
        "measurement.normalize_s": tr.total("infer.normalize") * per,
        "core.score_s": tr.total("infer.score") * per,
        "core.sigmas": sum(examined) / len(examined) if examined else 0.0,
        "core.skipped_frac": (
            sum(skipped) / (sum(skipped) + sum(examined))
            if sum(skipped) + sum(examined)
            else 0.0
        ),
        "sharding.infer_s": tr.total("bench.infer_sharded") * per,
        "sharding.merge_s": tr.total("infer.merge") * per,
        "sharding.pairs": counters["repro_sharded_pairs_total"] * per,
        "parallel.shard_tasks": (
            counters["repro_parallel_shard_tasks_total"] * per
        ),
        "parallel.shm_mb": tr.attr("infer.sharded", "shm_bytes") / 1e6 * per,
        "parallel.pool_setup_s": extras.get("parallel.pool_setup_s", 0.0),
        "parallel.inline_infer_s": inline,
        "parallel.speedup": inline / untraced if inline else 0.0,
        "streaming.append_s": tr.total("streaming.append") * per,
        "streaming.window_s": tr.total("monitor.window") * per,
        "streaming.windows": float(windows),
        "streaming.informative_frac": (
            tr.attr("monitor.window", "informative") / windows
            if windows
            else 0.0
        ),
        "trace.overhead_s": extras["traced_e2e_s"] - untraced,
        "trace.overhead_frac": (extras["traced_e2e_s"] - untraced) / untraced,
    }
