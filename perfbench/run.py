"""Records→verdict benchmark: the command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload topo_b --seed 1 --seconds 20 \\
        --trace 0

Sets the workload up from the seed (several times; the median is
``setup_s``), then runs operations until ``--seconds`` of operation
time have been measured, checking every verdict outside the timed
region. Human-readable lines start with ``#``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run
measures half its time untraced and half traced and reports the
per-layer metrics instead.

Exit codes: 0 after printing a result, 2 when the program's source
tree is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A step that raises this many times in a row ends the measurement.
MAX_CONSECUTIVE_ERRORS = 3

#: BLAS thread pools are pinned to one thread before numpy loads, so
#: a run uses one core per process: the single-process workloads do
#: not spin a second core in idle BLAS threads, and federated_infer's
#: nproc pool workers do not oversubscribe the machine.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)

UNITS = {
    "setup_s": "s",
    "e2e_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

NAN = float("nan")


@dataclass
class Measurement:
    latencies: List[float] = field(default_factory=list)
    records: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def median(self) -> float:
        if not self.latencies:
            return NAN
        return statistics.median(self.latencies)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, or NaN unless at least ten samples
        lie beyond it."""
        n = len(self.latencies)
        if n * (1.0 - q / 100.0) < 10:
            return NAN
        ordered = sorted(self.latencies)
        return ordered[min(n - 1, int(round(q / 100.0 * (n - 1))))]


def measure(
    wl,
    seconds: float,
    around_step: Optional[Callable] = None,
    on_step: Optional[Callable] = None,
) -> Measurement:
    """Step ``wl`` until ``seconds`` of operation time are measured.

    The budget counts the timed operations only, so checks (which run
    between steps) do not eat into the sample. A step that raises or
    fails its check counts all its operations as failed.
    """
    m = Measurement()
    consecutive = 0
    while m.busy < seconds and consecutive < MAX_CONSECUTIVE_ERRORS:
        # Garbage left by the previous step is collected outside the
        # timed region, not inside the next operation.
        step = None
        gc.collect()
        try:
            if around_step is None:
                step = wl.step()
            else:
                with around_step():
                    step = wl.step()
        except Exception:  # boundary: record the failure and go on
            consecutive += 1
            m.attempted += wl.ops_per_step
            m.failed += wl.ops_per_step
            m.errors.append(traceback.format_exc(limit=4))
            continue
        consecutive = 0
        ops = len(step.latencies)
        m.attempted += ops
        m.latencies.extend(step.latencies)
        m.records += step.records
        if on_step is not None:
            on_step(step)
        try:
            wl.check(step)
        except Exception as exc:  # CheckFailed, or a check that crashed
            m.failed += ops
            m.errors.append(f"{type(exc).__name__}: {exc}")
    return m


def _say(line: str = "") -> None:
    print(f"# {line}".rstrip(), flush=True)


def _fmt(value: float) -> str:
    return "n/a" if value != value else f"{value:.6g}"


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: the program's source tree is missing "
            f"({SRC}/repro)",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [ROOT, SRC]


def stop_helper_processes() -> None:
    """Stop every process multiprocessing started here, and wait for it.

    Called once, as the command line exits. The executor's pool is
    gone once the workload is closed, but the first shared-memory
    segment also started multiprocessing's resource tracker, a process
    that would otherwise outlive this one by a moment and be left
    unreaped. Live segments are unlinked first, so nothing asks the
    tracker to restart afterwards.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    shm = sys.modules.get("repro.parallel.shm")
    if shm is not None:
        shm.REGISTRY.unlink_all()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _context(args, wl) -> None:
    import numpy

    from repro.fluid import kernels

    _say(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} "
        f"backend={kernels.active_backend()} "
        f"workers={getattr(wl, 'workers', 1)} nproc={os.cpu_count()} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def _report_end_to_end(wl, setup: List[float], m: Measurement) -> dict:
    n = len(m.latencies)
    # Every operation of a workload brings the same number of records
    # to a verdict, so throughput is taken at the median operation:
    # one slow operation in a short run then moves it no more than it
    # moves e2e_s.
    per_op = m.records / n if n else NAN
    metrics = {
        "setup_s": statistics.median(setup),
        "e2e_s": m.median(),
        "records_per_s": per_op / m.median() if n else NAN,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    counts = {
        "setup_s": f"median of n={len(setup)} set-ups",
        "e2e_s": f"median of n={n} operations",
        "records_per_s": f"{_fmt(per_op)} records per operation / median",
        "peak_rss_mb": "benchmark process, whole run",
    }
    for name, value in metrics.items():
        _say(f"{name} = {_fmt(value)} {UNITS[name]} ({counts[name]})")
    if n <= 50:
        _say("operation seconds: " + " ".join(f"{x:.4f}" for x in m.latencies))
    # The other end-to-end metrics, printed but not gated:
    # each is defined on one workload only, or deterministic per seed
    # (and often exactly 0).
    p95 = m.percentile(95)
    _say(f"e2e_p95_s = {_fmt(p95)} s (n={n}; n/a below 200 samples)")
    if wl.name == "monitor_replay":
        p50 = m.median()
        _say(f"window_p50_ms = {_fmt(p50 * 1e3)} ms (n={n} windows)")
        _say(f"window_p95_ms = {_fmt(p95 * 1e3)} ms (n={n} windows)")
        intervals = m.records / len(wl.net.path_ids)
        _say(
            f"replay_intervals_per_s = {_fmt(intervals / m.busy)} 1/s "
            f"({intervals:.0f} intervals)"
        )
        if wl.delays:
            _say(
                f"detect_delay_intervals = {statistics.median(wl.delays)} "
                f"(median of n={len(wl.delays)} replays)"
            )
    q = wl.quality
    if q.fnr:
        for name, values in (("fnr", q.fnr), ("fpr", q.fpr)):
            _say(
                f"{name} = {_fmt(statistics.mean(values))} "
                f"(mean of n={len(values)} verdicts)"
            )
    frac = m.failed / m.attempted if m.attempted else NAN
    _say(
        f"failed_frac = {_fmt(frac)} "
        f"({m.failed} of {m.attempted} operations)"
    )
    return metrics


def _report_layers(wl, untraced: Measurement, traced: Measurement, tr):
    from perfbench.tracing import layer_metrics

    extras = dict(wl.layer_extras())
    extras["e2e_s"] = untraced.median()
    extras["traced_e2e_s"] = traced.median()
    ops = len(traced.latencies)
    metrics = layer_metrics(wl, tr, ops, extras)
    _say(
        f"traced e2e_s = {_fmt(extras['traced_e2e_s'])} s (n={ops}), "
        f"untraced e2e_s = {_fmt(extras['e2e_s'])} s "
        f"(n={len(untraced.latencies)}), tracing overhead = "
        f"{_fmt(metrics['trace.overhead_s'])} s per operation"
    )
    _say(f"self-time breakdown per operation ({ops} traced operations):")
    _say(f"{'span':<34} {'total_s':>11} {'self_s':>11} {'calls':>10}")
    by_self = sorted(tr.spans.items(), key=lambda kv: -kv[1].self_time)
    for name, tot in by_self:
        _say(
            f"{name:<34} {tot.total / ops:>11.6f} "
            f"{tot.self_time / ops:>11.6f} {tot.calls / ops:>10.1f}"
        )
    for name, value in metrics.items():
        _say(f"{name} = {_fmt(value)}")
    if extras.get("parallel.inline_infer_s"):
        _say(
            "parallel.speedup base: workers=1 "
            f"{_fmt(extras['parallel.inline_infer_s'])} s / "
            f"workers={wl.workers} {_fmt(extras['e2e_s'])} s per record set"
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="records→verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    from perfbench.tracing import Tracing, layer_unit
    from perfbench.workloads import WORKLOADS
    from repro import telemetry

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"one of {sorted(WORKLOADS)}"
        )
    # End-to-end metrics are measured with tracing off, whatever the
    # environment says; only the traced half of --trace 1 enables it.
    telemetry.configure(enabled=False)
    wl = None
    try:
        wl = WORKLOADS[args.workload](args.shape)
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(args.seed)
            setup.append(time.perf_counter() - t0)
        _context(args, wl)
        if args.trace:
            untraced = measure(wl, args.seconds / 2)
            with Tracing() as tr:
                traced = measure(
                    wl,
                    args.seconds / 2,
                    around_step=tr.step,
                    on_step=lambda step: tr.verdicts.extend(step.verdicts),
                )
            metrics = _report_layers(wl, untraced, traced, tr)
            runs = (untraced, traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            m = measure(wl, args.seconds)
            metrics = _report_end_to_end(wl, setup, m)
            runs = (m,)
            units = UNITS
        for note in dict.fromkeys(wl.notes):
            _say(note)
    finally:
        if wl is not None:
            wl.close()
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for err in r.errors[:5]:
            print(err, file=sys.stderr)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": value if value == value else None,
                "unit": units[name],
            }
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        code = main()
    finally:
        stop_helper_processes()
    sys.exit(code)
