"""The benchmark's own tests: metric names, failure accounting, smoke.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root. Every workload runs at its ``tiny`` shape.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.tracing import Tracing
from perfbench.workloads import WORKLOADS, FederatedInfer, FederatedSweep

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def _tiny(workload, seconds="0.3", trace="0"):
    return (
        "--workload", workload, "--seed", "0", "--seconds", seconds,
        "--trace", trace, "--shape", "tiny",
    )


def test_benchmark_json_names_the_workloads():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_printed_metric_names_match_benchmark_json(capsys, trace, section):
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    result = _result(capsys, *_tiny("monitor_replay", trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(capsys, workload):
    result = _result(capsys, *_tiny(workload))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_parallel_verdict_counts_as_failed():
    wl = FederatedInfer("tiny")
    wl.setup(0)
    real_step = wl.step

    def wrong_step():
        step = real_step()
        k, verdict = step.payload
        scores = {sigma: s + 1.0 for sigma, s in verdict.scores.items()}
        step.payload = (k, dataclasses.replace(verdict, scores=scores))
        return step

    wl.step = wrong_step
    try:
        m = run.measure(wl, 0.05)
    finally:
        wl.close()
    assert m.attempted >= 1 and m.failed == m.attempted
    assert "not bitwise equal" in m.errors[0]


def test_wrong_verdict_digest_counts_as_failed():
    wl = FederatedSweep("tiny")
    wl.setup(0)
    wl.expected = {e: ["0" * 32] * len(wl.RATES) for e in wl.emulation_seeds}
    m = run.measure(wl, 0.01)
    assert m.attempted == len(wl.RATES) and m.failed == m.attempted
    assert "verdict digest" in m.errors[0]


def test_a_raising_step_counts_as_failed():
    wl = FederatedInfer("tiny")
    wl.setup(0)

    def broken_step():
        raise RuntimeError("injected")

    wl.step = broken_step
    try:
        m = run.measure(wl, 1.0)
    finally:
        wl.close()
    assert m.attempted == m.failed == run.MAX_CONSECUTIVE_ERRORS
    assert not m.latencies


def test_tracing_restores_the_program():
    from repro import telemetry
    from repro.fluid import engine
    from repro.fluid.tcp import TcpArrayState
    from repro.streaming.window import SlidingWindowStats

    before = (
        TcpArrayState.advance,
        engine._allocate_bursts,
        SlidingWindowStats.append,
    )
    with Tracing():
        assert telemetry.enabled()
        assert TcpArrayState.advance is not before[0]
    after = (
        TcpArrayState.advance,
        engine._allocate_bursts,
        SlidingWindowStats.append,
    )
    assert after == before
    assert not telemetry.enabled()


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process ended while being listed
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_command_line_leaves_no_process_behind():
    # federated_infer starts a worker pool and, through shared memory,
    # multiprocessing's resource tracker; none may outlive the command.
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"),
         *_tiny("federated_infer")],
        cwd=run.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    # The command is the session leader, so its session id is its pid.
    assert _session_members(proc.pid) == []
