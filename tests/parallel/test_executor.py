"""ShardExecutor legs vs the sequential pipeline (DESIGN.md S24).

Both legs — inline and threads — must return per-shard
``ShardResult`` arrays bitwise-equal to direct
:func:`~repro.parallel.executor.shard_topology` +
:func:`~repro.parallel.executor.shard_evidence` calls, and no leg may
start a process.
"""

import multiprocessing

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fluid import kernels
from repro.measurement.synthetic import synthesize_records
from repro.parallel import (
    ENV_WORKERS,
    ShardExecutor,
    default_infer_workers,
    shard_evidence,
    shard_topology,
)
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

PARAMS = dict(loss_threshold=0.05, normalization_mode="expected")


def _case(num_isps=3, hosts=4, seed=11, intervals=120):
    fed = build_federated_multi_isp(num_isps, hosts)
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), fed.network, num_violations=2
    )
    data = synthesize_records(
        perf, np.random.default_rng(seed + 1), num_intervals=intervals
    )
    shard_path_ids = [
        shard.path_ids
        for shard in fed.shard_plan().shards
        if len(shard.path_ids) >= 2
    ]
    return fed.network, data, shard_path_ids


def _sequential(net, data, shard_path_ids):
    path_ids = net.path_index.path_ids
    results = []
    for pids in shard_path_ids:
        topo, built = shard_topology(net, pids)
        results.append(
            shard_evidence(topo, data, path_ids, cold=built, **PARAMS)
        )
    return results


def _assert_results_bitwise(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.sigmas == e.sigmas
        np.testing.assert_array_equal(g.offsets, e.offsets)
        np.testing.assert_array_equal(g.keys, e.keys)
        # Bitwise, not approx: the executor contract.
        assert g.estimates.tobytes() == e.estimates.tobytes()


class TestWorkerConfig:
    def test_default_is_inline(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert default_infer_workers() == 1
        assert ShardExecutor().workers == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert default_infer_workers() == 4
        assert ShardExecutor().workers == 4

    @pytest.mark.parametrize("raw", ["zero", "-1", "0"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_WORKERS, raw)
        with pytest.raises(ConfigurationError):
            default_infer_workers()

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=0)


class TestLegs:
    def test_inline_leg_matches_sequential(self):
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=1) as ex:
            got = ex.run_shards(net, data, shards, **PARAMS)
            assert ex._threads is None
        assert ex.last_mode == "inline"
        _assert_results_bitwise(got, expected)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_leg_matches_sequential(self, workers):
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=workers) as ex:
            got = ex.run_shards(net, data, shards, **PARAMS)
            assert ex.last_mode == "thread"
        _assert_results_bitwise(got, expected)

    def test_numpy_backend_runs_threads_and_forks_nothing(self):
        """Under the numpy kernel backend two workers still mean the
        thread leg: no worker process is ever started."""
        assert kernels.active_backend() == "numpy"
        net, data, shards = _case(num_isps=2, hosts=3, intervals=60)
        with ShardExecutor(workers=2) as ex:
            got = ex.run_shards(net, data, shards, **PARAMS)
            assert ex.last_mode == "thread"
            assert multiprocessing.active_children() == []
        assert multiprocessing.active_children() == []
        _assert_results_bitwise(got, _sequential(net, data, shards))

    def test_executor_reuse_across_runs(self):
        """Two consecutive runs on one executor: same thread pool,
        identical results both times."""
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=2) as ex:
            first = ex.run_shards(net, data, shards, **PARAMS)
            pool = ex._threads
            second = ex.run_shards(net, data, shards, **PARAMS)
            assert ex._threads is pool  # warm pool survived
            assert ex.runs == 2
        assert ex._threads is None
        _assert_results_bitwise(first, expected)
        _assert_results_bitwise(second, expected)

    def test_single_shard_runs_inline(self):
        net, data, shards = _case()
        with ShardExecutor(workers=4) as ex:
            got = ex.run_shards(net, data, shards[:1], **PARAMS)
            assert ex._threads is None
        assert ex.last_mode == "inline"
        _assert_results_bitwise(got, _sequential(net, data, shards[:1]))

    def test_close_is_idempotent(self):
        ex = ShardExecutor(workers=2)
        ex.close()
        ex.close()
