"""Differential harness: parallel ≡ sequential ≡ monolithic.

The DESIGN.md S24 lock on :mod:`repro.parallel`: for any topology,
link partition and worker count (inline, or 2 and 4 threads),
:func:`~repro.core.sharding.infer_sharded` must return *bitwise* the
verdict of its own sequential loop — which is itself pinned bitwise
to the monolithic
:func:`~repro.experiments.runner.infer_from_measurements`. The worker
count is an execution vehicle, never part of the result.

Coverage: a deterministic federated multi-ISP case across workers
1/2/4 (with module-scoped executors reused between tests, locking
warm-pool reuse), plus hypothesis-generated random topologies ×
random partitions × sampled worker counts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.network import Network, Path
from repro.core.sharding import ShardPlan, infer_sharded
from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.parallel import ShardExecutor
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_bitwise_verdict(got, expected):
    assert got.identified == expected.identified
    assert got.identified_raw == expected.identified_raw
    assert got.neutral == expected.neutral
    assert got.skipped == expected.skipped
    assert set(got.scores) == set(expected.scores)
    for sigma, score in expected.scores.items():
        assert got.scores[sigma] == score, sigma


@pytest.fixture(scope="module")
def federated():
    fed = build_federated_multi_isp(3, 4)
    perf, _ = random_two_class_performance(
        np.random.default_rng(31), fed.network, num_violations=3
    )
    data = synthesize_records(
        perf, np.random.default_rng(32), num_intervals=240
    )
    plan = fed.shard_plan()
    _, mono = infer_from_measurements(fed.network, data)
    _, seq = infer_sharded(fed.network, data, plan, workers=1)
    _assert_bitwise_verdict(seq, mono)
    return fed.network, data, plan, mono


@pytest.fixture(scope="module")
def warm_executors():
    """Module-scoped executors: every parametrized case below reuses
    the same warm pools, so pool persistence across runs is itself
    under test."""
    executors = {workers: ShardExecutor(workers=workers) for workers in (2, 4)}
    yield executors
    for ex in executors.values():
        ex.close()


class TestFederatedParallel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_are_invisible(self, federated, workers):
        net, data, plan, mono = federated
        _, par = infer_sharded(net, data, plan, workers=workers)
        _assert_bitwise_verdict(par, mono)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_consecutive_runs_on_one_executor(
        self, federated, warm_executors, workers
    ):
        net, data, plan, mono = federated
        ex = warm_executors[workers]
        runs_before = ex.runs
        _, first = infer_sharded(net, data, plan, executor=ex)
        _, second = infer_sharded(net, data, plan, executor=ex)
        _assert_bitwise_verdict(first, mono)
        _assert_bitwise_verdict(second, mono)
        assert ex.runs == runs_before + 2


# ----------------------------------------------------------------------
# Hypothesis: random topologies × partitions × worker counts
# ----------------------------------------------------------------------


@st.composite
def random_parallel_cases(draw):
    num_links = draw(st.integers(3, 7))
    links = [f"l{k}" for k in range(num_links)]
    num_paths = draw(st.integers(3, 6))
    paths = []
    for i in range(num_paths):
        size = draw(st.integers(1, min(4, num_links)))
        chosen = draw(
            st.permutations(links).map(lambda p: tuple(p[:size]))
        )
        paths.append(Path(f"p{i}", chosen))
    net = Network(links, paths)
    num_shards = draw(st.integers(2, 3))
    owner_of = {
        lid: f"s{draw(st.integers(0, num_shards - 1))}" for lid in links
    }
    seed = draw(st.integers(0, 2**16))
    workers = draw(st.sampled_from([2, 4]))
    return net, owner_of, seed, workers


@_SETTINGS
@given(random_parallel_cases())
def test_random_parallel_matches_sequential(case):
    net, owner_of, seed, workers = case
    rng = np.random.default_rng(seed)
    perf, _ = random_two_class_performance(rng, net, num_violations=1)
    data = synthesize_records(perf, rng, num_intervals=60)
    plan = ShardPlan.from_link_partition(net, owner_of)
    # min_pathsets=1 examines every σ — exercises the merge on groups
    # the default threshold would hide on tiny nets.
    _, seq = infer_sharded(net, data, plan, min_pathsets=1, workers=1)
    _, par = infer_sharded(
        net, data, plan, min_pathsets=1, workers=workers
    )
    _assert_bitwise_verdict(par, seq)
