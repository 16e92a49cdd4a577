"""Shard topology caches: warm repeats stay bitwise, stale entries miss.

Each shard's topology (σ groups and pair rows) is built once per
topology and reused for every later record set, memoized on the
network. Every case here runs twice through one warm
:class:`~repro.parallel.ShardExecutor` inline and on 2 and 4 threads,
and must equal a ``workers=1`` run on a freshly built network —
across consecutive record sets, across two topologies that share
their path ids but not their incidence, and on a network grown with
:meth:`~repro.core.network.Network.with_paths`.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.network import Network, Path
from repro.core.sharding import ShardPlan, infer_sharded
from repro.exceptions import UnknownPathError
from repro.measurement.synthetic import synthesize_records
from repro.parallel import ShardExecutor, shard_topology
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

WORKERS = [1, 2, 4]
LEG_IDS = ["inline", "thread", "thread4"]


def _federated(num_isps=3, hosts=4):
    fed = build_federated_multi_isp(num_isps, hosts)
    return fed.network, dict(fed.link_owner)


def _rewired(net, owner, seed):
    """Same path and link ids, different incidence: every path keeps
    the owners of its links (so every shard keeps its path ids) but
    moves onto other links of those owners."""
    rng = np.random.default_rng(seed)
    by_owner = {}
    for lid in net.link_ids:
        by_owner.setdefault(owner[lid], []).append(lid)
    paths = []
    for pid in net.path_ids:
        links = net.path(pid).links
        new = []
        for isp in sorted({owner[lid] for lid in links}):
            count = sum(owner[lid] == isp for lid in links)
            pool = by_owner[isp]
            new.extend(pool[k] for k in rng.permutation(len(pool))[:count])
        paths.append(Path(pid, tuple(new)))
    return Network(net.link_ids, paths)


def _records(net, seed, intervals=80):
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), net, num_violations=2
    )
    return synthesize_records(
        perf, np.random.default_rng(seed + 1), num_intervals=intervals
    )


def _fresh_copy(net):
    return Network(net.links.values(), net.paths.values(), net.nodes.values())


def _reference(net, owner, data):
    """``workers=1`` on a freshly built network: no cache can help."""
    fresh = _fresh_copy(net)
    plan = ShardPlan.from_link_partition(fresh, owner)
    return infer_sharded(fresh, data, plan, workers=1)[1]


def _assert_bitwise(got, expected):
    assert got.identified == expected.identified
    assert got.identified_raw == expected.identified_raw
    assert got.neutral == expected.neutral
    assert got.skipped == expected.skipped
    assert got.scores.keys() == expected.scores.keys()
    for sigma, score in expected.scores.items():
        assert np.float64(got.scores[sigma]).tobytes() == (
            np.float64(score).tobytes()
        )


def _eligible(plan):
    return [s.path_ids for s in plan.shards if len(s.path_ids) >= 2]


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_consecutive_record_sets(workers):
    net, owner = _federated()
    plan = ShardPlan.from_link_partition(net, owner)
    sets = [_records(net, seed) for seed in (1, 3, 5)]
    with ShardExecutor(workers=workers) as ex:
        for _ in range(2):
            for data in sets:
                got = infer_sharded(net, data, plan, executor=ex)[1]
                _assert_bitwise(got, _reference(net, owner, data))


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_second_record_set_builds_nothing(workers):
    net, owner = _federated()
    shards = _eligible(ShardPlan.from_link_partition(net, owner))
    params = dict(loss_threshold=0.05, normalization_mode="expected")
    with ShardExecutor(workers=workers) as ex:
        first = ex.run_shards(net, _records(net, 1), shards, **params)
        assert [res.cold for res in first] == [True] * len(shards)
        assert ex.topology_builds == len(shards)
        for seed in (3, 5):
            warm = ex.run_shards(net, _records(net, seed), shards, **params)
            assert [res.cold for res in warm] == [False] * len(shards)
            assert ex.last_topology_builds == 0
        assert ex.topology_builds == len(shards)
        assert ex.shard_tasks == 3 * len(shards)


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_same_path_ids_other_incidence_misses(workers):
    net_a, owner = _federated()
    net_b = _rewired(net_a, owner, seed=7)
    plan_a = ShardPlan.from_link_partition(net_a, owner)
    plan_b = ShardPlan.from_link_partition(net_b, owner)
    # The guard is only tested if the shard identities collide.
    assert net_a.path_ids == net_b.path_ids
    assert [s.path_ids for s in plan_a.shards] == [
        s.path_ids for s in plan_b.shards
    ]
    data_a, data_b = _records(net_a, 1), _records(net_b, 1)
    with ShardExecutor(workers=workers) as ex:
        for _ in range(2):
            for net, plan, data in (
                (net_a, plan_a, data_a),
                (net_b, plan_b, data_b),
            ):
                got = infer_sharded(net, data, plan, executor=ex)[1]
                _assert_bitwise(got, _reference(net, owner, data))


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_with_paths_network(workers):
    full, owner = _federated()
    extra = set(full.path_ids[::5])
    base = full.without_paths(extra)
    base.path_index  # so with_paths patches the index
    grown = base.with_paths(full.path(pid) for pid in sorted(extra))
    plan_base = ShardPlan.from_link_partition(base, owner)
    plan_grown = ShardPlan.from_link_partition(grown, owner)
    data = _records(full, 9)
    with ShardExecutor(workers=workers) as ex:
        for _ in range(2):
            for net, plan in ((base, plan_base), (grown, plan_grown)):
                got = infer_sharded(net, data, plan, executor=ex)[1]
                _assert_bitwise(got, _reference(net, owner, data))


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_two_plans_on_one_network(workers):
    """Per-ISP shards and one shard per link, alternating on one
    network: each plan keeps its own shard topologies and merge."""
    net, per_isp = _federated()
    per_link = {lid: lid for lid in net.link_ids}
    data = _records(net, 11)
    with ShardExecutor(workers=workers) as ex:
        for _ in range(2):
            for owner in (per_isp, per_link):
                plan = ShardPlan.from_link_partition(net, owner)
                got = infer_sharded(net, data, plan, executor=ex)[1]
                _assert_bitwise(got, _reference(net, owner, data))


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_builds_surface_in_telemetry(workers):
    """The build count reaches the metrics registry and the
    ``infer.sharded`` span; tracing leaves the verdicts bitwise."""
    net, owner = _federated()
    plan = ShardPlan.from_link_partition(net, owner)
    sets = [_records(net, seed) for seed in (1, 3)]
    untraced = [_reference(net, owner, data) for data in sets]
    telemetry.configure(enabled=True)
    with ShardExecutor(workers=workers) as ex:
        traced = [
            infer_sharded(net, data, plan, executor=ex)[1] for data in sets
        ]
    spans = telemetry.get_tracer().drain()
    for got, expected in zip(traced, untraced):
        _assert_bitwise(got, expected)
    builds = [
        s["attrs"]["topology_builds"]
        for s in spans
        if s["name"] == "infer.sharded"
    ]
    assert builds == [len(_eligible(plan)), 0]
    series = telemetry.get_registry().to_json()[
        "repro_parallel_topology_builds_total"
    ]["series"]
    assert [entry["value"] for entry in series] == [len(_eligible(plan))]


def test_memo_is_lean_and_per_network():
    net, owner = _federated()
    pids = _eligible(ShardPlan.from_link_partition(net, owner))[0]
    topo, built = shard_topology(net, pids)
    assert built
    assert shard_topology(net, pids) == (topo, False)
    assert topo.pair_a.dtype == np.int32 and topo.pair_b.dtype == np.int32
    for array in (topo.offsets, topo.pair_a, topo.pair_b, topo.rows):
        assert array.base is None  # owns its data, pins no build buffer
    # A copy of the network starts cold and builds an equal artifact.
    again, rebuilt = shard_topology(_fresh_copy(net), pids)
    assert rebuilt
    assert again.sigmas == topo.sigmas
    for a, b in zip(again[1:], topo[1:]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("workers", WORKERS, ids=LEG_IDS)
def test_raising_shard_leaves_executor_usable(workers):
    """A shard that raises fails its run only: the next run on the
    same executor is bitwise again."""
    net, owner = _federated()
    plan = ShardPlan.from_link_partition(net, owner)
    data = _records(net, 1)
    params = dict(loss_threshold=0.05, normalization_mode="expected")
    expected = _reference(net, owner, data)
    with ShardExecutor(workers=workers) as ex:
        with pytest.raises(UnknownPathError):
            ex.run_shards(
                net, data, _eligible(plan) + [("no-such-path",)], **params
            )
        got = infer_sharded(net, data, plan, executor=ex)[1]
        _assert_bitwise(got, expected)
