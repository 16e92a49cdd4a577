"""Vectorized droptail burst allocation ≡ the per-path loop, bit for bit.

Both fluid engines allocate burst drops through one vectorized
:func:`repro.fluid.engine._allocate_bursts`. Its contract is the
frozen per-path loop in ``burst_oracle.py``: the same values written
to the same slots, nothing written elsewhere, and every scenario's
generator left at the same stream position.
"""

import numpy as np
import pytest
from burst_oracle import allocate_bursts_per_path
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classes import two_classes
from repro.fluid import engine
from repro.fluid.batch import FluidBatchNetwork
from repro.fluid.engine import FluidNetwork, _path_member_table
from repro.fluid.params import FlowSlotSpec, FluidLinkSpec, PathWorkload
from repro.topology.generators import star_network

#: Marks slot_burst entries the allocator must leave alone.
SENTINEL = -7.0


@st.composite
def _burst_inputs(draw):
    num_scenarios = draw(st.integers(1, 4))
    num_paths = draw(st.integers(1, 6))
    num_slots = draw(st.integers(0, 12))
    # Random slot -> path layout: some paths get no slot, some one.
    spath = np.array(
        draw(
            st.lists(
                st.integers(0, num_paths - 1),
                min_size=num_slots,
                max_size=num_slots,
            )
        ),
        dtype=np.intp,
    )
    send = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                min_size=num_scenarios * num_slots,
                max_size=num_scenarios * num_slots,
            )
        )
    ).reshape(num_scenarios, num_slots)
    for b in range(num_scenarios):
        if draw(st.booleans()) and draw(st.booleans()):
            send[b] = 0.0  # an inactive (retired) scenario
    send = send.reshape(-1)
    path_send = np.bincount(
        (spath + num_paths * np.arange(num_scenarios)[:, None]).reshape(-1),
        weights=send,
        minlength=num_scenarios * num_paths,
    ).reshape(num_scenarios, num_paths)
    if not draw(st.booleans()):
        # Path volumes not backed by the slots' sends: candidate rows
        # whose members are all absent.
        path_send = path_send + np.array(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.5, 40.0]),
                    min_size=num_scenarios * num_paths,
                    max_size=num_scenarios * num_paths,
                )
            )
        ).reshape(num_scenarios, num_paths)
    # Burst volumes below, at and above the path's send.
    factors = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.05, 0.4, 1.0, 2.5]),
                min_size=num_scenarios * num_paths,
                max_size=num_scenarios * num_paths,
            )
        )
    ).reshape(num_scenarios, num_paths)
    path_burst = path_send * factors
    if not draw(st.booleans()):
        path_burst = path_burst + (factors > 0) * draw(
            st.floats(0.0, 100.0)
        )
    seeds = draw(
        st.lists(
            st.integers(0, 2**32 - 1),
            min_size=num_scenarios,
            max_size=num_scenarios,
        )
    )
    return spath, num_paths, send, path_send, path_burst, seeds


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inputs=_burst_inputs())
def test_vectorized_allocator_matches_per_path_loop(inputs):
    spath, num_paths, send, path_send, path_burst, seeds = inputs
    num_scenarios = len(seeds)
    table = _path_member_table(spath, num_paths)
    for p in range(num_paths):
        row = table[p]
        np.testing.assert_array_equal(
            row[row >= 0], np.nonzero(spath == p)[0]
        )
        assert (row[(row >= 0).sum():] == -1).all()

    want_rngs = [np.random.default_rng(s) for s in seeds]
    got_rngs = [np.random.default_rng(s) for s in seeds]
    want = np.full(len(send), SENTINEL)
    got = np.full(len(send), SENTINEL)
    allocate_bursts_per_path(
        want_rngs, path_burst, path_send, table, send, want
    )
    engine._allocate_bursts(
        tuple(got_rngs), path_burst, path_send, table, send, got
    )

    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_rngs, want_rngs):
        assert g.bit_generator.state == w.bit_generator.state

    # Only present members of candidate paths are written, within
    # what each sent.
    slots_per_scenario = len(spath)
    scen = np.repeat(np.arange(num_scenarios), slots_per_scenario)
    path_of = np.tile(spath, num_scenarios)
    eligible = (
        (send > 0.0)
        & (path_burst[scen, path_of] > 0.0)
        & (path_send[scen, path_of] > 0.0)
    )
    assert (got[~eligible] == SENTINEL).all()
    assert (got[eligible] >= 0.0).all()
    assert (got[eligible] <= send[eligible]).all()


def test_burst_above_path_volume_fills_every_present_flow():
    # A burst at least the path's volume lands on every present flow
    # in full; an absent member keeps its value.
    table = _path_member_table(np.array([0, 0, 0], dtype=np.intp), 1)
    send = np.array([2.0, 0.0, 3.0])
    out = np.full(3, SENTINEL)
    engine._allocate_bursts(
        (np.random.default_rng(1),),
        np.array([9.0]), np.array([5.0]), table, send, out,
    )
    np.testing.assert_array_equal(out, [2.0, SENTINEL, 3.0])


def _records(results):
    return [
        (pid, r.measurements.record(pid).sent.tobytes(),
         r.measurements.record(pid).lost.tobytes())
        for r in results
        for pid in r.measurements.path_ids
    ]


@pytest.mark.parametrize("batched", [False, True])
def test_engines_match_with_oracle_swapped_in(monkeypatch, batched):
    """Whole emulations, both engines: the oracle swapped in through
    the module attribute reproduces the same records."""
    net = star_network(4)
    classes = two_classes(net, ["p1", "p2"])
    wl = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=4.0, mean_gap_seconds=0.5),)
            * 3,
            rtt_seconds=0.04,
        )
        for pid in net.path_ids
    }
    spec_sets = [
        {"hub": FluidLinkSpec(capacity_mbps=cap, buffer_rtt_seconds=0.05)}
        for cap in (20.0, 35.0)
    ]
    seeds = [5, 6]

    def run():
        if batched:
            return FluidBatchNetwork(net, classes, spec_sets, wl, seeds).run(
                3.0, warmup_seconds=0.5
            )
        return [
            FluidNetwork(net, classes, specs, wl, seed=seed).run(
                duration_seconds=3.0, warmup_seconds=0.5
            )
            for specs, seed in zip(spec_sets, seeds)
        ]

    calls = []
    vectorized = engine._allocate_bursts

    def counted(*args):
        calls.append(len(args[0]))
        return vectorized(*args)

    monkeypatch.setattr(engine, "_allocate_bursts", counted)
    got = _records(run())
    monkeypatch.setattr(engine, "_allocate_bursts", allocate_bursts_per_path)
    want = _records(run())
    assert got == want
    # Bursts happened, and each engine reached the shared allocator.
    assert calls and set(calls) == {2 if batched else 1}
