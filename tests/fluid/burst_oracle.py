"""The per-path droptail burst allocator, frozen as a reference.

This is the per-(scenario, path) loop both fluid engines ran before
they shared :func:`repro.fluid.engine._allocate_bursts`: one
``rng.random``, ``argsort`` and ``cumsum`` per bursty path. It takes
the allocator's arguments, so it can stand in for it through the
module attribute. ``tests/fluid/test_burst_allocation.py`` pins the
vectorized allocator to it bit for bit (values written and RNG stream
position), and ``benchmarks/bench_bursts.py`` times the two against
each other on a whole emulation.
"""

import numpy as np


def allocate_bursts_per_path(
    rngs, path_burst, path_send, path_slots, send, slot_burst
) -> None:
    num_scenarios = len(rngs)
    path_burst = path_burst.reshape(num_scenarios, -1)
    path_send = path_send.reshape(num_scenarios, -1)
    slots_per_scenario = len(send) // num_scenarios
    cand = (path_burst > 0.0) & (path_send > 0.0)
    for b, p in zip(*cand.nonzero()):
        burst = min(float(path_burst[b, p]), float(path_send[b, p]))
        members = path_slots[p]
        members = members[members >= 0] + b * slots_per_scenario
        weights = send[members]
        present = weights > 0.0
        if not present.any():
            continue
        members = members[present]
        weights = weights[present]
        u = rngs[b].random(len(members))
        order = (np.log(-np.log(u)) - np.log(weights)).argsort()
        ordered = weights[order]
        ahead = ordered.cumsum() - ordered
        slot_burst[members[order]] = np.minimum(
            ordered, np.maximum(burst - ahead, 0.0)
        )
