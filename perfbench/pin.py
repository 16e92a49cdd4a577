"""Pin the verdict digests of the emulation workloads.

Usage (from the repository root)::

    python3 perfbench/pin.py --workload topo_b --seeds 0-9

For every run seed the workload is set up and stepped once per
emulation seed it rotates through (``4s … 4s+3``); each step is
checked against the sharded pipeline and its verdict digests (one
per scenario) are merged into ``pins.json`` under the emulation
seed. Re-pin only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.verdicts import PINS_PATH, load_pins  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

PINNABLE = ("topo_b", "federated_sweep")


def _seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=PINNABLE, required=True)
    parser.add_argument("--seeds", required=True, help="run seeds, e.g. 0-9")
    args = parser.parse_args(argv)
    pins = load_pins()
    table = pins.setdefault(args.workload, {})
    for seed in _seeds(args.seeds):
        wl = WORKLOADS[args.workload]()
        wl.setup(seed)
        wl.expected = dict.fromkeys(wl.emulation_seeds)
        for emulation_seed in wl.emulation_seeds:
            t0 = time.perf_counter()
            step = wl.step()
            wall = time.perf_counter() - t0
            wl.check(step)  # raises CheckFailed on a sharded mismatch
            table[str(emulation_seed)] = wl.expected[emulation_seed]
            print(
                f"{args.workload} emulation seed {emulation_seed}: "
                f"{wall:.2f} s",
                flush=True,
            )
        with open(PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
