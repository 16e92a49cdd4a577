"""Verdict digests, pinned digests and verdict comparisons.

A verdict digest covers Algorithm 1's identified (pruned and raw),
neutral and skipped sequence sets plus every score, the scores
written to ten significant digits so that the digest names the
verdict rather than the last bits of one summation order.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

PINS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "pins.json"
)

#: Relative tolerance for scores compared against an independent
#: implementation (the repository's golden suites use the same bar).
SCORE_RTOL = 1e-9

VERDICT_SETS = ("identified", "identified_raw", "neutral", "skipped")


class CheckFailed(Exception):
    """One operation's output did not match its reference."""


def _seq(sigma) -> str:
    return "+".join(sigma)


def digest(result) -> str:
    """Stable hex digest of one :class:`AlgorithmResult`."""
    record = {
        "identified": sorted(_seq(s) for s in result.identified),
        "identified_raw": sorted(_seq(s) for s in result.identified_raw),
        "neutral": sorted(_seq(s) for s in result.neutral),
        "skipped": sorted(_seq(s) for s in result.skipped),
        "scores": {
            _seq(s): f"{float(v):.9e}"
            for s, v in sorted(result.scores.items())
        },
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def load_pins() -> Dict[str, Dict[str, List[str]]]:
    """``{workload: {emulation seed: [digest per scenario]}}``."""
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pinned(workload: str, seed: int) -> Optional[List[str]]:
    """The digests pinned for ``workload`` at emulation seed ``seed``."""
    return load_pins().get(workload, {}).get(str(seed))


def require_same_verdict(got, want, what: str) -> None:
    """Equal verdict sets and scores within :data:`SCORE_RTOL`."""
    bad = [
        name
        for name in VERDICT_SETS
        if set(getattr(got, name)) != set(getattr(want, name))
    ]
    if bad:
        raise CheckFailed(f"{what}: verdict sets differ ({', '.join(bad)})")
    if set(got.scores) != set(want.scores):
        raise CheckFailed(f"{what}: scored sequences differ")
    for sigma, ref in want.scores.items():
        val = got.scores[sigma]
        if abs(val - ref) > SCORE_RTOL * (1.0 + abs(ref)):
            raise CheckFailed(
                f"{what}: score of {_seq(sigma)} is {val!r}, expected {ref!r}"
            )


def require_bitwise(got, want, what: str) -> None:
    """Identical verdict tuples (order included) and identical scores."""
    for name in VERDICT_SETS:
        if tuple(getattr(got, name)) != tuple(getattr(want, name)):
            raise CheckFailed(f"{what}: {name} differs")
    if got.scores != want.scores:
        raise CheckFailed(f"{what}: scores are not bitwise equal")
