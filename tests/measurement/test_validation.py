"""Counter validation where records enter the system.

:class:`RecordChunk`, :class:`PathRecord` (and through it
:meth:`MeasurementData.append_intervals`) and
:meth:`SlidingWindowStats.append_arrays` all reject non-finite,
negative and ``lost > sent`` counters with a
:class:`~repro.exceptions.MeasurementError` that names the path and
the absolute interval. Non-integral values are accepted: fluid
counters are floats until an engine rounds them. Clean inputs pass
and give the verdicts they gave before validation existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network, Path
from repro.core.slices import build_slice_batch
from repro.exceptions import MeasurementError
from repro.experiments.runner import infer_from_measurements
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
)
from repro.streaming.window import SlidingWindowStats

PATHS = ("p0", "p1", "p2", "p3")

#: ``(name, row, column, sent, lost, message fragment)`` — one bad
#: cell planted in otherwise clean counters.
MALFORMED = [
    ("nan_sent", 1, 3, np.nan, 0.0, "non-finite"),
    ("nan_lost", 2, 0, 10.0, np.nan, "non-finite"),
    ("inf_sent", 0, 5, np.inf, 0.0, "non-finite"),
    ("inf_both", 3, 2, np.inf, np.inf, "non-finite"),
    ("neg_inf_lost", 1, 1, 10.0, -np.inf, "non-finite"),
    ("negative_sent", 2, 4, -3.0, 0.0, "negative"),
    ("negative_lost", 0, 0, 10.0, -1.0, "negative"),
    ("lost_above_sent", 3, 5, 4.0, 7.0, "lost exceeds sent"),
    ("lost_above_zero_sent", 1, 2, 0.0, 1.0, "lost exceeds sent"),
    ("fractional_lost_above_sent", 2, 3, 2.5, 2.75, "lost exceeds sent"),
]
MALFORMED_IDS = [case[0] for case in MALFORMED]


def _star_network(spokes=len(PATHS)):
    links = ["hub"] + [f"a{i}" for i in range(spokes)]
    paths = [Path(f"p{i}", (f"a{i}", "hub")) for i in range(spokes)]
    return Network(links, paths)


def _clean(intervals=6):
    sent = np.full((len(PATHS), intervals), 10.0)
    lost = np.zeros_like(sent)
    lost[:, ::2] = 1.0
    return sent, lost


def _planted(row, col, bad_sent, bad_lost):
    sent, lost = _clean()
    sent[row, col] = bad_sent
    lost[row, col] = bad_lost
    return sent, lost


def _expect(fragment, path_id, interval):
    return pytest.raises(
        MeasurementError,
        match=rf"path '{path_id}', interval {interval}: {fragment}",
    )


@pytest.mark.parametrize(
    "name,row,col,bad_sent,bad_lost,fragment", MALFORMED, ids=MALFORMED_IDS
)
class TestMalformedRejected:
    def test_record_chunk(self, name, row, col, bad_sent, bad_lost, fragment):
        sent, lost = _planted(row, col, bad_sent, bad_lost)
        with _expect(fragment, PATHS[row], 40 + col):
            RecordChunk(PATHS, sent, lost, 1.0, start_interval=40)

    def test_path_record(self, name, row, col, bad_sent, bad_lost, fragment):
        sent, lost = _planted(row, col, bad_sent, bad_lost)
        with _expect(fragment, PATHS[row], col):
            PathRecord(PATHS[row], sent[row], lost[row])

    def test_append_intervals(
        self, name, row, col, bad_sent, bad_lost, fragment
    ):
        clean_sent, clean_lost = _clean()
        data = MeasurementData(
            [
                PathRecord(pid, clean_sent[i], clean_lost[i])
                for i, pid in enumerate(PATHS)
            ],
            1.0,
        )
        sent, lost = _planted(row, col, bad_sent, bad_lost)
        offset = data.num_intervals
        with _expect(fragment, PATHS[row], offset + col):
            data.append_intervals(
                dict(zip(PATHS, sent)), dict(zip(PATHS, lost))
            )
        assert data.num_intervals == offset  # nothing appended

    def test_window_append_arrays(
        self, name, row, col, bad_sent, bad_lost, fragment
    ):
        stats = SlidingWindowStats(_star_network())
        clean_sent, clean_lost = _clean()
        stats.append_arrays(clean_sent, clean_lost, PATHS)
        sent, lost = _planted(row, col, bad_sent, bad_lost)
        with _expect(fragment, PATHS[row], 6 + col):
            stats.append_arrays(sent, lost, PATHS)
        assert stats.num_intervals == 6  # the stream is unchanged

    def test_window_first_chunk(
        self, name, row, col, bad_sent, bad_lost, fragment
    ):
        """A rejected first chunk leaves the stream unbound, so a
        clean chunk can still start it."""
        stats = SlidingWindowStats(_star_network())
        sent, lost = _planted(row, col, bad_sent, bad_lost)
        with _expect(fragment, PATHS[row], col):
            stats.append_arrays(sent, lost, PATHS)
        stats.append_arrays(*_clean(), PATHS)
        assert stats.num_intervals == 6


def test_window_rejects_without_runtime_warning():
    """NaN never reaches the int64 cast (which would warn and turn it
    into INT64_MIN)."""
    stats = SlidingWindowStats(_star_network())
    sent, lost = _planted(0, 0, np.nan, 0.0)
    with np.errstate(invalid="raise"):
        with pytest.raises(MeasurementError):
            stats.append_arrays(sent, lost, PATHS)


def test_non_integral_counters_accepted():
    sent, lost = _clean()
    sent += 0.4
    lost += 0.25
    chunk = RecordChunk(PATHS, sent, lost, 1.0)
    record = PathRecord("p0", sent[0], lost[0])
    assert record.sent.dtype == np.int64
    np.testing.assert_array_equal(record.sent, sent[0].astype(np.int64))
    stats = SlidingWindowStats(_star_network())
    stats.append(chunk)
    assert stats.num_intervals == sent.shape[1]


@st.composite
def clean_chunks(draw):
    intervals = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sent = rng.integers(1, 80, size=(len(PATHS), intervals))
    lost = rng.binomial(sent, draw(st.floats(0.0, 0.3)))
    if draw(st.booleans()):
        # Fluid-style float counters: non-integral, lost ≤ sent kept.
        frac = rng.random(sent.shape)
        sent = sent + frac
        lost = np.minimum(lost + frac * rng.random(sent.shape), sent)
    return sent, lost


@settings(max_examples=40, deadline=None)
@given(clean_chunks())
def test_clean_chunks_pass_with_unchanged_verdicts(case):
    sent, lost = case
    net = _star_network()
    chunk = RecordChunk(PATHS, sent, lost, 1.0)
    data = chunk.to_measurement_data()
    # The records hold exactly the int64 cast the constructor always
    # applied, so the verdict is the one of the cast counters.
    cast = MeasurementData(
        [
            PathRecord(
                pid,
                np.asarray(sent[i]).astype(np.int64),
                np.asarray(lost[i]).astype(np.int64),
            )
            for i, pid in enumerate(PATHS)
        ],
        1.0,
    )
    np.testing.assert_array_equal(data.sent_matrix, cast.sent_matrix)
    np.testing.assert_array_equal(data.lost_matrix, cast.lost_matrix)
    _, got = infer_from_measurements(net, data, min_pathsets=1)
    _, expected = infer_from_measurements(net, cast, min_pathsets=1)
    assert got.scores == expected.scores
    assert got.identified == expected.identified
    # The incremental window over the same chunk agrees with the
    # batch recompute on the validated records.
    stats = SlidingWindowStats(net)
    stats.append(chunk)
    batch, _ = build_slice_batch(net, 1)
    _, y_single, y_pair = batch_slice_observations(data, batch)
    got_single, got_pair = stats.window_costs(0, sent.shape[1])
    np.testing.assert_array_equal(got_single, y_single)
    np.testing.assert_array_equal(got_pair, y_pair)
