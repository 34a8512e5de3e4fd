"""Unit tests of the benchmark's percentile helper and failure tally."""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


def test_tail_reports_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    out = stats.tail(values)
    assert out["n"] == 100
    assert out["p50"] == 50.0
    assert out["tail_q"] == 90.0  # 10 samples beyond p90, only 5 beyond p95
    assert out["tail"] == 90.0


def test_tail_grows_with_sample_count():
    assert stats.tail([1.0] * 1000)["tail_q"] == 99.0
    assert stats.tail([1.0] * 10000)["tail_q"] == 99.9
    assert stats.tail([1.0] * 39)["tail_q"] is None  # < 10 beyond p75
    assert stats.tail([1.0] * 40)["tail_q"] == 75.0


def test_named_percentile_needs_ten_samples_beyond():
    assert stats.named_percentile([1.0] * 99, 90.0) is None
    assert stats.named_percentile([float(i) for i in range(100)], 90.0) == 89.0


def test_failures_count_as_missing_every_percentile():
    tally = stats.Tally()
    for _ in range(60):
        tally.ok("hit", 0.001)
    for _ in range(40):
        tally.fail("hit", "error reply")
    values = tally.samples["hit"]
    assert stats.percentile(values, 50.0) == 0.001
    assert math.isinf(stats.tail(values)["tail"])
    assert tally.attempted == 100 and tally.failed == 40
    assert tally.failed_frac() == 0.4

