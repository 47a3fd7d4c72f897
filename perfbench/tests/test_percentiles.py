import pytest

from perfbench.percentiles import percentile, summarize, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile(list(reversed(values)), 50) == 25.0


def test_summarize_reports_percentile_and_count():
    values = list(range(1, 201))  # 200 samples -> p95
    summary = summarize(values)
    assert summary["n"] == 200
    assert summary["tail_pct"] == 95.0
    assert summary["tail"] == pytest.approx(percentile(values, 95))
    assert summary["p50"] == pytest.approx(100.5)


def test_summarize_small_sample_falls_back_to_max():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["tail_pct"] == 100.0
    assert summary["tail"] == 3.0

