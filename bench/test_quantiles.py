"""The benchmark's percentile rule: median, plus the highest percentile
with at least ten samples beyond it, plus the sample count."""

from fractions import Fraction

import pytest

from quantiles import nearest_rank, quartiles, summarize, tail_quantile


@pytest.mark.parametrize(
    "n, want",
    [
        (19, None),
        (39, None),  # ceil(0.75 * 39) = 30 leaves 9 beyond
        (40, Fraction(3, 4)),
        (100, Fraction(9, 10)),
        (199, Fraction(9, 10)),
        (200, Fraction(95, 100)),
        (999, Fraction(95, 100)),
        (1000, Fraction(99, 100)),
        (10_000, Fraction(999, 1000)),
        (100_000, Fraction(9999, 10000)),
    ],
)
def test_tail_quantile_leaves_ten_samples_beyond(n, want):
    assert tail_quantile(n) == want


def test_summary_of_1_to_100_quotes_p90_exactly():
    s = summarize(range(100, 0, -1))
    assert s == {"n": 100, "p50": 50.5, "tail_pct": "p90", "tail": 90}
    # Exactly ten samples lie beyond the quoted tail.
    assert sum(1 for x in range(1, 101) if x > s["tail"]) == 10


def test_summary_of_1000_samples_quotes_p99():
    s = summarize(range(1, 1001))
    assert (s["tail_pct"], s["tail"], s["n"]) == ("p99", 990, 1000)


def test_small_samples_report_only_the_median():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}


def test_fractional_percentile_labels():
    assert summarize(range(10_000))["tail_pct"] == "p99.9"


def test_nearest_rank_returns_a_sample():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(xs, 0.5) == 2.0
    assert nearest_rank(xs, 0.51) == 3.0
    assert nearest_rank(xs, 0.0) == 1.0


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_quartiles_match_statistics_and_handle_one_value():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
