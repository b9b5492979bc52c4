"""Verdict rules of ``compare.py`` and their exit status."""

import json

from compare import main, verdict
from metricdefs import FAILED_RATIO, Metric

LOWER = Metric("cycle_s", "s", "lower", 0.10)
HIGHER = Metric("service_warm_rps", "req/s", "higher", 0.10)
STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


def test_same_runs_are_unchanged():
    assert verdict(LOWER, STEADY, list(reversed(STEADY))) == "unchanged"


def test_regression_beyond_the_bound_is_worse():
    assert verdict(LOWER, STEADY, [x * 1.2 for x in STEADY]) == "worse"
    assert verdict(HIGHER, STEADY, [x * 0.8 for x in STEADY]) == "worse"


def test_regression_within_the_bound_is_not_worse():
    assert verdict(LOWER, STEADY, [x * 1.05 for x in STEADY]) == "unchanged"


def test_consistent_gain_is_better_in_either_direction():
    assert verdict(LOWER, STEADY, [x * 0.9 for x in STEADY]) == "better"
    assert verdict(HIGHER, STEADY, [x * 1.1 for x in STEADY]) == "better"


def test_gain_needs_nine_of_ten_paired_wins():
    b = [x * 0.9 for x in STEADY]
    b[0] = b[1] = 11.0  # two losses out of ten pairs
    assert verdict(LOWER, STEADY, b) == "unchanged"


def test_gain_smaller_than_the_parent_spread_is_not_better():
    a = [9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0]  # quartiles 9 / 11
    b = [x - 1.0 for x in a]
    assert verdict(Metric("x", "s", "lower", 0.25), a, b) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 5.0, 15.0, 10.0]
    assert verdict(LOWER, noisy, [x * 1.02 for x in noisy]) == "unresolved"
    # ...unless every change run is worse than every parent run.
    assert verdict(LOWER, [1.0, 1.5, 1.2], [3.0, 4.5, 3.6]) == "worse"


def test_any_rise_in_failed_ratio_is_worse():
    assert verdict(FAILED_RATIO, [0.0, 0.0, 0.0], [0.0, 0.001, 0.0]) == "worse"
    assert verdict(FAILED_RATIO, [0.0] * 3, [0.0] * 3) == "unchanged"
    assert verdict(FAILED_RATIO, [0.01, 0.0, 0.0], [0.0] * 3) == "unchanged"


def _write(path, cycles):
    with open(path, "w") as fh:
        for c in cycles:
            metrics = {"setup_s": 1.0, "cycle_s": c, "op_geomean_ms": 100.0,
                       "service_warm_rps": 2000.0, "service_cold_ms": 75.0,
                       "failed_ratio": 0.0}
            fh.write(json.dumps({"workload": "service", "metrics": metrics}) + "\n")


def test_main_exits_nonzero_only_on_a_regression(tmp_path, capsys):
    a, same, slow = tmp_path / "a.jsonl", tmp_path / "same.jsonl", tmp_path / "slow.jsonl"
    _write(a, [1.0, 1.01, 0.99])
    _write(same, [1.0, 0.99, 1.01])
    _write(slow, [1.3, 1.31, 1.29])
    assert main([str(a), str(same)]) == 0
    assert main([str(a), str(slow)]) == 1
    out = capsys.readouterr().out
    assert "cycle_s" in out and "worse" in out and "service_cold_ms" in out
