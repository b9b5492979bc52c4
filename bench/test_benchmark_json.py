"""``BENCHMARK.json`` declares exactly what the benchmark reports."""

import json
import re

from common import ROOT
from metricdefs import END_TO_END, OPERATION, PER_LAYER
from run import DEFAULT_SECONDS, WORKLOADS, _workload_class

DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metrics_match_the_definitions():
    assert DOC["end_to_end"] == [m.as_json() for m in END_TO_END]
    assert DOC["per_layer"] == [m.as_json() for m in PER_LAYER]
    setup = DOC["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(
        m["bound"] for m in DOC["end_to_end"]
    )


def test_workloads_match_the_runner():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS) == list(OPERATION)
    for w in DOC["workloads"]:
        assert w["why"] == _workload_class(w["name"]).why


def test_command_and_limits():
    assert DOC["command"] == ["python3", "bench/run.py"]
    assert DOC["paths"] == ["bench"]
    assert DOC["run_seconds"] == DEFAULT_SECONDS
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    names += [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in DOC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])
