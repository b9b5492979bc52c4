"""The box-speed probe that scales each measured call's wall time."""

import os

import pytest

import common
from common import PROBE_REF_S, SpeedProbe


def test_factor_probes_every_cpu_and_restores_affinity():
    home = os.sched_getaffinity(0)
    speed = SpeedProbe()
    assert speed.factor(repeats=3) > 0
    assert os.sched_getaffinity(0) == home
    assert speed.cpus == sorted(home)
    assert len(speed.samples) == 3 * len(home)


def test_factor_scales_to_the_reference_speed(monkeypatch):
    times = iter([2 * PROBE_REF_S, 2 * PROBE_REF_S, 100.0])
    monkeypatch.setattr(common, "probe_once", lambda: next(times))
    speed = SpeedProbe(cpus=[min(os.sched_getaffinity(0))])
    # A box running at half the reference speed halves its wall times;
    # one stalled probe out of three does not move the median.
    assert speed.factor(repeats=3) == pytest.approx(0.5)
