"""Golden values of the certified bandwidth bracket and the bounds built on it.

``tests/data/bracket_golden.json`` pins, exactly:

* the ``beta_bracket`` fields ``lower``, ``upper``, ``congestion_upper``
  and ``congestion_lower`` of every registered family at n = 64 and 256,
  and of ``mesh_2`` 1024, ``de_bruijn`` 1024 and ``xtree`` 1023;
* at n = 64 and 256, also ``beta_lower``, ``beta_upper`` and
  ``bisection_width_upper``;
* ``numeric_slowdown_bound`` on a few guest/host pairs;
* ``lemma8_time_lower`` on one fixed pattern.

Every value is a float or an int, and JSON round-trips both exactly, so
the comparison is ``==``.  A refactor of the bracket, the cut family or
the routing congestion must keep all of them.

Re-record (only for a deliberate change of a bound's value) with
``PYTHONPATH=src python tests/test_bracket_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bandwidth import beta_bracket, beta_lower, beta_upper, bisection_width_upper
from repro.theory import lemma8_time_lower, numeric_slowdown_bound
from repro.topologies.registry import all_family_keys, family_spec
from repro.traffic import TrafficMultigraph

GOLDEN = Path(__file__).parent / "data" / "bracket_golden.json"
SMALL_SIZES = (64, 256)
LARGE_CASES = (("mesh_2", 1024), ("de_bruijn", 1024), ("xtree", 1023))
SLOWDOWN_PAIRS = (
    ("de_bruijn", 256, "mesh_2", 64),
    ("butterfly", 256, "tree", 63),
    ("hypercube", 256, "xtree", 63),
    ("mesh_2", 256, "linear_array", 64),
)


def _machine(key: str, n: int):
    return family_spec(key).build_with_size(n)


def _label(key: str, n: int) -> str:
    return f"{key}@{n}"


def bracket_cases() -> list[tuple[str, int]]:
    """Every (family, size) whose bracket the golden file pins."""
    small = [(key, n) for key in all_family_keys() for n in SMALL_SIZES]
    return small + list(LARGE_CASES)


def bracket_values(key: str, n: int) -> dict:
    machine = _machine(key, n)
    br = beta_bracket(machine)
    values = {
        "lower": br.lower,
        "upper": br.upper,
        "congestion_upper": br.congestion_upper,
        "congestion_lower": br.congestion_lower,
    }
    if n in SMALL_SIZES:
        values["beta_lower"] = beta_lower(machine)
        values["beta_upper"] = beta_upper(machine)
        values["bisection_width_upper"] = bisection_width_upper(machine)
    return values


def slowdown_value(guest: str, n: int, host: str, m: int) -> float:
    return numeric_slowdown_bound(_machine(guest, n), _machine(host, m))


def lemma8_value() -> float:
    """Lemma 8 on a 64-vertex pattern with long-range, uneven traffic."""
    pattern = TrafficMultigraph(64)
    for i in range(64):
        j = (37 * i + 11) % 64
        if i != j:
            pattern.add_edges(i, j, 1 + i % 5)
    return lemma8_time_lower(pattern, _machine("mesh_2", 64))


def record() -> dict:
    return {
        "brackets": {_label(k, n): bracket_values(k, n) for k, n in bracket_cases()},
        "slowdown": {
            f"{g}@{n}/{h}@{m}": slowdown_value(g, n, h, m)
            for g, n, h, m in SLOWDOWN_PAIRS
        },
        "lemma8": lemma8_value(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_lists_match_the_recorded_inputs(golden):
    assert list(golden["brackets"]) == [_label(k, n) for k, n in bracket_cases()]
    assert len(golden["slowdown"]) == len(SLOWDOWN_PAIRS)


@pytest.mark.parametrize(
    "key,n", bracket_cases(), ids=[_label(k, n) for k, n in bracket_cases()]
)
def test_bracket_values_are_identical(golden, key, n):
    assert bracket_values(key, n) == golden["brackets"][_label(key, n)]


@pytest.mark.parametrize(
    "guest,n,host,m", SLOWDOWN_PAIRS, ids=[f"{g}/{h}" for g, _, h, _ in SLOWDOWN_PAIRS]
)
def test_numeric_slowdown_is_identical(golden, guest, n, host, m):
    expected = golden["slowdown"][f"{guest}@{n}/{host}@{m}"]
    assert slowdown_value(guest, n, host, m) == expected


def test_lemma8_is_identical(golden):
    assert lemma8_value() == golden["lemma8"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
