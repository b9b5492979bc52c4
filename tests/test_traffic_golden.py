"""Golden digests of the traffic generators and their draw streams.

``tests/data/traffic_golden.json`` pins, for every registered workload
plus local, restricted and subset-relabelled traffic at n = 16, 64 and
256: the distribution's name and size, a sha256 of
``list(pairs.items())`` (every pair in support order with its exact
weight) and a sha256 of ``sample_messages(8 * n, seed)`` for seeds 0-4.
The digests were recorded from the dict-backed implementation that the
array-backed one replaced, so these tests hold the arrays to the same
supports, weights and draw streams.

A change that alters a draw stream on purpose must bump the store and
snapshot salt, then re-record with
``PYTHONPATH=src python tests/test_traffic_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.theory.bottleneck import _subset_quasi_symmetric
from repro.topologies.registry import family_spec
from repro.traffic import local_traffic, symmetric_traffic
from repro.workloads import all_workload_keys, build_workload

GOLDEN = Path(__file__).parent / "data" / "traffic_golden.json"
SIZES = (16, 64, 256)
SEEDS = range(5)


def _subset_traffic(n: int):
    rng = np.random.default_rng(n)
    subset = rng.choice(n, size=n // 2, replace=False)
    return _subset_quasi_symmetric(n, subset, 0.6, rng)


def distributions(n: int) -> dict:
    """Label -> builder of every distribution the golden file pins at size n."""

    def workload(key, **params):
        return lambda: build_workload(key, n, **params).traffic

    cases = {key: workload(key) for key in all_workload_keys()}
    cases.update(
        {
            "quasi_symmetric(fraction=0.2,seed=3)": workload(
                "quasi_symmetric", fraction=0.2, seed=3
            ),
            "hotspot(hot=n/3,hot_fraction=0.8)": workload(
                "hotspot", hot=n // 3, hot_fraction=0.8
            ),
            "scale_free(alpha=2.5)": workload("scale_free", alpha=2.5),
            "permutation(seed=4)": workload("permutation", seed=4),
            "local(mesh_2,decay=0.5)": lambda: local_traffic(
                family_spec("mesh_2").build_with_size(n), 0.5
            ),
            "symmetric|restricted": lambda: symmetric_traffic(n).restrict(
                range(1, n, 3)
            ),
            "hotspot|restricted": lambda: build_workload(
                "hotspot", n, hot=2
            ).traffic.restrict(range(0, n, 2)),
            "subset_quasi_symmetric": lambda: _subset_traffic(n),
        }
    )
    return cases


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(dist, n: int) -> dict:
    """What the golden file records about one distribution."""
    return {
        "name": dist.name,
        "n": dist.n,
        "pairs": _digest(list(dist.pairs.items())),
        "samples": [_digest(dist.sample_messages(8 * n, seed)) for seed in SEEDS],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n", SIZES)
def test_golden_covers_every_distribution(golden, n):
    assert sorted(golden[str(n)]) == sorted(distributions(n))


@pytest.mark.parametrize("label", sorted(distributions(SIZES[0])))
@pytest.mark.parametrize("n", SIZES)
def test_distribution_matches_golden(golden, n, label):
    assert fingerprint(distributions(n)[label](), n) == golden[str(n)][label]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {
        str(n): {
            label: fingerprint(build(), n)
            for label, build in sorted(distributions(n).items())
        }
        for n in SIZES
    }
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
