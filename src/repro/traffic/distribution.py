"""Traffic distributions over ordered processor pairs.

A :class:`TrafficDistribution` is the paper's ``pi``: for each ordered
pair ``(p_i, p_j)`` with ``i != j``, the relative frequency of a message
originating at ``p_i`` destined for ``p_j``.  Internally it is two
parallel arrays -- int64 pair codes ``s * n + d`` and float64 weights
(not necessarily normalised -- only ratios matter) -- plus helpers to
sample concrete message batches for the routing simulator.  The
generators below build those arrays vectorised; the ``{(s, d): w}``
dict the theory code reads is derived from them on first use.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.util import check_positive_int, rng_from_seed

__all__ = [
    "TrafficDistribution",
    "symmetric_traffic",
    "quasi_symmetric_traffic",
    "permutation_traffic",
    "transpose_traffic",
    "bit_reversal_traffic",
    "hot_spot_traffic",
]


class TrafficDistribution:
    """A weighted distribution over ordered (source, destination) pairs.

    ``codes[i] = s * n + d`` and ``weights[i] > 0`` describe the i-th
    pair of the support, in the order the pairs were given.  Both arrays
    are read-only: the sampler and the cached :attr:`pairs` view rely on
    them not changing.
    """

    def __init__(self, n: int, pairs: dict[tuple[int, int], float], name: str = ""):
        check_positive_int(n, "n", minimum=2)
        keys = list(pairs)
        ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
        weights = np.fromiter(pairs.values(), dtype=np.float64, count=len(keys))
        s, d = ends[:, 0], ends[:, 1]
        bad = (s < 0) | (s >= n) | (d < 0) | (d >= n) | (s == d) | (weights < 0)
        if bad.any():
            key = keys[int(bad.argmax())]
            raise _pair_error(n, key[0], key[1], pairs[key])
        self._adopt(n, s * n + d, weights, name)

    @classmethod
    def from_codes(
        cls, n: int, codes: np.ndarray, weights: np.ndarray, name: str = ""
    ) -> "TrafficDistribution":
        """Build from parallel pair-code and weight arrays.

        The array twin of the dict constructor: the same checks and
        error messages, without materialising one tuple per pair.
        """
        check_positive_int(n, "n", minimum=2)
        codes = np.asarray(codes, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        bad = (codes < 0) | (codes >= n * n) | (codes % (n + 1) == 0) | (weights < 0)
        if bad.any():
            i = int(bad.argmax())
            s, d = divmod(int(codes[i]), n)
            raise _pair_error(n, s, d, float(weights[i]))
        dist = cls.__new__(cls)
        dist._adopt(n, codes, weights, name)
        return dist

    def _adopt(self, n: int, codes: np.ndarray, weights: np.ndarray, name: str) -> None:
        """Keep the positive-weight pairs as read-only arrays."""
        positive = weights > 0
        if not positive.all():
            codes, weights = codes[positive], weights[positive]
        if not len(codes):
            raise ValueError("traffic distribution must have positive support")
        self.n = n
        self.name = name or "traffic"
        self.codes = np.array(codes, dtype=np.int64)
        self.weights = np.array(weights, dtype=np.float64)
        self.codes.flags.writeable = False
        self.weights.flags.writeable = False
        self._pairs: dict[tuple[int, int], float] | None = None

    # -- inspection ----------------------------------------------------------

    @property
    def pairs(self) -> dict[tuple[int, int], float]:
        """``{(s, d): weight}`` in support order, built once on first use."""
        if self._pairs is None:
            s, d = np.divmod(self.codes, self.n)
            self._pairs = dict(zip(zip(s.tolist(), d.tolist()), self.weights.tolist()))
        return self._pairs

    @property
    def support_size(self) -> int:
        """Number of ordered pairs with nonzero frequency."""
        return len(self.codes)

    @property
    def total_weight(self) -> float:
        """Sum of all pair weights."""
        return sum(self.weights.tolist())

    def is_quasi_symmetric(self, c: float = 0.01) -> bool:
        """Paper definition: Omega(n^2) pairs have *equal* nonzero
        probability and all other pairs are disallowed.  ``c`` is the
        constant in ``support >= c * n^2``."""
        weights = {round(w, 12) for w in self.weights.tolist()}
        return len(weights) == 1 and self.support_size >= c * self.n * self.n

    # -- sampling -------------------------------------------------------------

    def sample_messages(
        self, m: int, seed: int | np.random.Generator | None = None
    ) -> list[tuple[int, int]]:
        """Draw ``m`` (source, destination) messages i.i.d. from ``pi``."""
        sources, dests = self.sampler()(m, seed).T.tolist()
        return list(zip(sources, dests))

    def sampler(self):
        """A reusable sampling closure over this distribution.

        The closure returns an int64 ``(m, 2)`` array of (source,
        destination) rows.  The cumulative distribution is built once;
        each call then draws what ``rng.choice(support, size=m, p=p)``
        would -- numpy's weighted ``choice`` is exactly
        ``cdf.searchsorted(rng.random(m), side="right")`` over
        ``cumsum(p)`` normalised by its last entry -- so a given rng
        state yields the same messages as the dict-era sampler while
        callers sampling many batches (seed replication, offered-load
        sweeps) skip the per-call O(support) setup.

        The uniforms are searched in ascending order and the picks
        scattered back to draw order.  numpy's binary search keeps the
        previous key's lower bound when keys ascend, so the probes walk
        the CDF forward instead of missing cache on every draw; equal
        uniforms search to the same index, so every pick is the one the
        unsorted search returns.
        """
        total = self.weights.sum()
        if not np.isfinite(total):
            raise ValueError(f"traffic weights must sum to a finite value, got {total}")
        cdf = (self.weights / total).cumsum()
        cdf /= cdf[-1]
        codes, n = self.codes, self.n

        def draw(
            m: int, seed: int | np.random.Generator | None = None
        ) -> np.ndarray:
            check_positive_int(m, "m")
            u = rng_from_seed(seed).random(m)
            order = u.argsort()
            picked = np.empty(m, dtype=np.int64)
            picked[order] = codes[cdf.searchsorted(u[order], side="right")]
            return np.stack(np.divmod(picked, n), axis=1)

        return draw

    def restrict(self, nodes: Iterable[int]) -> "TrafficDistribution":
        """Restriction to pairs entirely inside ``nodes`` (relabelled 0..)."""
        keep = np.array(sorted(set(nodes)), dtype=np.int64)
        members = keep[(keep >= 0) & (keep < self.n)]
        index = np.full(self.n, -1, dtype=np.int64)
        index[members] = np.searchsorted(keep, members)
        s, d = np.divmod(self.codes, self.n)
        s, d = index[s], index[d]
        inside = (s >= 0) & (d >= 0)
        return TrafficDistribution.from_codes(
            len(keep),
            s[inside] * len(keep) + d[inside],
            self.weights[inside],
            name=f"{self.name}|restricted",
        )

    def __repr__(self) -> str:
        return (
            f"TrafficDistribution({self.name}, n={self.n}, "
            f"support={self.support_size})"
        )


def _pair_error(n: int, s, d, w) -> ValueError:
    """The constructor's complaint about one rejected ``(s, d): w`` entry."""
    if not (0 <= s < n and 0 <= d < n):
        return ValueError(f"pair ({s}, {d}) out of range for n={n}")
    if s == d:
        return ValueError(f"self-pair ({s}, {d}) not allowed")
    return ValueError(f"negative weight {w} for pair ({s}, {d})")


def off_diagonal_codes(n: int) -> np.ndarray:
    """Codes ``s * n + d`` of every ordered pair with ``s != d``, ascending.

    The diagonal codes are the multiples of ``n + 1``; between two of
    them lie exactly ``n`` off-diagonal codes.
    """
    return np.arange(1, n * n, dtype=np.int64).reshape(n - 1, n + 1)[:, :n].ravel()


def symmetric_traffic(n: int) -> TrafficDistribution:
    """The symmetric distribution: every ordered pair equally likely.

    This is the distribution defining the machine bandwidth beta(M).
    """
    check_positive_int(n, "n", minimum=2)
    codes = off_diagonal_codes(n)
    return TrafficDistribution.from_codes(
        n, codes, np.ones(len(codes)), name="symmetric"
    )


def quasi_symmetric_traffic(
    n: int,
    fraction: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> TrafficDistribution:
    """A random quasi-symmetric distribution: a uniform random subset of
    ``fraction * n * (n-1)`` ordered pairs, all with equal weight."""
    check_positive_int(n, "n", minimum=2)
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = rng_from_seed(seed)
    total = n * (n - 1)
    want = max(1, int(round(fraction * total)))
    chosen = np.asarray(rng.choice(total, size=want, replace=False), dtype=np.int64)
    # Index r among the n - 1 destinations of source s skips s itself.
    s, r = np.divmod(chosen, n - 1)
    codes = s * n + r + (r >= s)
    return TrafficDistribution.from_codes(
        n, codes, np.ones(want), name=f"quasi_symmetric({fraction})"
    )


def permutation_traffic(
    n: int, seed: int | np.random.Generator | None = None
) -> TrafficDistribution:
    """A random fixed-point-free permutation workload."""
    check_positive_int(n, "n", minimum=2)
    rng = rng_from_seed(seed)
    perm = np.arange(n)
    while True:
        rng.shuffle(perm)
        if not np.any(perm == np.arange(n)):
            break
    return _permutation_pairs(n, np.arange(n, dtype=np.int64), perm, "permutation")


def transpose_traffic(n: int) -> TrafficDistribution:
    """Matrix-transpose workload on a square 0..n-1 index space.

    Node ``r * side + c`` talks to ``c * side + r``; requires square n.
    """
    side = int(round(n**0.5))
    if side * side != n:
        raise ValueError(f"transpose traffic needs a square n, got {n}")
    check_positive_int(n, "n", minimum=2)
    s = np.arange(n, dtype=np.int64)
    r, c = np.divmod(s, side)
    return _permutation_pairs(n, s, c * side + r, "transpose")


def bit_reversal_traffic(n: int) -> TrafficDistribution:
    """Bit-reversal permutation workload; requires n a power of two."""
    bits = n.bit_length() - 1
    if 2**bits != n:
        raise ValueError(f"bit-reversal traffic needs a power-of-two n, got {n}")
    check_positive_int(n, "n", minimum=2)
    s = np.arange(n, dtype=np.int64)
    d = np.zeros_like(s)
    for b in range(bits):
        d |= ((s >> b) & 1) << (bits - 1 - b)
    return _permutation_pairs(n, s, d, "bit_reversal")


def _permutation_pairs(
    n: int, s: np.ndarray, d: np.ndarray, name: str
) -> TrafficDistribution:
    """Unit-weight pairs ``s -> d`` in source order, fixed points dropped."""
    moved = s != d
    codes = s[moved] * n + d[moved]
    return TrafficDistribution.from_codes(n, codes, np.ones(len(codes)), name=name)


def hot_spot_traffic(
    n: int, hot: int = 0, hot_fraction: float = 0.5
) -> TrafficDistribution:
    """Background symmetric traffic plus a hot-spot destination.

    ``hot_fraction`` of the total weight is aimed at node ``hot``.
    """
    check_positive_int(n, "n", minimum=2)
    if not 0 <= hot < n:
        raise ValueError(f"hot node {hot} out of range")
    if not 1.0 / n <= hot_fraction < 1:
        raise ValueError(
            f"hot_fraction must be in [1/n, 1) = [{1.0 / n:.3f}, 1), "
            f"got {hot_fraction}"
        )
    background = n * (n - 1)
    codes = off_diagonal_codes(n)
    weights = np.ones(background)
    # Solve (n-1) + x = hot_fraction * (background + x) for the total
    # extra weight x aimed at the hot node, so the hot node receives
    # exactly hot_fraction of all traffic.
    extra = (hot_fraction * background - (n - 1)) / (1 - hot_fraction)
    boost = extra / (n - 1)
    sources = np.arange(n, dtype=np.int64)
    sources = sources[sources != hot]
    # Pair (s, d) sits at s * (n - 1) + d - (d > s) in symmetric order.
    weights[sources * (n - 1) + hot - (hot > sources)] += boost
    return TrafficDistribution.from_codes(n, codes, weights, name=f"hot_spot({hot})")
